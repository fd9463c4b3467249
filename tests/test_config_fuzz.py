"""Fuzzing the scene config of `fformation generate --config`.

One field of a valid config is dropped or replaced (other types, NaN,
Infinity, negatives, huge numbers, floats where integers belong). Whatever
the config holds, the CLI must exit 0 or 2, print no traceback and raise no
RuntimeWarning (an overflow or a division by zero while rendering). Every
config renders one scene, and a valid bystander count stays at 3 or below,
so each accepted draw renders in milliseconds.
"""
import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from fformation.cli import main
from test_scene_fuzz import ODD_VALUES

BASE_CONFIG = {
    "formation": "triangle",
    "angle_deg": 30,
    "distance_m": [2.0, 5.0],
    "image_width": 640,
    "image_height": 480,
    "noise_px": 1.5,
    "outlier_count": 1,
    "seed": 3,
    "formation_scale": None,
    "angle_jitter_deg": 4.0,
    "scale_jitter": 0.05,
}


def _renders_slowly(value):
    """A valid bystander count above 3: each adds a body to place and render."""
    return type(value) is int and 3 < value < 10**400


@st.composite
def edited_config(draw):
    doc = dict(BASE_CONFIG)
    key = draw(st.sampled_from(sorted(BASE_CONFIG)))
    if draw(st.booleans()) and key not in ("formation", "angle_deg"):
        del doc[key]
    elif key == "outlier_count":
        doc[key] = draw(ODD_VALUES.filter(lambda v: not _renders_slowly(v)))
    else:
        doc[key] = draw(ODD_VALUES)
    return doc


def _generate(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        args = ["generate", "--config", path, "--count", "1"]
        args += ["--out", os.path.join(tmp, "scenes.jsonl")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main(args)
    runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not runtime, f"{doc}: {runtime}"
    return rc, err.getvalue()


def test_base_config_generates():
    assert _generate(BASE_CONFIG) == (0, "")


@settings(max_examples=100, deadline=None)
@given(doc=edited_config())
def test_generate_with_edited_config_exits_0_or_2(doc):
    rc, err = _generate(doc)
    assert rc in (0, 2)
    assert "Traceback" not in err
