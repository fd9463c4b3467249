"""Fuzzing the scene parser through `fformation predict`.

Valid Scene JSONL is mutated (keys dropped, values swapped for other types,
NaN, Infinity and out-of-range numbers, keypoints or poses dropped and
duplicated, names repeated, lines truncated). Whatever the file holds, the
CLI must exit 0, 2 or 3 and print no traceback.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation import crf, svm
from fformation.cli import main
from fformation.features import F_ANGLE, F_GROUP, F_NODE
from fformation.pipeline import ANGLE_CLASSES, JOINT_CLASSES, ModelBundle, save_models
from fformation.pose import FORMATIONS, KEYPOINT_NAMES, scene_to_dict
from fformation.synth import SynthConfig, render_scene

BASE_SCENES = [
    scene_to_dict(render_scene(SynthConfig("triangle", 30, outlier_count=1, seed=3))),
    scene_to_dict(render_scene(SynthConfig("face-to-face", -60, seed=4))),
]

ODD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.just(10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(KEYPOINT_NAMES),
    st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def _slots(node, out):
    """Every (container, key) of a JSON tree, parents before children."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


@st.composite
def mutated_jsonl(draw):
    docs = copy.deepcopy(BASE_SCENES)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = _slots(docs, [])
        if not slots:
            break
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        action = draw(st.sampled_from(("drop", "replace", "duplicate")))
        if action == "drop":
            del container[key]
        elif action == "duplicate" and isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = draw(ODD_VALUES)
    text = "".join(json.dumps(doc) + "\n" for doc in docs)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _random_svm(classes, width, rng):
    return svm.SvmModel(
        classes=tuple(classes),
        support_vectors=rng.uniform(-1.0, 1.0, size=(5, width)),
        dual_coef=rng.normal(size=(5, len(classes))),
        bias=rng.normal(size=len(classes)),
        C=1.0,
        gamma=0.1,
    )


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    """A small random bundle: exit codes do not depend on what it predicts."""
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("fuzz") / "models"
    save_models(
        ModelBundle(
            crf=crf.CrfModel(rng.normal(size=crf.weight_dim(F_NODE))),
            formation_svm=_random_svm(FORMATIONS, F_GROUP, rng),
            angle_svm=_random_svm(ANGLE_CLASSES, F_ANGLE, rng),
            joint_svm=_random_svm(JOINT_CLASSES, F_GROUP, rng),
        ),
        path,
    )
    return path


def test_base_scenes_predict(bundle_dir):
    text = "".join(json.dumps(doc) + "\n" for doc in BASE_SCENES)
    assert _predict(bundle_dir, text, joint=False) == (0, "")


def _predict(bundle_dir, text, joint):
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "scenes.jsonl")
        with open(data, "w", encoding="utf-8") as fp:
            fp.write(text)
        args = ["predict", "--data", data, "--models", str(bundle_dir)]
        args += ["--out", os.path.join(tmp, "det.jsonl")] + (["--joint"] if joint else [])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(args)
    return rc, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(text=mutated_jsonl(), joint=st.booleans())
def test_predict_exits_0_2_or_3_without_traceback(bundle_dir, text, joint):
    rc, err = _predict(bundle_dir, text, joint)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
