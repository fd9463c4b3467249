"""Fuzzing the CLI flags.

Each draw takes one subcommand with valid flags and breaks one thing: a
numeric flag out of its range or not a number at all, a required flag
dropped, or flags that contradict each other. Every draw fails before any
scene is rendered beyond one per cell or any model trains, so the CLI must
exit 2 or 3, print no traceback and write no file.
"""
import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation.cli import main


def _fails(parse):
    def check(text):
        try:
            parse(text)
        except (ValueError, OverflowError):
            return True
        return False

    return check


NOT_AN_INT = st.one_of(
    st.text(max_size=6).filter(_fails(int)),
    st.floats(allow_nan=False, allow_infinity=False).map(repr).filter(_fails(int)),
)
NOT_A_FLOAT = st.text(max_size=6).filter(_fails(float))
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999"])

# What each numeric flag must be -> strings that are not that.
BAD_VALUES = {
    "at least 1": st.one_of(NOT_AN_INT, st.integers(max_value=0).map(str)),
    "non-negative int": st.one_of(NOT_AN_INT, st.integers(max_value=-1).map(str)),
    "non-negative": st.one_of(
        NOT_A_FLOAT, NON_FINITE, st.floats(max_value=-1e-300).map(repr)
    ),
    "positive": st.one_of(NOT_A_FLOAT, NON_FINITE, st.floats(max_value=0.0).map(repr)),
    "gamma": st.one_of(
        NOT_A_FLOAT.filter(lambda s: s != "auto"),
        NON_FINITE,
        st.floats(max_value=0.0).map(repr),
    ),
    "fraction": st.one_of(
        NOT_A_FLOAT,
        NON_FINITE,
        st.floats(max_value=-1e-300).map(repr),
        st.floats(min_value=1.0 + 1e-12, allow_infinity=False).map(repr),
    ),
}

SEED = {"--seed": "non-negative int"}


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """One scene per cell, the input of every command that reads scenes."""
    path = str(tmp_path_factory.mktemp("flags") / "scenes.jsonl")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "--count", "1", "--out", path]) == 0
    return path


def commands(scenes, out):
    """Subcommand -> (required flags, numeric flag -> what it must be, flag
    sets that contradict the others). Outputs go under `out`; model inputs
    there are never read, as every draw fails before. generate always gets
    --count 1 unless the draw breaks it."""
    models = os.path.join(out, "models")
    return {
        "generate": (
            {"--out": os.path.join(out, "all.jsonl")},
            {
                "--count": "at least 1",
                "--width": "at least 1",
                "--height": "at least 1",
                "--noise-px": "non-negative",
                "--angle-jitter": "non-negative",
                "--formation-scale": "positive",
                "--outlier-frac": "fraction",
                "--scale-jitter": "fraction",
                **SEED,
            },
            [
                ["--train-out", os.path.join(out, "train.jsonl")],
                ["--test-out", os.path.join(out, "test.jsonl")],
                # one scene per cell leaves the test split empty
                [
                    "--train-out",
                    os.path.join(out, "train.jsonl"),
                    "--test-out",
                    os.path.join(out, "test.jsonl"),
                ],
                # no cell at all
                ["--formations", ""],
                ["--formations", ","],
                ["--angles", ""],
            ],
        ),
        "train-crf": (
            {"--train": scenes, "--out": os.path.join(out, "crf.json")},
            {
                "--l2": "non-negative",
                "--max-iters": "at least 1",
                "--tol": "positive",
            },
            [],
        ),
        "train-svm": (
            {
                "--task": "formation",
                "--train": scenes,
                "--out": os.path.join(out, "svm.json"),
            },
            {"--C": "positive", "--gamma": "gamma", "--tol": "positive", **SEED},
            [["--task", "group"]],
        ),
        "predict": (
            {"--data": scenes, "--models": models, "--out": os.path.join(out, "p.jsonl")},
            {},
            [],
        ),
        "evaluate": (
            {"--train": scenes, "--test": scenes, "--out-dir": os.path.join(out, "r")},
            {
                "--crf-l2": "non-negative",
                "--crf-max-iters": "at least 1",
                "--crf-tol": "positive",
                "--C": "positive",
                "--gamma": "gamma",
                "--svm-tol": "positive",
                **SEED,
            },
            [
                ["--tables", "5"],
                ["--tables", "1,x"],
                # a loaded bundle trains nothing to save
                ["--models", models, "--save-models", os.path.join(out, "saved")],
            ],
        ),
        "baseline": (
            {"--data": scenes, "--out": os.path.join(out, "b.jsonl")},
            {},
            [],
        ),
        "bench": (
            {"--data": scenes, "--models": models, "--out": os.path.join(out, "b.json")},
            {"--repetitions": "at least 1"},
            [],
        ),
        "convert-ego-group": (
            {"--annotations": scenes, "--out": os.path.join(out, "ego.jsonl")},
            {},
            [],
        ),
    }


@st.composite
def broken_argv(draw, scenes, out):
    command, (flags, numeric, contradictions) = draw(
        st.sampled_from(sorted(commands(scenes, out).items()))
    )
    flags = dict(flags)
    if command == "generate":
        flags["--count"] = "1"  # not required, but 100 scenes per cell would render
    kinds = (
        (["numeric"] if numeric else [])
        + ["missing"]
        + (["contradictory"] if contradictions else [])
    )
    kind = draw(st.sampled_from(kinds))
    extra = []
    if kind == "numeric":
        flag = draw(st.sampled_from(sorted(numeric)))
        flags[flag] = draw(BAD_VALUES[numeric[flag]])
    elif kind == "missing":
        del flags[draw(st.sampled_from(sorted(set(flags) - {"--count"})))]
    else:
        extra = draw(st.sampled_from(contradictions))
    return [command, *(x for item in flags.items() for x in item), *extra]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_broken_flags_exit_2_or_3_before_any_work(scenes, data):
    with tempfile.TemporaryDirectory() as out:
        argv = data.draw(broken_argv(scenes, out))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
        written = os.listdir(out)
    assert rc in (2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().strip()
    assert written == []
