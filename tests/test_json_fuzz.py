"""Fuzzing the JSON inputs other than scenes: the model bundle through
`fformation predict` and EGO-GROUP annotations through
`fformation convert-ego-group`.

Valid documents are mutated (keys dropped, values swapped for other types,
NaN, Infinity and out-of-range numbers, rows narrowed, class lists
reordered, cut or renamed, files truncated). Whatever the files hold, the
CLI must exit 0, 2 or 3 and print no traceback.
"""
import contextlib
import copy
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fformation.cli import main
from test_scene_fuzz import BASE_SCENES, ODD_VALUES, _predict, _slots, bundle_dir  # noqa: F401

BUNDLE_FILES = (
    "manifest.json",
    "crf.json",
    "svm_formation.json",
    "svm_angle.json",
    "svm_joint.json",
)
SCENES_TEXT = "".join(json.dumps(doc) + "\n" for doc in BASE_SCENES)


def _narrow(value):
    """A list one entry shorter; a matrix one column narrower."""
    if value and all(isinstance(row, list) for row in value):
        return [row[:-1] for row in value]
    return value[:-1]


@st.composite
def mutated_model_file(draw, docs):
    """(file name, text): one bundle file, mutated."""
    name = draw(st.sampled_from(BUNDLE_FILES))
    doc = copy.deepcopy(docs[name])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not isinstance(doc, dict):
            break
        action = draw(st.sampled_from(("drop", "replace", "narrow", "classes", "deep")))
        key = draw(st.sampled_from(sorted(doc) + ["files"]))
        if action == "deep":
            slots = _slots(doc, [])
            container, key = slots[draw(st.integers(0, len(slots) - 1))]
            container[key] = draw(ODD_VALUES)
        elif action == "drop":
            doc.pop(key, None)
        elif action == "narrow" and isinstance(doc.get(key), list):
            doc[key] = _narrow(doc[key])
        elif action == "classes" and isinstance(doc.get("classes"), list):
            classes = doc["classes"]
            doc["classes"] = draw(
                st.sampled_from(
                    (
                        classes[::-1],
                        classes[:-1],
                        classes + classes[:1],
                        [str(c) + "x" for c in classes],
                        list(range(len(classes))),
                    )
                )
            )
        else:
            doc[key] = draw(ODD_VALUES)
    text = json.dumps(doc) + "\n"
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return name, text


@pytest.fixture(scope="module")
def bundle_docs(bundle_dir):
    """File name -> parsed document, for every file of the bundle."""
    assert sorted(os.listdir(bundle_dir)) == sorted(BUNDLE_FILES)
    docs = {}
    for name in BUNDLE_FILES:
        with open(os.path.join(bundle_dir, name), encoding="utf-8") as fp:
            docs[name] = json.load(fp)
    return docs


def test_base_bundle_predicts(bundle_dir):
    assert _predict(bundle_dir, SCENES_TEXT, joint=True) == (0, "")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), joint=st.booleans())
def test_predict_with_mutated_bundle_exits_0_2_or_3(bundle_dir, bundle_docs, data, joint):
    name, text = data.draw(mutated_model_file(bundle_docs))
    with tempfile.TemporaryDirectory() as tmp:
        models = os.path.join(tmp, "models")
        shutil.copytree(bundle_dir, models)
        with open(os.path.join(models, name), "w", encoding="utf-8") as fp:
            fp.write(text)
        rc, err = _predict(models, SCENES_TEXT, joint)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err


BASE_ANNOTATION = {
    "frames": [
        {
            "frame": "000012",
            "width": 640,
            "height": 480,
            "people": [
                {
                    "id": "p1",
                    "keypoints": {"nose": [100.0, 90.0, 0.9], "leftEye": [104, 86, 0.8]},
                },
                {"id": "p2", "keypoints": {"nose": [220.0, 95.0, 0.7]}},
                {"id": 3},
            ],
            "groups": [["p1", "p2"]],
        },
        {"frame": "000013", "width": 640, "height": 480, "people": []},
    ]
}


@st.composite
def mutated_annotation(draw):
    doc = copy.deepcopy(BASE_ANNOTATION)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        slots = _slots(doc, [])
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
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


def _convert(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ego.json")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
        args = ["convert-ego-group", "--annotations", path]
        args += ["--out", os.path.join(tmp, "ego.jsonl")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(args)
    return rc, err.getvalue()


def test_base_annotation_converts():
    assert _convert(json.dumps(BASE_ANNOTATION)) == (0, "")


@settings(max_examples=100, deadline=None)
@given(text=mutated_annotation())
def test_convert_ego_group_exits_0_2_or_3_without_traceback(text):
    rc, err = _convert(text)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err
