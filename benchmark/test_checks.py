"""The checkers catch planted faults, and the printed metric names match
BENCHMARK.json.

    python3 -m pytest -q benchmark/test_checks.py
"""
import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np
import pytest

import checks
import run
import spans
from fformation import crf, experiments, pipeline, pose, svm, synth
from fformation.features import F_ANGLE, F_GROUP, F_NODE
from fformation.pose import FORMATIONS


@pytest.fixture(scope="module")
def models():
    """A CRF with fixed random weights and small one-vs-rest SVMs."""
    rng = np.random.default_rng(5)
    crf_model = crf.CrfModel(rng.normal(size=crf.weight_dim(F_NODE)))
    f_labels = [FORMATIONS[i % 4] for i in range(24)]
    a_labels = [checks.ANGLE_CLASSES[i % 7] for i in range(28)]
    formation_svm = svm.train_one_vs_rest(
        rng.normal(size=(24, F_GROUP)), f_labels, FORMATIONS, gamma=0.01
    )
    angle_svm = svm.train_one_vs_rest(
        rng.normal(size=(28, F_ANGLE)), a_labels, checks.ANGLE_CLASSES, gamma=0.01
    )
    return crf_model, formation_svm, angle_svm


def _detections(models):
    """(scene, Detection dict) pairs for a few frames with 2-5 people."""
    out = []
    for seed, (formation, angle, bystanders) in enumerate(
        [("triangle", 30, 2), ("face-to-face", -60, 1), ("L-shaped", 0, 0), ("side-by-side", 90, 2)]
    ):
        scene = synth.render_scene(
            synth.SynthConfig(formation, angle, outlier_count=bystanders, seed=seed)
        )
        det = pipeline.detect(scene, *models)
        out.append((scene, json.loads(json.dumps(pipeline.detection_to_dict(det)))))
    return out


def _with_group(models):
    return [(s, d) for s, d in _detections(models) if d["formation"] is not None]


def test_correct_detections_pass(models):
    pairs = _detections(models)
    assert any(d["formation"] for _, d in pairs)
    for scene, doc in pairs:
        assert checks.check_detection(doc, scene, models[0]) == []


def test_wrong_label_in_crf_labelling_is_caught(models):
    for scene, doc in _detections(models):
        for i in range(len(doc["membership"])):
            bad = copy.deepcopy(doc)
            bad["membership"][i] = "O" if bad["membership"][i] == "G" else "G"
            assert any(
                "best labelling" in e for e in checks.check_detection(bad, scene, models[0])
            ), (scene.frame_id, i)


@pytest.mark.parametrize("head,key", [("formation", "formation"), ("angle", "angle_deg")])
def test_swapped_argmax_is_caught(models, head, key):
    pairs = _with_group(models)
    assert pairs
    for scene, doc in pairs:
        bad = copy.deepcopy(doc)
        scores = bad["scores"][head]
        top = max(scores, key=scores.get)
        other = min(scores, key=scores.get)
        scores[top], scores[other] = scores[other], scores[top]
        assert any("arg-max" in e for e in checks.check_detection(bad, scene, models[0]))


def test_formation_without_a_group_is_caught(models):
    scene, doc = _with_group(models)[0]
    bad = copy.deepcopy(doc)
    bad["membership"] = ["O"] * len(bad["membership"])
    errors = checks.check_detection(bad, scene, models[0])
    assert any("G labels but formation" in e for e in errors)


def test_brute_force_prefers_g_on_ties():
    scene = synth.render_scene(synth.SynthConfig("face-to-face", 0, outlier_count=1, seed=3))
    flat = crf.CrfModel(np.zeros(crf.weight_dim(F_NODE)))
    labels, score, _ = checks.best_labelling(flat, scene)
    assert labels == ["G"] * len(scene.poses) and score == 0.0


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Reports of a small but complete reproduction, and its test scenes."""
    spec = experiments.SynthSpec(count_per_cell=4, seed=0)
    out = tmp_path_factory.mktemp("reports")
    experiments.run_experiment(
        experiments.ExperimentConfig(
            out_dir=str(out),
            synth=spec,
            training=experiments.TrainingConfig(crf_max_iters=300),
            seed=0,
        )
    )
    scenes = synth.generate_dataset(spec.configs(), shuffle_seed=0)
    return checks.read_reports(str(out)), synth.split_train_test(scenes, seed=0)[1]


def test_correct_reports_pass(reports):
    files, test_scenes = reports
    errors, quality = checks.check_reports(files, test_scenes, 0)
    assert errors == []
    assert set(quality) == {"membership_f1", "formation_f1", "angle_f1", "joint_accuracy"}


def _edit_json(files, name, edit):
    doc = json.loads(files[name])
    edit(doc)
    return {**files, name: json.dumps(doc).encode()}


@pytest.mark.parametrize(
    "name,edit",
    [
        ("table2_formation.json", lambda d: d["report"]["per_class"]["triangle"].update(
            f1=d["report"]["per_class"]["triangle"]["f1"] - 0.01)),
        ("table1_membership.json", lambda d: d["report"].update(
            weighted_f1=d["report"]["weighted_f1"] + 1e-6)),
        ("table3_angle.json", lambda d: d["report"]["per_class"]["30"].update(f1=1.0)),
        ("table4_joint.json", lambda d: d.update(
            learned_accuracy_avg=d["learned_accuracy_avg"] + 0.01)),
    ],
)
def test_edited_f1_in_a_report_is_caught(reports, name, edit):
    files, test_scenes = reports
    bad = _edit_json(files, name, edit)
    errors, _ = checks.check_reports(bad, test_scenes, 0)
    assert errors


def test_edited_f1_in_a_csv_mirror_is_caught(reports):
    files, test_scenes = reports
    text = files["table2_formation.csv"].decode()
    rows = [r.split(",") for r in text.splitlines()]
    rows[1][3] = f"{float(rows[1][3]) / 2:.6f}"
    bad = {**files, "table2_formation.csv": ("\n".join(",".join(r) for r in rows) + "\n").encode()}
    errors, _ = checks.check_reports(bad, test_scenes, 0)
    assert any("table2_formation.csv" in e for e in errors)


def test_wrong_support_is_caught(reports):
    files, test_scenes = reports
    errors, _ = checks.check_reports(files, test_scenes[1:], 0)
    assert any("support" in e or "sums to" in e for e in errors)


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in spans.PER_LAYER.items()
    }


def test_tracer_restores_every_name():
    before = {m: dict(vars(m)) for m in (pipeline, crf, svm, pose, experiments)}
    tracer = spans.Tracer("fformation")
    tracer.install()
    assert pipeline.detect is not before[pipeline]["detect"]
    tracer.uninstall()
    for module, names in before.items():
        for key, value in names.items():
            assert vars(module)[key] is value, (module.__name__, key)
    assert tracer.missing == []
