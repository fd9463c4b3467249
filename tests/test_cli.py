import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
import warnings

import pytest

import fformation
from fformation import experiments
from fformation import svm as svm_mod
from fformation.cli import (
    _parse_angles,
    _parse_distance,
    _parse_formations,
    _parse_gamma,
    build_parser,
    main,
)
from fformation.crf import CrfTrainConfig
from fformation.experiments import SynthSpec, TrainingConfig, bench_latency
from fformation.features import FEATURE_CATALOG_VERSION
from fformation.pose import load_scenes


def run_cli(args):
    """Run the CLI in a fresh interpreter; returns (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(fformation.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "fformation.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stderr


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny dataset generated through the CLI, shared by the module."""
    root = tmp_path_factory.mktemp("cli")
    rc = main(
        [
            "generate",
            "--count",
            "5",
            "--out",
            str(root / "all.jsonl"),
            "--train-out",
            str(root / "train.jsonl"),
            "--test-out",
            str(root / "test.jsonl"),
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    return root


class TestGenerate:
    def test_outputs_parse_and_split_sizes(self, workdir):
        full = load_scenes(workdir / "all.jsonl")
        train = load_scenes(workdir / "train.jsonl")
        test = load_scenes(workdir / "test.jsonl")
        assert len(full) == 5 * 28
        assert len(train) == 4 * 28
        assert len(test) == 1 * 28

    def test_train_out_requires_test_out(self, workdir, capsys):
        rc = main(
            [
                "generate",
                "--count",
                "2",
                "--out",
                str(workdir / "x.jsonl"),
                "--train-out",
                str(workdir / "only-train.jsonl"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("count", ["1", "2"])
    def test_split_with_an_empty_half_is_config_error_and_writes_nothing(
        self, tmp_path, capsys, count
    ):
        paths = [str(tmp_path / name) for name in ("all", "train", "test")]
        rc = main(
            ["generate", "--count", count, "--out", paths[0]]
            + ["--train-out", paths[1], "--test-out", paths[2]]
        )
        assert rc == 2
        assert f"split {28 * int(count)} scenes {28 * int(count)} train / 0 test" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_unknown_formation_is_config_error(self, workdir):
        rc = main(
            [
                "generate",
                "--formations",
                "circle",
                "--count",
                "1",
                "--out",
                str(workdir / "y.jsonl"),
            ]
        )
        assert rc == 2

    def test_bad_distance_is_config_error(self, workdir):
        rc = main(
            [
                "generate",
                "--distance",
                "fast",
                "--count",
                "1",
                "--out",
                str(workdir / "z.jsonl"),
            ]
        )
        assert rc == 2

    def test_generate_from_config_file(self, workdir):
        cfg_path = workdir / "one_cell.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "formation": "triangle",
                    "angle_deg": 60,
                    "distance_m": [2.0, 3.0],
                    "outlier_count": 1,
                    "seed": 5,
                }
            )
        )
        out = workdir / "one_cell.jsonl"
        rc = main(
            ["generate", "--config", str(cfg_path), "--count", "4", "--out", str(out)]
        )
        assert rc == 0
        scenes = load_scenes(out)
        assert len(scenes) == 4
        assert all(s.truth.formation == "triangle" for s in scenes)

    def test_generate_from_bad_config_is_config_error(self, workdir):
        cfg_path = workdir / "bad_cfg.json"
        cfg_path.write_text(json.dumps({"formation": "triangle", "angle_deg": 60, "zoom": 2}))
        rc = main(
            [
                "generate",
                "--config",
                str(cfg_path),
                "--count",
                "1",
                "--out",
                str(workdir / "never.jsonl"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("distance", ["x", -1.0, [5.0, 2.0], [2.0, "x"]])
    def test_config_with_bad_distance_is_config_error(self, workdir, distance):
        cfg_path = workdir / "bad_distance.json"
        cfg = {"formation": "triangle", "angle_deg": 60, "distance_m": distance}
        cfg_path.write_text(json.dumps(cfg))
        rc = main(
            ["generate", "--config", str(cfg_path), "--out", str(workdir / "never.jsonl")]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--distance", "5:2"),
            ("--noise-px", "-1"),
            ("--noise-px", "nan"),
            ("--noise-px", "641"),  # wider than the 640 px frame
            ("--outlier-frac", "2"),
            ("--width", "0"),
            ("--count", "0"),
            ("--count", "-1"),
            ("--formations", ""),
            ("--formations", ","),
            ("--angles", ""),
        ],
    )
    def test_bad_scene_option_is_config_error(self, workdir, flag, value):
        out = workdir / "z.jsonl"
        assert main(["generate", "--count", "1", flag, value, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("image_width", "x"),
            ("image_width", 0),
            ("image_height", -5),
            ("seed", "x"),
            ("outlier_count", 1.5),
            ("formation_scale", "x"),
            ("angle_jitter_deg", "x"),
            ("scale_jitter", "x"),
            ("angle_deg", 30.0),
            # large enough to overflow rendering, or small enough to underflow
            ("angle_jitter_deg", 1e308),
            ("distance_m", 1e155),
            ("formation_scale", 1e155),
            ("distance_m", 1e-300),
            ("noise_px", 641),
            ("noise_px", 1e308),
        ],
    )
    def test_config_with_bad_field_is_config_error(self, workdir, capsys, field, value):
        cfg_path = workdir / "bad_field.json"
        cfg = {"formation": "triangle", "angle_deg": 30, field: value}
        cfg_path.write_text(json.dumps(cfg))
        out = str(workdir / "never.jsonl")
        args = ["generate", "--config", str(cfg_path), "--count", "1", "--out", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(args) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err


@pytest.mark.parametrize("gamma", ["abc", "-1", "nan"])
def test_reproduction_script_bad_gamma_is_usage_error(gamma):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_synthetic_eval.py")
    src = os.path.dirname(os.path.dirname(fformation.__file__))
    proc = subprocess.run(
        [sys.executable, script, "--gamma", gamma],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2
    assert "gamma must be a positive float or 'auto'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.fixture
def digests_script():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "output_digests.py")
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digests_against_exits_1_naming_each_difference(
    digests_script, monkeypatch, tmp_path, capsys
):
    run = {"a.json": "1", "b.json": "2", "new.json": "3"}
    monkeypatch.setattr(digests_script, "spec_digests", lambda spec, work_dir: run)
    saved = tmp_path / "saved.json"
    saved.write_text(json.dumps({"1:0": {"a.json": "1", "b.json": "9", "old.json": "4"}}))
    assert digests_script.main(["--spec", "1:0", "--against", str(saved)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"1:0": run}
    assert err.splitlines() == [
        "1:0 b.json: moved",
        "1:0 new.json: only in this run",
        "1:0 old.json: only in the saved run",
        f"3 differences from {saved} over this run's 3 artifacts",
    ]
    saved.write_text(json.dumps({"1:0": run}))
    assert digests_script.main(["--spec", "1:0", "--against", str(saved)]) == 0


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--seed", "-1")])
def test_reproduction_script_out_of_range_flag_is_usage_error(flag, value):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_synthetic_eval.py")
    src = os.path.dirname(os.path.dirname(fformation.__file__))
    proc = subprocess.run(
        [sys.executable, script, flag, value],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 2
    assert f"{flag} must be" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_full_evaluate_run_loads_no_scipy(workdir, tmp_path):
    # numpy is the one runtime dependency: CRF training included, nothing
    # the evaluate command runs imports scipy
    src = os.path.dirname(os.path.dirname(fformation.__file__))
    argv = [
        "evaluate", "--train", str(workdir / "train.jsonl"),
        "--test", str(workdir / "test.jsonl"), "--out-dir", str(tmp_path / "reports"),
        "--save-models", str(tmp_path / "models"),
    ]
    code = (
        "import sys; from fformation.cli import main; "
        f"assert main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
        check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "reports" / "meta.json").exists()


def test_non_positive_gamma_is_config_error(workdir):
    rc = main(
        [
            "train-svm",
            "--task",
            "formation",
            "--train",
            str(workdir / "train.jsonl"),
            "--gamma",
            "-1",
            "--out",
            str(workdir / "never_svm.json"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "command, flag, value",
    [("train-svm", "--C", v) for v in ("0", "-1", "nan", "inf")]
    + [("evaluate", "--C", v) for v in ("0", "-1", "nan", "inf")]
    + [("train-svm", "--tol", v) for v in ("0", "-1", "nan")]
    + [("train-crf", "--l2", "-1")]
    + [("train-crf", "--max-iters", v) for v in ("0", "-1")]
    + [("evaluate", "--crf-max-iters", "0")]
    + [("bench", "--repetitions", "0")],
)
def test_out_of_range_flag_is_config_error(workdir, capsys, command, flag, value):
    train, test = str(workdir / "train.jsonl"), str(workdir / "test.jsonl")
    out = str(workdir / "never")
    args = {
        "train-svm": ["--task", "formation", "--train", train, "--out", out],
        "evaluate": ["--train", train, "--test", test, "--out-dir", out],
        "train-crf": ["--train", train, "--out", out],
        "bench": ["--data", str(workdir / "all.jsonl"), "--models", out, "--out", out],
    }[command]
    assert main([command, *args, flag, value]) == 2
    assert f"config error: {flag} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train-svm", "evaluate"])
def test_unconverged_smo_is_config_error(workdir, monkeypatch, capsys, command):
    # what a tolerance below SMO's reach does once it runs out of iterations
    monkeypatch.setattr(svm_mod, "SMO_MAX_ITER", 2)
    train, test = str(workdir / "train.jsonl"), str(workdir / "test.jsonl")
    never = workdir / "never_smo"
    args = {
        "train-svm": ["--task", "formation", "--train", train, "--out", str(never)],
        "evaluate": ["--train", train, "--test", test, "--out-dir", str(never)]
        + ["--crf-max-iters", "1"],
    }[command]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: SMO did not reach tol=")
    assert len(err.splitlines()) == 1
    assert not never.exists()


class TestTraining:
    def test_train_crf_and_svms_and_predict(self, workdir):
        rc = main(
            [
                "train-crf",
                "--train",
                str(workdir / "train.jsonl"),
                "--out",
                str(workdir / "crf.json"),
                "--l2",
                "0.003",
                "--max-iters",
                "800",
            ]
        )
        assert rc == 0
        rc = main(
            [
                "train-svm",
                "--task",
                "formation",
                "--train",
                str(workdir / "train.jsonl"),
                "--crf",
                str(workdir / "crf.json"),
                "--out",
                str(workdir / "svm_formation.json"),
            ]
        )
        assert rc == 0
        assert os.path.exists(workdir / "svm_formation.json")

    def test_gold_groups_below_two_members_are_skipped(self, workdir, capsys):
        lines = (workdir / "train.jsonl").read_text().splitlines()
        docs = [json.loads(line) for line in lines[:2]]
        for doc, n_members in zip(docs, (0, 1)):
            n = len(doc["truth"]["membership"])
            doc["truth"]["membership"] = ["G"] * n_members + ["O"] * (n - n_members)
        data = workdir / "few_members.jsonl"
        data.write_text("\n".join([json.dumps(d) for d in docs] + lines[2:]) + "\n")
        capsys.readouterr()
        rc = main(
            [
                "train-svm",
                "--task",
                "formation",
                "--train",
                str(data),
                "--out",
                str(workdir / "svm_gold.json"),
            ]
        )
        assert rc == 0
        assert f"on {len(lines) - 2} samples" in capsys.readouterr().out

    def test_missing_input_file_is_config_error(self, workdir):
        rc = main(
            [
                "train-crf",
                "--train",
                str(workdir / "does-not-exist.jsonl"),
                "--out",
                str(workdir / "nope.json"),
            ]
        )
        assert rc == 2

    def test_malformed_data_is_data_error(self, workdir):
        bad = workdir / "bad.jsonl"
        bad.write_text("{broken\n")
        rc = main(
            ["train-crf", "--train", str(bad), "--out", str(workdir / "nope.json")]
        )
        assert rc == 3

    def test_train_crf_trains_the_crf_evaluate_trains(self, workdir):
        train = str(workdir / "train.jsonl")
        crf_path = workdir / "crf_default.json"
        models = workdir / "default_models"
        assert main(["train-crf", "--train", train, "--out", str(crf_path)]) == 0
        rc = main(
            [
                "evaluate",
                "--train",
                train,
                "--test",
                str(workdir / "test.jsonl"),
                "--tables",
                "1",
                "--save-models",
                str(models),
                "--out-dir",
                str(workdir / "default_reports"),
            ]
        )
        assert rc == 0
        assert crf_path.read_bytes() == (models / "crf.json").read_bytes()


def test_flag_defaults_are_the_library_defaults():
    parse = build_parser().parse_args
    training = TrainingConfig()
    crf = parse(["train-crf", "--train", "t", "--out", "o"])
    assert TrainingConfig(
        crf_l2=crf.l2, crf_max_iters=crf.max_iters, crf_tol=crf.tol
    ) == training
    svm = parse(["train-svm", "--task", "joint", "--train", "t", "--out", "o"])
    assert TrainingConfig(
        svm_c=svm.C, svm_gamma=_parse_gamma(svm.gamma), svm_tol=svm.tol
    ) == training
    ev = parse(["evaluate", "--out-dir", "o"])
    assert TrainingConfig(
        crf_l2=ev.crf_l2,
        crf_max_iters=ev.crf_max_iters,
        crf_tol=ev.crf_tol,
        svm_c=ev.C,
        svm_gamma=_parse_gamma(ev.gamma),
        svm_tol=ev.svm_tol,
    ) == training
    assert CrfTrainConfig() == CrfTrainConfig(
        training.crf_l2, training.crf_max_iters, training.crf_tol
    )
    gen = parse(["generate", "--out", "o"])
    assert SynthSpec(
        count_per_cell=gen.count,
        formations=_parse_formations(gen.formations),
        angles=_parse_angles(gen.angles),
        outlier_fraction=gen.outlier_frac,
        distance_m=_parse_distance(gen.distance),
        image_width=gen.width,
        image_height=gen.height,
        noise_px=gen.noise_px,
        formation_scale=gen.formation_scale,
        angle_jitter_deg=gen.angle_jitter,
        scale_jitter=gen.scale_jitter,
        seed=gen.seed,
    ) == SynthSpec()
    bench = parse(["bench", "--data", "d", "--models", "m", "--out", "o"])
    repetitions = inspect.signature(bench_latency).parameters["repetitions"]
    assert bench.repetitions == repetitions.default


@pytest.fixture(scope="module")
def triangle_only(workdir):
    """A training set whose scenes are all triangles."""
    path = workdir / "triangle.jsonl"
    rc = main(
        ["generate", "--formations", "triangle", "--count", "2", "--out", str(path)]
    )
    assert rc == 0
    return path


@pytest.mark.parametrize("command", ["train-svm", "evaluate"])
def test_class_missing_from_training_data_is_data_error(workdir, triangle_only, command):
    train = str(triangle_only)
    never = str(workdir / "never_svm.json")
    args = {
        "train-svm": ["--task", "formation", "--train", train, "--out", never],
        "evaluate": [
            "--train",
            train,
            "--test",
            train,
            "--crf-max-iters",
            "50",
            "--out-dir",
            str(workdir / "never_reports"),
        ],
    }[command]
    rc, err = run_cli([command, *args])
    assert rc == 3, err
    assert "data error: the formation training data has no sample of" in err
    assert "'face-to-face', 'side-by-side', 'L-shaped'" in err
    assert "Traceback" not in err


def test_gamma_auto_on_fewer_than_10_groups_is_data_error(workdir):
    train = str(workdir / "four_cells.jsonl")
    assert main(["generate", "--angles", "0", "--count", "2", "--out", train]) == 0
    rc, err = run_cli(
        ["train-svm", "--task", "formation", "--train", train, "--gamma", "auto"]
        + ["--out", str(workdir / "never_svm.json")]
    )
    assert rc == 3, err
    assert "data error: gamma selection needs at least 10 samples, got 8" in err
    assert "Traceback" not in err


def test_evaluate_on_an_empty_test_set_is_data_error_before_training(
    workdir, monkeypatch, capsys
):
    empty = workdir / "empty.jsonl"
    empty.write_text("")
    monkeypatch.setattr(experiments, "train_bundle", None)  # any call fails
    rc = main(
        ["evaluate", "--train", str(workdir / "train.jsonl"), "--test", str(empty)]
        + ["--out-dir", str(workdir / "never_reports")]
    )
    assert rc == 3
    assert "data error: the test set holds no scenes" in capsys.readouterr().err
    assert not (workdir / "never_reports").exists()


def test_evaluate_on_a_boolean_angle_is_data_error(workdir, artifacts):
    lines = (workdir / "test.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    doc["truth"]["angle_deg"] = False
    test = workdir / "boolean_angle.jsonl"
    test.write_text("\n".join([lines[0], json.dumps(doc)]) + "\n")
    rc, err = run_cli(
        ["evaluate", "--models", str(artifacts["models"]), "--test", str(test)]
        + ["--out-dir", str(workdir / "never_reports")]
    )
    assert rc == 3, err
    assert "data error: line 2: approach angle False is not an integer" in err
    assert "Traceback" not in err
    assert not (workdir / "never_reports").exists()


def test_predict_on_a_string_keypoint_is_data_error(workdir, artifacts):
    lines = (workdir / "test.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    doc["poses"][0]["keypoints"][0]["x"] = "12.5"
    data = workdir / "string_keypoint.jsonl"
    data.write_text("\n".join([lines[0], json.dumps(doc)]) + "\n")
    out = workdir / "never_predictions.jsonl"
    rc, err = run_cli(
        ["predict", "--models", str(artifacts["models"]), "--data", str(data)]
        + ["--out", str(out)]
    )
    assert rc == 3, err
    assert "data error: line 2: pose" in err
    assert "a keypoint value must be a number, got '12.5'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def poseless_train(workdir):
    """The training set with one more labelled scene, which has no pose."""
    lines = (workdir / "train.jsonl").read_text().splitlines()
    doc = json.loads(lines[0])
    doc.update(frame_id="nobody", poses=[])
    doc["truth"]["membership"] = []
    path = workdir / "poseless.jsonl"
    path.write_text("\n".join([json.dumps(doc)] + lines) + "\n")
    return path, len(lines)


@pytest.mark.parametrize("command", ["train-crf", "train-svm", "train-svm-crf", "evaluate"])
def test_scene_without_a_pose_is_skipped_in_training(
    workdir, artifacts, poseless_train, command, capsys
):
    train, n_with_poses = poseless_train
    out = str(workdir / f"poseless_{command}")
    svm = ["train-svm", "--task", "formation", "--train", str(train), "--out", out]
    args = {
        "train-crf": ["train-crf", "--train", str(train), "--out", out, "--max-iters", "50"],
        "train-svm": svm,
        "train-svm-crf": svm + ["--crf", str(artifacts["models"] / "crf.json")],
        "evaluate": [
            "evaluate",
            "--train",
            str(train),
            "--test",
            str(workdir / "test.jsonl"),
            "--crf-max-iters",
            "50",
            "--out-dir",
            out,
        ],
    }[command]
    capsys.readouterr()
    assert main(args) == 0
    if command == "train-crf":
        assert f"on {n_with_poses} chains" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, message",
    [
        ("train-crf", "no training scene has a pose"),
        ("train-svm", "the formation training data has no sample of"),
    ],
)
def test_training_on_scenes_without_a_pose_is_data_error(workdir, command, message):
    lines = (workdir / "train.jsonl").read_text().splitlines()
    train = workdir / "nobody.jsonl"
    with open(train, "w") as fp:
        for line in lines:
            doc = json.loads(line)
            doc["poses"], doc["truth"]["membership"] = [], []
            fp.write(json.dumps(doc) + "\n")
    out = workdir / f"never_{command}.json"
    args = ["--train", str(train), "--out", str(out)]
    if command == "train-svm":
        args += ["--task", "formation"]
    rc, err = run_cli([command, *args])
    assert rc == 3, err
    assert f"data error: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def artifacts(workdir):
    out = {
        "reports": workdir / "reports",
        "models": workdir / "models",
    }
    rc = main(
        [
            "evaluate",
            "--train",
            str(workdir / "train.jsonl"),
            "--test",
            str(workdir / "test.jsonl"),
            "--save-models",
            str(out["models"]),
            "--out-dir",
            str(out["reports"]),
            "--crf-max-iters",
            "800",
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    return out


class TestEvaluatePredictBaselineBench:
    def test_reports_written(self, artifacts):
        for stem in (
            "table1_membership",
            "table2_formation",
            "table3_angle",
            "table4_joint",
        ):
            assert (artifacts["reports"] / f"{stem}.csv").exists()
            assert (artifacts["reports"] / f"{stem}.json").exists()

    def test_predict_cascade_and_joint(self, workdir, artifacts):
        for extra, name in ([], "det.jsonl"), (["--joint"], "det_joint.jsonl"):
            rc = main(
                [
                    "predict",
                    "--data",
                    str(workdir / "test.jsonl"),
                    "--models",
                    str(artifacts["models"]),
                    "--out",
                    str(workdir / name),
                ]
                + extra
            )
            assert rc == 0
        lines = (workdir / "det.jsonl").read_text().splitlines()
        assert len(lines) == 28
        doc = json.loads(lines[0])
        assert "membership" in doc and "formation" in doc
        joint_doc = json.loads((workdir / "det_joint.jsonl").read_text().splitlines()[0])
        assert joint_doc["joint"] is not None
        for line in (workdir / "det_joint.jsonl").read_text().splitlines():
            doc = json.loads(line)
            if doc["joint"] is not None:
                assert doc["formation"] == doc["joint"]["formation"]
                assert doc["angle_deg"] == doc["joint"]["angle_deg"]
                assert set(doc["scores"]) == {"membership_g_prob", "joint"}

    def test_baseline(self, workdir):
        rc = main(
            [
                "baseline",
                "--data",
                str(workdir / "test.jsonl"),
                "--out",
                str(workdir / "rb.jsonl"),
            ]
        )
        assert rc == 0
        lines = (workdir / "rb.jsonl").read_text().splitlines()
        assert len(lines) == 28
        assert all(json.loads(l)["angle_deg"] is None for l in lines)

    def test_baseline_on_a_one_pose_scene_is_data_error(self, workdir):
        lines = (workdir / "test.jsonl").read_text().splitlines()
        doc = json.loads(lines[0])
        doc.update(frame_id="solo", poses=doc["poses"][:1])
        doc["truth"]["membership"] = doc["truth"]["membership"][:1]
        data = workdir / "one_pose.jsonl"
        data.write_text("\n".join(lines + [json.dumps(doc)]) + "\n")
        out = workdir / "never_rb.jsonl"
        rc, err = run_cli(["baseline", "--data", str(data), "--out", str(out)])
        assert rc == 3, err
        assert "data error: scene 'solo' has fewer than two poses" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_evaluate_with_models_and_save_models_is_config_error(
        self, workdir, artifacts
    ):
        saved, reports = workdir / "never_saved", workdir / "never_reports"
        rc, err = run_cli(
            [
                "evaluate",
                "--test",
                str(workdir / "test.jsonl"),
                "--models",
                str(artifacts["models"]),
                "--save-models",
                str(saved),
                "--out-dir",
                str(reports),
            ]
        )
        assert rc == 2, err
        assert "config error: models_dir loads a bundle" in err
        assert "Traceback" not in err
        assert not saved.exists() and not reports.exists()

    def test_bench_requires_enough_scenes(self, workdir, artifacts):
        rc = main(
            [
                "bench",
                "--data",
                str(workdir / "test.jsonl"),  # only 28 scenes
                "--models",
                str(artifacts["models"]),
                "--out",
                str(workdir / "bench.json"),
            ]
        )
        assert rc == 3

    def test_bench_runs_on_full_set(self, workdir, artifacts):
        rc = main(
            [
                "bench",
                "--data",
                str(workdir / "all.jsonl"),
                "--models",
                str(artifacts["models"]),
                "--repetitions",
                "1",
                "--out",
                str(workdir / "bench.json"),
            ]
        )
        assert rc == 0
        doc = json.loads((workdir / "bench.json").read_text())
        assert doc["p50_ms"] <= doc["p95_ms"] <= doc["max_ms"]

    def test_corrupt_model_bundle_is_data_error(self, workdir, artifacts):
        broken = workdir / "broken_models"
        broken.mkdir(exist_ok=True)
        (broken / "manifest.json").write_text("{oops")
        rc = main(
            [
                "predict",
                "--data",
                str(workdir / "test.jsonl"),
                "--models",
                str(broken),
                "--out",
                str(workdir / "never.jsonl"),
            ]
        )
        assert rc == 3

    def test_predict_on_empty_frame_reports_no_people(self, workdir, artifacts):
        scene = {
            "frame_id": "empty",
            "image_width": 640,
            "image_height": 480,
            "poses": [],
        }
        data = workdir / "empty.jsonl"
        data.write_text(json.dumps(scene) + "\n")
        for extra in ([], ["--joint"]):
            out = workdir / "empty_det.jsonl"
            rc, err = run_cli(
                [
                    "predict",
                    "--data",
                    str(data),
                    "--models",
                    str(artifacts["models"]),
                    "--out",
                    str(out),
                ]
                + extra
            )
            assert rc == 0, err
            assert "Traceback" not in err
            [doc] = [json.loads(line) for line in out.read_text().splitlines()]
            assert doc["membership"] == []
            assert doc["formation"] is None
            assert doc["reason"] == "no_people"

    def test_bad_table_list_is_config_error(self, workdir, artifacts):
        rc, err = run_cli(
            [
                "evaluate",
                "--test",
                str(workdir / "test.jsonl"),
                "--models",
                str(artifacts["models"]),
                "--tables",
                "1,x",
                "--out-dir",
                str(workdir / "never_reports"),
            ]
        )
        assert rc == 2
        assert "config error" in err
        assert "Traceback" not in err

    def test_missing_bundle_file_is_data_error(self, workdir, artifacts):
        broken = workdir / "no_joint_models"
        shutil.copytree(artifacts["models"], broken, dirs_exist_ok=True)
        (broken / "svm_joint.json").unlink()
        rc, err = run_cli(
            [
                "predict",
                "--data",
                str(workdir / "test.jsonl"),
                "--models",
                str(broken),
                "--out",
                str(workdir / "never.jsonl"),
            ]
        )
        assert rc == 3
        assert "data error" in err and "svm_joint.json" in err
        assert "Traceback" not in err

    def test_manifest_files_map_is_ignored(self, workdir, artifacts):
        """A `files` map (older manifests carry one) cannot point the bundle
        at model files outside it: the fixed names are read."""
        bundle = workdir / "files_map_models"
        shutil.copytree(artifacts["models"], bundle, dirs_exist_ok=True)
        outside = workdir / "outside_models"
        outside.mkdir(exist_ok=True)
        (outside / "crf.json").write_text("{}")
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["files"] = {"crf": "../outside_models/crf.json"}
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        outputs = []
        for models in (artifacts["models"], bundle):
            out = workdir / f"det_{models.name}.jsonl"
            rc, err = run_cli(
                [
                    "predict",
                    "--data",
                    str(workdir / "test.jsonl"),
                    "--models",
                    str(models),
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0, err
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]


def _sv_308_wide(doc):
    doc["support_vectors"] = [row[:-1] for row in doc["support_vectors"]]


def _three_angle_classes(doc):
    """A consistent angle model that knows only the first 3 of the 7 angles."""
    doc.update(
        classes=doc["classes"][:3],
        bias=doc["bias"][:3],
        dual_coefs=[row[:3] for row in doc["dual_coefs"]],
    )


# Model files `fformation predict` must refuse with exit 3: (file, edit).
MALFORMED_MODELS = {
    "crf_weights_not_numbers": ("crf.json", lambda d: d.update(weights="abc")),
    "crf_five_weights": ("crf.json", lambda d: d.update(weights=[0.0] * 5)),
    "crf_nan_weights": (
        "crf.json",
        lambda d: d.update(weights=[float("nan")] * len(d["weights"])),
    ),
    "crf_not_an_object": ("crf.json", lambda d: [d]),
    "crf_l2_not_a_number": ("crf.json", lambda d: d.update(l2="x")),
    "crf_27_node_features": ("crf.json", lambda d: d.update(weights=[0.0] * (2 * 27 + 4))),
    "svm_308_wide": ("svm_formation.json", _sv_308_wide),
    "svm_formation_renamed_classes": (
        "svm_formation.json",
        lambda d: d.update(classes=["a", "b", "c", "d"]),
    ),
    "svm_joint_integer_classes": (
        "svm_joint.json",
        lambda d: d.update(classes=list(range(len(d["classes"])))),
    ),
    "svm_angle_three_of_seven_classes": ("svm_angle.json", _three_angle_classes),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_file_is_data_error(workdir, artifacts, case):
    name, edit = MALFORMED_MODELS[case]
    bundle = workdir / f"malformed_{case}"
    shutil.copytree(artifacts["models"], bundle, dirs_exist_ok=True)
    doc = json.loads((bundle / name).read_text())
    replaced = edit(doc)
    (bundle / name).write_text(json.dumps(doc if replaced is None else replaced))
    rc, err = run_cli(
        [
            "predict",
            "--data",
            str(workdir / "test.jsonl"),
            "--models",
            str(bundle),
            "--out",
            str(workdir / "never.jsonl"),
        ]
    )
    assert rc == 3, err
    assert "data error" in err
    assert "Traceback" not in err


def _stale_catalog_copy(workdir, artifacts, name):
    """A copy of the bundle whose manifest is current and whose `name` was
    built for another feature catalog."""
    bundle = workdir / f"stale_{name}"
    shutil.copytree(artifacts["models"], bundle, dirs_exist_ok=True)
    doc = json.loads((bundle / name).read_text())
    doc["feature_catalog_version"] = "stale-v0"
    (bundle / name).write_text(json.dumps(doc))
    return bundle


def _names_file_and_both_catalogs(err, path):
    assert f"{path} built for catalog 'stale-v0'" in err
    assert repr(FEATURE_CATALOG_VERSION) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["crf.json", "svm_angle.json"])
def test_stale_model_file_in_a_current_bundle_is_data_error(workdir, artifacts, name):
    bundle = _stale_catalog_copy(workdir, artifacts, name)
    rc, err = run_cli(
        [
            "predict",
            "--data",
            str(workdir / "test.jsonl"),
            "--models",
            str(bundle),
            "--out",
            str(workdir / "never.jsonl"),
        ]
    )
    assert rc == 3, err
    _names_file_and_both_catalogs(err, bundle / name)


def test_train_svm_on_a_stale_crf_is_data_error(workdir, artifacts):
    crf = _stale_catalog_copy(workdir, artifacts, "crf.json") / "crf.json"
    rc, err = run_cli(
        [
            "train-svm",
            "--task",
            "formation",
            "--train",
            str(workdir / "train.jsonl"),
            "--crf",
            str(crf),
            "--out",
            str(workdir / "never_svm.json"),
        ]
    )
    assert rc == 3, err
    _names_file_and_both_catalogs(err, crf)


class TestConvertEgoGroup:
    def test_convert_and_parse(self, workdir):
        ann = {
            "frames": [
                {
                    "frame": "0",
                    "width": 640,
                    "height": 480,
                    "people": [
                        {"id": "a", "keypoints": {"nose": [10, 10, 0.9]}},
                        {"id": "b", "keypoints": {"nose": [40, 10, 0.8]}},
                    ],
                    "groups": [["a"]],
                }
            ]
        }
        path = workdir / "ego.json"
        path.write_text(json.dumps(ann))
        rc = main(
            [
                "convert-ego-group",
                "--annotations",
                str(path),
                "--out",
                str(workdir / "ego.jsonl"),
            ]
        )
        assert rc == 0
        [scene] = load_scenes(workdir / "ego.jsonl")
        assert scene.truth.membership == ("G", "O")

    @pytest.mark.parametrize("tables, code", [("1", 0), ("1,2,3,4", 3)])
    def test_evaluate_needs_the_truth_its_tables_read(
        self, workdir, artifacts, tables, code
    ):
        people = [
            {"id": pid, "keypoints": {"nose": [x, 100, 0.9], "leftEye": [x + 5, 95, 0.9]}}
            for pid, x in (("a", 100), ("b", 250), ("c", 500))
        ]
        frame = {"frame": "0", "width": 640, "height": 480, "people": people}
        ann = {"frames": [{**frame, "groups": [["a", "b"]]}]}
        path = workdir / "ego_membership_only.json"
        path.write_text(json.dumps(ann))
        converted = workdir / "ego_membership_only.jsonl"
        rc = main(
            ["convert-ego-group", "--annotations", str(path), "--out", str(converted)]
        )
        assert rc == 0
        rc, err = run_cli(
            [
                "evaluate",
                "--test",
                str(converted),
                "--models",
                str(artifacts["models"]),
                "--tables",
                tables,
                "--out-dir",
                str(workdir / f"ego_reports_{code}"),
            ]
        )
        assert rc == code, err
        assert "Traceback" not in err
        if code:
            assert "data error: scene '0' lacks formation truth" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"frames": {"a": 1}},
            {"frames": ["x"]},
            {
                "frames": [
                    {
                        "frame": "0",
                        "width": 640,
                        "height": 480,
                        "people": [{"id": "a", "keypoints": [1, 2]}],
                    }
                ]
            },
        ],
        ids=["frames_an_object", "frame_a_string", "keypoints_a_list"],
    )
    def test_malformed_annotation_is_data_error(self, workdir, doc):
        path = workdir / "malformed_ego.json"
        path.write_text(json.dumps(doc))
        out = workdir / "malformed_ego.jsonl"
        rc = main(["convert-ego-group", "--annotations", str(path), "--out", str(out)])
        assert rc == 3

    def test_invalid_annotation_is_data_error(self, workdir):
        path = workdir / "bad_ego.json"
        path.write_text('{"frames": [{"frame": "x"}]}')
        rc = main(
            [
                "convert-ego-group",
                "--annotations",
                str(path),
                "--out",
                str(workdir / "bad_ego.jsonl"),
            ]
        )
        assert rc == 3


def _one_scene(workdir):
    return json.loads((workdir / "test.jsonl").read_text().splitlines()[0])


# Scene files `fformation predict` must refuse with exit 3: scene -> edit.
MALFORMED_SCENES = {
    "truth_is_a_list": lambda d: d.update(truth=["G", "O"]),
    "truth_is_a_string": lambda d: d.update(truth="G"),
    "angle_is_a_float": lambda d: d["truth"].update(angle_deg=30.0),
    "image_width_infinity": lambda d: d.update(image_width=float("inf")),
    "image_width_beyond_float_range": lambda d: d.update(image_width=10**400),
    "keypoint_x_beyond_float_range": lambda d: d["poses"][0]["keypoints"][0].update(
        x=10**400
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENES))
def test_malformed_scene_is_data_error(workdir, artifacts, case):
    doc = _one_scene(workdir)
    MALFORMED_SCENES[case](doc)
    data = workdir / f"malformed_scene_{case}.jsonl"
    data.write_text(json.dumps(doc) + "\n")  # Infinity is written as such
    rc, err = run_cli(
        [
            "predict",
            "--data",
            str(data),
            "--models",
            str(artifacts["models"]),
            "--out",
            str(workdir / "never.jsonl"),
        ]
    )
    assert rc == 3, err
    assert "data error" in err and "line 1" in err
    assert "Traceback" not in err
