import csv
import json
import logging
import os
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from fformation import crf as crf_mod
from fformation import experiments, pipeline
from fformation.errors import ConfigError, DataError
from fformation.experiments import (
    LATENCY_MIN_SCENES,
    NONE_CLASS,
    ExperimentConfig,
    SynthSpec,
    TrainingConfig,
    bench_latency,
    formation_table,
    joint_table,
    run_experiment,
    train_bundle,
    train_heads,
)
from fformation.pipeline import (
    HEADS,
    JOINT_CLASSES,
    Detection,
    build_angle_data,
    build_formation_data,
    joint_class,
    parse_joint_class,
    save_models,
    training_rows,
)
from fformation.pose import APPROACH_ANGLES, FORMATIONS, SceneTruth, save_scenes
from fformation.synth import SynthConfig, render_scene

from conftest import make_scene


class TestSynthSpec:
    def test_total_count(self):
        spec = SynthSpec(count_per_cell=10, outlier_fraction=0.5, seed=0)
        configs = spec.configs()
        assert sum(c for _, c in configs) == 10 * 28

    def test_outlier_fraction_split(self):
        spec = SynthSpec(count_per_cell=10, outlier_fraction=0.3, seed=0)
        for cfg, count in spec.configs():
            if cfg.outlier_count:
                assert count == 3
            else:
                assert count == 7

    @pytest.mark.parametrize("field", ["formations", "angles"])
    def test_empty_cell_list_rejected(self, field):
        with pytest.raises(ValueError, match="must not be empty"):
            SynthSpec(**{field: ()})

    def test_config_seeds_do_not_collide(self):
        spec = SynthSpec(count_per_cell=50, seed=0)
        ranges = []
        for cfg, count in spec.configs():
            ranges.append((cfg.seed, cfg.seed + count))
        ranges.sort()
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 <= b0


@pytest.fixture(scope="module")
def tiny_experiment(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("reports")
    cfg = ExperimentConfig(
        out_dir=str(out_dir),
        synth=SynthSpec(count_per_cell=5, seed=3),
        training=TrainingConfig(crf_max_iters=800),
        seed=3,
    )
    outputs = run_experiment(cfg)
    return cfg, outputs


class TestRunExperiment:
    def test_all_tables_written(self, tiny_experiment):
        _, outputs = tiny_experiment
        for stem in (
            "table1_membership",
            "table2_formation",
            "table3_angle",
            "table4_joint",
        ):
            assert os.path.exists(outputs[stem]["csv"])
            assert os.path.exists(outputs[stem]["json"])
        assert os.path.exists(outputs["meta"])

    def test_table4_has_28_rows_plus_average(self, tiny_experiment):
        _, outputs = tiny_experiment
        with open(outputs["table4_joint"]["csv"]) as fp:
            rows = list(csv.reader(fp))
        assert len(rows) == 1 + 28 + 1  # header, 28 cells, average
        assert rows[-1][0] == "average"

    def test_seed_recorded_in_json(self, tiny_experiment):
        cfg, outputs = tiny_experiment
        doc = json.loads(open(outputs["table1_membership"]["json"]).read())
        assert doc["seed"] == cfg.seed

    def test_rerun_is_byte_identical(self, tiny_experiment, tmp_path):
        cfg, outputs = tiny_experiment
        cfg2 = ExperimentConfig(
            out_dir=str(tmp_path / "again"),
            synth=cfg.synth,
            training=cfg.training,
            seed=cfg.seed,
        )
        outputs2 = run_experiment(cfg2)
        for stem in outputs:
            if stem == "meta":
                continue
            a = open(outputs[stem]["csv"], "rb").read()
            b = open(outputs2[stem]["csv"], "rb").read()
            assert a == b

    def test_unknown_table_rejected(self, tmp_path):
        cfg = ExperimentConfig(
            out_dir=str(tmp_path), tables=(9,), synth=SynthSpec(count_per_cell=5)
        )
        with pytest.raises(ConfigError, match="unknown tables"):
            run_experiment(cfg)

    def test_no_data_rejected(self, tmp_path):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_file_paths_mode(self, tiny_experiment, tmp_path, mini):
        train_path = tmp_path / "train.jsonl"
        test_path = tmp_path / "test.jsonl"
        save_scenes(mini.train_scenes[:120], train_path)
        save_scenes(mini.test_scenes[:40], test_path)
        cfg = ExperimentConfig(
            out_dir=str(tmp_path / "rep"),
            tables=(1,),
            train_path=str(train_path),
            test_path=str(test_path),
            training=TrainingConfig(crf_max_iters=300),
            seed=1,
        )
        outputs = run_experiment(cfg)
        assert os.path.exists(outputs["table1_membership"]["csv"])


def counted_rule_column(scenes, rules):
    """Table 2's rule column, counted scene by scene: its accuracy on each
    formation's scenes, then on all scenes."""
    gold = [s.truth.formation for s in scenes]
    rule = [r if r is not None else NONE_CLASS for r in rules]
    rule_acc = []
    for c in FORMATIONS:
        in_class = [i for i, g in enumerate(gold) if g == c]
        rule_acc.append(
            float(np.mean([rule[i] == c for i in in_class])) if in_class else 0.0
        )
    rule_overall = float(np.mean([r == g for r, g in zip(rule, gold)]))
    return rule_acc, rule_overall


def counted_joint_table(scenes, detections, rules):
    """Table 4 counted cell by cell: hits over scenes per (formation, angle)
    cell, the rule scored on the formation alone."""
    by_cell: dict[str, list[int]] = {c: [] for c in JOINT_CLASSES}
    for i, scene in enumerate(scenes):
        by_cell[joint_class(scene.truth.formation, scene.truth.angle_deg)].append(i)
    rows = [["formation", "angle_deg", "n", "learned_accuracy", "rule_accuracy"]]
    cells = {}
    total_n = 0
    learned_hits = 0.0
    rule_hits = 0.0
    for cls in JOINT_CLASSES:
        formation, angle = parse_joint_class(cls)
        cell = by_cell[cls]
        n = len(cell)
        l_ok = sum(detections[i].joint == (formation, angle) for i in cell)
        r_ok = sum(rules[i] == formation for i in cell)
        l_acc = l_ok / n if n else 0.0
        r_acc = r_ok / n if n else 0.0
        rows.append([formation, angle, n, f"{l_acc:.6f}", f"{r_acc:.6f}"])
        cells[cls] = {"n": n, "learned_accuracy": l_acc, "rule_accuracy": r_acc}
        total_n += n
        learned_hits += l_ok
        rule_hits += r_ok
    l_avg = learned_hits / total_n
    r_avg = rule_hits / total_n
    rows.append(["average", "", total_n, f"{l_avg:.6f}", f"{r_avg:.6f}"])
    payload = {"cells": cells, "learned_accuracy_avg": l_avg, "rule_accuracy_avg": r_avg}
    return rows, payload


def hand_built_outcomes(n=90, seed=11):
    """Scenes over half the joint cells, so the rest have no scene, with
    detections and rule formations drawn at random: right, wrong or None."""
    rng = np.random.default_rng(seed)
    cells = [parse_joint_class(c) for c in JOINT_CLASSES[::2]]
    scenes, detections, rules = [], [], []
    for i in range(n):
        formation, angle = cells[rng.integers(len(cells))]
        truth = SceneTruth(formation=formation, angle_deg=angle)
        scenes.append(make_scene([], frame_id=f"f{i}", truth=truth))
        guess = (str(rng.choice(FORMATIONS)), int(rng.choice(APPROACH_ANGLES)))
        joint = [None, guess, (formation, angle)][rng.integers(3)]
        detected = [None, guess[0], formation][rng.integers(3)]
        detections.append(Detection(f"f{i}", (), formation=detected, joint=joint))
        rules.append([None, guess[0], formation][rng.integers(3)])
    assert None in rules
    assert None in [d.formation for d in detections]
    assert None in [d.joint for d in detections]
    return scenes, detections, rules


class TestTablesMatchCounting:
    """Every rule and joint number of tables 2 and 4 equals the count it
    stands for, on real detections and on hand-built ones with None
    formations and joints and empty cells."""

    @pytest.fixture(scope="class")
    def outcomes(self, mini):
        detections, rules = experiments._decode_scenes(mini.test_scenes, mini.bundle)
        return {
            "mini": (mini.test_scenes, detections, rules),
            "hand_built": hand_built_outcomes(),
        }

    @pytest.mark.parametrize("case", ["mini", "hand_built"])
    def test_formation_rule_column(self, outcomes, case):
        scenes, detections, rules = outcomes[case]
        rows, payload = formation_table(scenes, detections, rules)
        rule_acc, rule_overall = counted_rule_column(scenes, rules)
        assert rows[0][-1] == "rule_accuracy"
        assert [row[-1] for row in rows[1:]] == [
            f"{v:.6f}" for v in [*rule_acc, rule_overall]
        ]
        assert payload["rule_accuracy_overall"] == rule_overall

    @pytest.mark.parametrize("case", ["mini", "hand_built"])
    def test_joint_table(self, outcomes, case):
        scenes, detections, rules = outcomes[case]
        rows, payload = joint_table(scenes, detections, rules)
        want_rows, want = counted_joint_table(scenes, detections, rules)
        assert payload == want  # every cell's n and accuracies, both averages
        assert rows == want_rows


@pytest.fixture(scope="module")
def scenes():
    return [
        render_scene(
            SynthConfig(
                formation="triangle",
                angle_deg=0,
                outlier_count=i % 2,
                seed=50_000 + i,
            )
        )
        for i in range(110)
    ]


class TestTrainBundle:
    def test_unconverged_crf_is_logged_and_recorded(self, mini, caplog):
        with caplog.at_level(logging.WARNING, logger="fformation.experiments"):
            bundle = train_bundle(
                mini.train_scenes, TrainingConfig(crf_max_iters=1), seed=2024
            )
        record = bundle.crf_training
        assert record["converged"] is False
        assert record["n_iters"] == 1
        assert record["final_grad_inf_norm"] > 1e-4
        assert any("unconverged" in r.getMessage() for r in caplog.records)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_decodes(monkeypatch):
    """Wrap crf.decode_batch; returns the list of (chains, length, marginals)
    of its calls."""
    calls = []
    fn = crf_mod.decode_batch

    def counted(model, features, *, marginals=False):
        calls.append((features.shape[0], features.shape[1], marginals))
        return fn(model, features, marginals=marginals)

    monkeypatch.setattr(crf_mod, "decode_batch", counted)
    return calls


class TestDecodesOncePerScene:
    def test_run_experiment_decodes_each_test_scene_once(
        self, mini, tmp_path, monkeypatch
    ):
        models = tmp_path / "models"
        save_models(mini.bundle, models)
        base = mini.test_scenes[:30]
        one = base[0]
        edge_cases = [
            replace(
                one,
                frame_id="solo",
                poses=one.poses[:1],
                truth=replace(one.truth, membership=one.truth.membership[:1]),
            ),
            replace(
                one, frame_id="empty", poses=(), truth=replace(one.truth, membership=())
            ),
        ]
        scenes = base + edge_cases
        test_path = tmp_path / "test.jsonl"
        save_scenes(scenes, test_path)
        decodes = count_decodes(monkeypatch)
        rule = count_calls(monkeypatch, experiments, "rule_classify")
        run_experiment(
            ExperimentConfig(
                out_dir=str(tmp_path / "rep"),
                test_path=str(test_path),
                models_dir=str(models),
            )
        )
        with_poses = sum(1 for s in scenes if s.poses)
        assert sum(b for b, _, _ in decodes) == with_poses == len(base) + 1
        # one batched decode per chain length, marginals included
        lengths = {len(s.poses) for s in scenes if s.poses}
        assert sorted(n for _, n, _ in decodes) == sorted(lengths)
        assert all(marginals for _, _, marginals in decodes)
        assert len(rule) == sum(1 for s in scenes if len(s.poses) >= 2) == len(base)

    def test_train_bundle_decodes_each_training_scene_once(self, mini, monkeypatch):
        scenes = mini.train_scenes[:150]
        decodes = count_decodes(monkeypatch)
        built = []
        stacked = pipeline.stacked_chain_features

        def counted(points, anchors, widths):
            built.append(len(anchors))
            return stacked(points, anchors, widths)

        monkeypatch.setattr(pipeline, "stacked_chain_features", counted)
        train_bundle(scenes, TrainingConfig(crf_max_iters=40), seed=5)
        assert sum(b for b, _, _ in decodes) == len(scenes)
        assert len(decodes) == len({len(s.poses) for s in scenes})
        assert not any(marginals for _, _, marginals in decodes)  # Viterbi only
        # each chain's features: once for CRF training, once for the groups
        assert sum(built) == 2 * len(scenes)


class TestTrainHeads:
    def test_train_bundle_builds_the_group_rows_once(self, mini, monkeypatch):
        built = count_calls(monkeypatch, pipeline, "stacked_group_features")
        train_bundle(mini.train_scenes, TrainingConfig(crf_max_iters=40), seed=5)
        assert len(built) == 1

    def test_fixed_gamma_trains_every_head_without_a_search(self, mini, monkeypatch):
        monkeypatch.setattr(experiments.svm_mod, "select_gamma", None)
        X, truths = training_rows(mini.train_scenes, None, ("formation", "angle_deg"))
        training = TrainingConfig(svm_gamma=0.25)
        svms = train_heads(X, truths, tuple(HEADS), training, 7)
        assert {m.gamma for m in svms.values()} == {0.25}

    def test_gamma_is_selected_on_the_first_heads_rows(self, mini, monkeypatch):
        training = TrainingConfig(svm_gamma="auto")

        # A cheap stand-in for the CV search that tells the heads' sets apart
        def stand_in(X, y, C, tol, seed):
            assert (C, tol, seed) == (training.svm_c, training.svm_tol, 7)
            return len(set(y)) / 100

        monkeypatch.setattr(experiments.svm_mod, "select_gamma", stand_in)
        scenes = mini.train_scenes
        X, truths = training_rows(scenes, mini.bundle.crf, ("formation", "angle_deg"))
        want = {
            "formation": len(set(build_formation_data(X, truths)[1])) / 100,
            "angle": len(set(build_angle_data(X, truths)[1])) / 100,
        }
        assert want["formation"] != want["angle"]
        [angle] = train_heads(X, truths, ("angle",), training, 7).values()
        assert angle.gamma == want["angle"]
        svms = train_heads(X, truths, tuple(HEADS), training, 7)
        assert {m.gamma for m in svms.values()} == {want["formation"]}

    def test_missing_class_is_reported_before_any_svm_trains(self, mini, monkeypatch):
        scenes = [s for s in mini.train_scenes if s.truth.angle_deg != 0]
        X, truths = training_rows(scenes, None, ("formation", "angle_deg"))
        trained = count_calls(monkeypatch, experiments.svm_mod, "train_one_vs_rest")
        with pytest.raises(DataError, match=r"the angle training data has no sample of \['0'\]"):
            train_heads(X, truths, tuple(HEADS), TrainingConfig(), 0)
        assert trained == []


def interleaved_ratio(run_a, run_b, rounds=5):
    """Median over rounds of p50(a) / p50(b), the two measured back to back
    in alternating order (a b, b a, a b, ...). Each ratio compares both
    sides under one host speed, however much that speed drifts between
    rounds."""
    ratios = []
    for i in range(rounds):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        p50 = [0.0, 0.0]
        for side in order:
            p50[side] = (run_a, run_b)[side]().p50_ms
        ratios.append(p50[0] / p50[1])
    return float(np.median(ratios))


class TestBenchLatency:

    def test_fewer_than_the_minimum_rejected(self, mini, scenes):
        assert len(scenes) >= LATENCY_MIN_SCENES
        with pytest.raises(ValueError, match=f"at least {LATENCY_MIN_SCENES} scenes"):
            bench_latency(mini.bundle, scenes[: LATENCY_MIN_SCENES - 1])

    def test_percentiles_are_monotone(self, mini, scenes):
        stats = bench_latency(mini.bundle, scenes, repetitions=1)
        assert stats.p50_ms <= stats.p95_ms <= stats.max_ms
        for s in stats.stages_ms.values():
            assert s["p50"] <= s["p95"] <= s["max"]

    def test_stage_sum_does_not_exceed_total(self, mini, scenes):
        stats = bench_latency(mini.bundle, scenes, repetitions=1)
        stage_p50_sum = sum(s["p50"] for s in stats.stages_ms.values())
        # per-scene stage times nest inside the total; medians can cross a
        # little, so allow a small resolution slack
        assert stage_p50_sum <= stats.p50_ms * 1.10 + 0.1

    def test_repetitions_scale_measurement_count(self, mini, scenes):
        stats = bench_latency(mini.bundle, scenes, repetitions=2)
        assert stats.n_measurements == 2 * len(scenes)

    def test_p50_stable_across_repetition_counts(self, mini, scenes):
        ratio = interleaved_ratio(
            lambda: bench_latency(mini.bundle, scenes, repetitions=1),
            lambda: bench_latency(mini.bundle, scenes, repetitions=2),
        )
        # |a - b| <= 0.2 max(a, b)
        assert min(ratio, 1 / ratio) >= 0.8

    def test_p50_stable_when_scene_count_doubles(self, mini, scenes):
        ratio = interleaved_ratio(
            lambda: bench_latency(mini.bundle, scenes, repetitions=1),
            lambda: bench_latency(mini.bundle, scenes + scenes, repetitions=1),
        )
        assert min(ratio, 1 / ratio) >= 0.8

    def test_bench_pinned_to_one_thread_reports_it(self, mini, scenes, tmp_path):
        save_models(mini.bundle, tmp_path / "models")
        save_scenes(scenes, tmp_path / "scenes.jsonl")
        src = os.path.dirname(os.path.dirname(pipeline.__file__))
        env = {
            **os.environ,
            "PYTHONPATH": src,
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
        out = tmp_path / "bench.json"
        subprocess.run(
            [
                sys.executable, "-m", "fformation.cli", "bench",
                "--data", str(tmp_path / "scenes.jsonl"),
                "--models", str(tmp_path / "models"),
                "--repetitions", "1", "--out", str(out),
            ],
            env=env,
            check=True,
            capture_output=True,
        )
        assert json.loads(out.read_text())["blas_threads_limited"] is True

    def test_requires_100_scenes(self, mini, scenes):
        with pytest.raises(ValueError, match="100"):
            bench_latency(mini.bundle, scenes[:50], repetitions=1)

    def test_stats_serializable(self, mini, scenes):
        stats = bench_latency(mini.bundle, scenes, repetitions=1)
        doc = asdict(stats)
        json.dumps(doc)
        assert set(doc["stages_ms"]) == {"features", "crf", "svm"}
