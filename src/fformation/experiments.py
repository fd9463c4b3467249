"""Experiment drivers: table-style reports on synthetic or file data, plus a
single-threaded latency benchmark. All outputs are seeded and byte-stable:
reruns with the same configuration produce identical CSV/JSON files.
"""
from __future__ import annotations

import csv
import logging
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import crf as crf_mod
from . import svm as svm_mod
from .errors import ConfigError, DataError
from .metrics import report, report_to_dict
from .pipeline import (
    ANGLE_CLASSES,
    HEADS,
    JOINT_CLASSES,
    Detection,
    ModelBundle,
    build_crf_chains,
    detect,
    detect_many,
    joint_class,
    load_models,
    parse_joint_class,
    rule_classify,
    save_models,
    training_rows,
)
from .pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    GROUP_LABELS,
    Scene,
    load_scenes,
    require_truth,
    write_json,
)
from .synth import SynthConfig, generate_dataset, split_train_test

NONE_CLASS = "(none)"
LATENCY_WARMUP = 5  # detect() calls before timing starts
LATENCY_REPETITIONS = 3
LATENCY_MIN_SCENES = 100

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SynthSpec:
    """Grid of (formation x angle) cells rendered count_per_cell times each."""

    count_per_cell: int = 100
    formations: tuple[str, ...] = FORMATIONS
    angles: tuple[int, ...] = APPROACH_ANGLES
    outlier_fraction: float = 0.5
    distance_m: tuple[float, float] = SynthConfig.distance_m
    image_width: int = SynthConfig.image_width
    image_height: int = SynthConfig.image_height
    noise_px: float = SynthConfig.noise_px
    formation_scale: float | None = SynthConfig.formation_scale
    angle_jitter_deg: float = SynthConfig.angle_jitter_deg
    scale_jitter: float = SynthConfig.scale_jitter
    seed: int = 0

    def __post_init__(self):
        if self.count_per_cell < 1:
            raise ValueError(
                f"count_per_cell must be at least 1, got {self.count_per_cell}"
            )
        if not (self.formations and self.angles):
            raise ValueError("the formation and angle lists must not be empty")
        if not 0 <= self.outlier_fraction <= 1:
            raise ValueError(
                f"outlier_fraction must be in [0, 1], got {self.outlier_fraction}"
            )

    def configs(self) -> list[tuple[SynthConfig, int]]:
        """Per-cell configs; the outlier fraction becomes a second config.

        Config base seeds are spaced so per-scene derived seeds never collide.
        """
        specs = []
        stride = 10 * self.count_per_cell + 1000
        cell = 0
        for formation in self.formations:
            for angle in self.angles:
                n_out = int(round(self.outlier_fraction * self.count_per_cell))
                n_plain = self.count_per_cell - n_out
                base = self.seed + cell * stride
                common = dict(
                    formation=formation,
                    angle_deg=angle,
                    distance_m=self.distance_m,
                    image_width=self.image_width,
                    image_height=self.image_height,
                    noise_px=self.noise_px,
                    formation_scale=self.formation_scale,
                    angle_jitter_deg=self.angle_jitter_deg,
                    scale_jitter=self.scale_jitter,
                )
                if n_plain > 0:
                    specs.append(
                        (SynthConfig(**common, outlier_count=0, seed=base), n_plain)
                    )
                if n_out > 0:
                    specs.append(
                        (
                            SynthConfig(
                                **common,
                                outlier_count=1,
                                seed=base + 5 * self.count_per_cell,
                            ),
                            n_out,
                        )
                    )
                cell += 1
        return specs


@dataclass(frozen=True)
class TrainingConfig:
    crf_l2: float = crf_mod.CrfTrainConfig.l2
    crf_max_iters: int = crf_mod.CrfTrainConfig.max_iters
    crf_tol: float = crf_mod.CrfTrainConfig.tol
    svm_c: float = svm_mod.DEFAULT_C
    svm_gamma: float | str = svm_mod.DEFAULT_GAMMA  # a float, or "auto" for CV selection
    svm_tol: float = svm_mod.DEFAULT_TOL


@dataclass(frozen=True)
class ExperimentConfig:
    out_dir: str
    tables: tuple[int, ...] = (1, 2, 3, 4)
    synth: SynthSpec | None = None
    train_path: str | None = None
    test_path: str | None = None
    models_dir: str | None = None
    save_models_dir: str | None = None
    training: TrainingConfig = field(default_factory=TrainingConfig)
    seed: int = 0


def train_crf(
    train_scenes: list[Scene], training: TrainingConfig
) -> tuple[list[tuple[np.ndarray, np.ndarray]], crf_mod.CrfTrainResult]:
    """The scenes' CRF training blocks (build_crf_chains) and the CRF trained
    on them; warns if unconverged."""
    blocks = build_crf_chains(train_scenes)
    config = crf_mod.CrfTrainConfig(
        l2=training.crf_l2, max_iters=training.crf_max_iters, tol=training.crf_tol
    )
    result = crf_mod.train(blocks, config)  # positional: the benchmark's tracer reads args
    if not result.converged:
        logger.warning(
            "CRF training stopped unconverged after %d Newton steps "
            "(gradient inf-norm %.3e, tol %g)",
            result.n_iters,
            result.final_grad_inf_norm,
            training.crf_tol,
        )
    return blocks, result


def train_heads(
    X: np.ndarray, truths, heads, training: TrainingConfig, seed: int = 0
) -> dict[str, svm_mod.SvmModel]:
    """One SVM per head named in `heads` (keys of HEADS), trained on the
    group rows X and their scenes' truths, training_rows(...).

    A head one of whose classes has no row is a DataError before any SVM
    trains. Every head trains with one gamma: the fixed one, or for "auto"
    svm.select_gamma's choice on the first head's training set.
    """
    data = {}
    for head in heads:
        build, classes, _, _ = HEADS[head]
        data[head] = build(X, truths)
        present = set(data[head][1].tolist())
        missing = [c for c in classes if c not in present]
        if missing:
            raise DataError(f"the {head} training data has no sample of {missing}")
    if training.svm_gamma == "auto":
        gamma = svm_mod.select_gamma(
            *data[heads[0]], C=training.svm_c, tol=training.svm_tol, seed=seed
        )
    else:
        gamma = float(training.svm_gamma)
    return {
        head: svm_mod.train_one_vs_rest(
            Xh, y, HEADS[head][1], C=training.svm_c, gamma=gamma, tol=training.svm_tol
        )
        for head, (Xh, y) in data.items()
    }


def train_bundle(
    train_scenes: list[Scene], training: TrainingConfig, seed: int = 0
) -> ModelBundle:
    """Train the CRF, then the three SVMs on CRF-filtered groups.

    Feeding the classifiers the same filtered person sets they will see at
    detection time makes them robust to the filter's residual mistakes.
    """
    _, crf_result = train_crf(train_scenes, training)
    fields = dict.fromkeys(f for *_, head_fields in HEADS.values() for f in head_fields)
    X, truths = training_rows(train_scenes, crf_result.model, tuple(fields))
    svms = train_heads(X, truths, tuple(HEADS), training, seed)
    return ModelBundle(
        crf=crf_result.model,
        **{f"{head}_svm": model for head, model in svms.items()},
        crf_training={
            "converged": crf_result.converged,
            "n_iters": crf_result.n_iters,
            "final_grad_inf_norm": crf_result.final_grad_inf_norm,
            "final_loss": crf_result.final_loss,
        },
    )


# ---------------------------------------------------------------------------
# Table builders. Each reads the scenes' detections and rule-baseline
# formations from `_decode_scenes` and returns (csv_rows, json_payload); rows
# are written in a fixed column order so reruns diff cleanly.


def _decode_scenes(scenes, bundle) -> tuple[list[Detection], list[str | None]]:
    """Every head of the detector, and the rule baseline, once per scene.

    The rule baseline's formation is None where it names none or the scene
    has fewer than two poses.
    """
    detections = detect_many(
        scenes,
        bundle.crf,
        bundle.formation_svm,
        bundle.angle_svm,
        joint_svm=bundle.joint_svm,
    )
    rules = [
        rule_classify(scene).formation if len(scene.poses) >= 2 else None
        for scene in scenes
    ]
    return detections, rules


def _report_rows(first_column, rep, classes, rule=None) -> list[list]:
    """Header, one row per class of `classes` and the weighted_avg row of a
    report. `rule`, when given, is the rule baseline's report over the same
    classes: one more column, its recall per class and its accuracy."""
    rows = [[first_column, "precision", "recall", "f1", "support"]]
    for c in classes:
        pc = rep.per_class(c)
        rows.append([c, pc["precision"], pc["recall"], pc["f1"], pc["support"]])
    rows.append(
        [
            "weighted_avg",
            rep.weighted_precision,
            rep.weighted_recall,
            rep.weighted_f1,
            int(rep.support.sum()),
        ]
    )
    for row in rows[1:]:
        row[1:4] = [f"{v:.6f}" for v in row[1:4]]
    if rule is not None:
        rows[0].append("rule_accuracy")
        values = [rule.per_class(c)["recall"] for c in classes] + [rule.accuracy]
        for row, value in zip(rows[1:], values, strict=True):
            row.append(f"{value:.6f}")
    return rows


def membership_table(scenes, detections, rules) -> tuple[list[list], dict]:
    gold, pred = [], []
    for scene, det in zip(scenes, detections):
        gold.extend(scene.truth.membership)
        pred.extend(det.membership)
    rep = report(gold, pred, GROUP_LABELS)
    rows = _report_rows("class", rep, GROUP_LABELS)
    return rows, {"report": report_to_dict(rep)}


def formation_table(scenes, detections, rules) -> tuple[list[list], dict]:
    gold = [s.truth.formation for s in scenes]
    learned = [d.formation if d.formation is not None else NONE_CLASS for d in detections]
    rule = [r if r is not None else NONE_CLASS for r in rules]
    classes = FORMATIONS + (NONE_CLASS,)
    rep = report(gold, learned, classes)
    rule_rep = report(gold, rule, classes)
    rows = _report_rows("formation", rep, FORMATIONS, rule_rep)
    payload = {"report": report_to_dict(rep), "rule_accuracy_overall": rule_rep.accuracy}
    return rows, payload


def angle_table(scenes, detections, rules) -> tuple[list[list], dict]:
    gold = [str(s.truth.angle_deg) for s in scenes]
    pred = [str(d.angle_deg) if d.angle_deg is not None else NONE_CLASS for d in detections]
    rep = report(gold, pred, ANGLE_CLASSES + (NONE_CLASS,))
    return _report_rows("angle_deg", rep, ANGLE_CLASSES), {"report": report_to_dict(rep)}


def joint_table(scenes, detections, rules) -> tuple[list[list], dict]:
    """28 rows of (formation, angle): learned joint accuracy vs rule accuracy.

    Each column is one report over the joint classes: a cell's accuracy is
    its class's recall, the average row the report's accuracy. The rule
    baseline predicts only the formation, so its prediction pairs that
    formation with the scene's own angle and its column scores formation
    correctness within each cell, as in the compared system.
    """
    gold = [joint_class(s.truth.formation, s.truth.angle_deg) for s in scenes]
    learned = [joint_class(*d.joint) if d.joint is not None else NONE_CLASS for d in detections]
    rule = [
        joint_class(r, s.truth.angle_deg) if r is not None else NONE_CLASS
        for s, r in zip(scenes, rules)
    ]
    classes = JOINT_CLASSES + (NONE_CLASS,)
    learned_rep = report(gold, learned, classes)
    rule_rep = report(gold, rule, classes)
    rows = [["formation", "angle_deg", "n", "learned_accuracy", "rule_accuracy"]]
    cells = {}
    for cls in JOINT_CLASSES:
        pc = learned_rep.per_class(cls)
        n, l_acc, r_acc = pc["support"], pc["recall"], rule_rep.per_class(cls)["recall"]
        rows.append([*parse_joint_class(cls), n, f"{l_acc:.6f}", f"{r_acc:.6f}"])
        cells[cls] = {"n": n, "learned_accuracy": l_acc, "rule_accuracy": r_acc}
    l_avg, r_avg = learned_rep.accuracy, rule_rep.accuracy
    n_total = int(learned_rep.support.sum())
    rows.append(["average", "", n_total, f"{l_avg:.6f}", f"{r_avg:.6f}"])
    payload = {
        "cells": cells,
        "learned_accuracy_avg": l_avg,
        "rule_accuracy_avg": r_avg,
    }
    return rows, payload


# Table number -> (output stem, builder, the truth fields it reads).
_TABLE_BUILDERS = {
    1: ("table1_membership", membership_table, ("membership",)),
    2: ("table2_formation", formation_table, ("formation",)),
    3: ("table3_angle", angle_table, ("angle_deg",)),
    4: ("table4_joint", joint_table, ("formation", "angle_deg")),
}


def _write_outputs(out_dir, stem, rows, payload, seed) -> dict:
    csv_path = os.path.join(out_dir, stem + ".csv")
    json_path = os.path.join(out_dir, stem + ".json")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerows(rows)
    write_json(json_path, {"seed": seed, **payload}, indent=1, sort_keys=True)
    return {"csv": csv_path, "json": json_path}


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Generate/load data, train/load models, and emit the requested tables.

    Returns a dict of written file paths per table, plus 'meta'.
    """
    bad_tables = [t for t in cfg.tables if t not in _TABLE_BUILDERS]
    if bad_tables:
        raise ConfigError(f"unknown tables requested: {bad_tables}")
    if not cfg.tables or len(set(cfg.tables)) < len(cfg.tables):
        raise ConfigError(f"name each table once, at least one: got {list(cfg.tables)}")
    if cfg.models_dir is not None and cfg.save_models_dir is not None:
        raise ConfigError(
            "models_dir loads a bundle and save_models_dir saves a trained one: "
            "give one, not both"
        )
    if cfg.synth is not None:
        scenes = generate_dataset(cfg.synth.configs(), shuffle_seed=cfg.synth.seed)
        train_scenes, test_scenes = split_train_test(scenes, seed=cfg.synth.seed)
    elif cfg.test_path is not None:
        test_scenes = load_scenes(cfg.test_path)
        train_scenes = load_scenes(cfg.train_path) if cfg.train_path else []
    else:
        raise ConfigError("experiment needs either a synthetic spec or a test path")
    if not test_scenes:
        raise DataError("the test set holds no scenes")
    require_truth(
        test_scenes, dict.fromkeys(f for t in cfg.tables for f in _TABLE_BUILDERS[t][2])
    )

    if cfg.models_dir is not None:
        bundle = load_models(cfg.models_dir)
    else:
        if not train_scenes:
            raise ConfigError("no models_dir given and no training data available")
        bundle = train_bundle(train_scenes, cfg.training, seed=cfg.seed)
        if cfg.save_models_dir:
            save_models(bundle, cfg.save_models_dir)

    os.makedirs(cfg.out_dir, exist_ok=True)
    detections, rules = _decode_scenes(test_scenes, bundle)
    outputs = {}
    for t in cfg.tables:
        stem, builder, _ = _TABLE_BUILDERS[t]
        rows, payload = builder(test_scenes, detections, rules)
        outputs[stem] = _write_outputs(cfg.out_dir, stem, rows, payload, cfg.seed)

    meta = {
        "seed": cfg.seed,
        "tables": list(cfg.tables),
        "n_train_scenes": len(train_scenes),
        "n_test_scenes": len(test_scenes),
        # A loaded bundle was not trained here: its manifest says how it was.
        "training": asdict(cfg.training) if cfg.models_dir is None else None,
        "synth": asdict(cfg.synth) if cfg.synth is not None else None,
    }
    meta_path = os.path.join(cfg.out_dir, "meta.json")
    write_json(meta_path, meta, indent=1, sort_keys=True)
    outputs["meta"] = meta_path
    return outputs


# ---------------------------------------------------------------------------
# Latency benchmark.


@dataclass(frozen=True)
class LatencyStats:
    n_measurements: int
    p50_ms: float
    p95_ms: float
    max_ms: float
    stages_ms: dict  # stage -> {"p50": ..., "p95": ..., "max": ...}
    # Whether the process ran one OS thread after the timed loop, so BLAS
    # started no threads of its own (pin it with OPENBLAS_NUM_THREADS=1 and
    # OMP_NUM_THREADS=1 before numpy loads); None where /proc/self/task,
    # which lists the threads, is missing.
    blas_threads_limited: bool | None


def bench_latency(
    bundle: ModelBundle, scenes: list[Scene], repetitions: int = LATENCY_REPETITIONS
) -> LatencyStats:
    """Single-threaded timing of detect(), I/O excluded, warmup excluded."""
    if len(scenes) < LATENCY_MIN_SCENES:
        raise ValueError(f"latency benchmark needs at least {LATENCY_MIN_SCENES} scenes")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")

    for scene in scenes[:LATENCY_WARMUP]:
        detect(scene, bundle.crf, bundle.formation_svm, bundle.angle_svm)
    totals = []
    stages = {"features": [], "crf": [], "svm": []}
    for _ in range(repetitions):
        for scene in scenes:
            timings: dict = {}
            t0 = time.perf_counter()
            detect(
                scene,
                bundle.crf,
                bundle.formation_svm,
                bundle.angle_svm,
                timings=timings,
            )
            totals.append(time.perf_counter() - t0)
            for key in stages:
                stages[key].append(timings[key])
    try:
        limited = len(os.listdir("/proc/self/task")) == 1
    except FileNotFoundError:
        limited = None

    totals_ms = np.array(totals) * 1e3
    stage_stats = {
        key: {
            "p50": float(np.percentile(np.array(vals) * 1e3, 50)),
            "p95": float(np.percentile(np.array(vals) * 1e3, 95)),
            "max": float(np.max(np.array(vals) * 1e3)),
        }
        for key, vals in stages.items()
    }
    return LatencyStats(
        n_measurements=len(totals),
        p50_ms=float(np.percentile(totals_ms, 50)),
        p95_ms=float(np.percentile(totals_ms, 95)),
        max_ms=float(np.max(totals_ms)),
        stages_ms=stage_stats,
        blas_threads_limited=limited,
    )
