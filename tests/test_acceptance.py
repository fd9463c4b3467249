"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. The synthetic corpus, models, and all seeds are frozen.
"""
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from fformation import crf as crf_mod
from fformation import svm as svm_mod
from fformation.experiments import (
    SynthSpec,
    TrainingConfig,
    bench_latency,
    train_bundle,
)
from fformation.features import F_NODE
from fformation.metrics import report
from fformation.pipeline import build_crf_chains, detect, rule_classify
from fformation.pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    GROUP_LABELS,
    OUTLIER,
)
from fformation.synth import SynthConfig, generate_dataset, render_scene, split_train_test

from test_crf import brute_force, random_instance, random_model

SEED = 0
ANGLE_CLASS_NAMES = tuple(str(a) for a in APPROACH_ANGLES)
NONE_CLASS = "(none)"


@pytest.fixture
def verdict(capsys):
    """Print one PASS/FAIL line per criterion straight to the terminal."""

    def _verdict(criterion, ok, detail):
        with capsys.disabled():
            print(
                f"ACCEPTANCE CRITERION {criterion}: "
                f"{'PASS' if ok else 'FAIL'} - {detail}"
            )
        assert ok, f"criterion {criterion} failed: {detail}"

    return _verdict


class World:
    """The criterion-4 corpus and models, built once and timed."""

    def __init__(self):
        t0 = time.perf_counter()
        spec = SynthSpec(count_per_cell=100, seed=SEED)
        scenes = generate_dataset(spec.configs(), shuffle_seed=SEED)
        self.train_scenes, self.test_scenes = split_train_test(scenes, seed=SEED)
        t1 = time.perf_counter()
        self.bundle = train_bundle(self.train_scenes, TrainingConfig(), seed=SEED)
        t2 = time.perf_counter()

        self.gold_membership, self.pred_membership = [], []
        self.gold_formation, self.pred_formation = [], []
        self.gold_angle, self.pred_angle = [], []
        self.joint_hits_by_cell = {}
        self.rule_hits_by_cell = {}
        joint_ok = 0
        for scene in self.test_scenes:
            det = detect(
                scene,
                self.bundle.crf,
                self.bundle.formation_svm,
                self.bundle.angle_svm,
                joint_svm=self.bundle.joint_svm,
            )
            self.gold_membership.extend(scene.truth.membership)
            self.pred_membership.extend(det.membership)
            self.gold_formation.append(scene.truth.formation)
            self.pred_formation.append(det.formation or NONE_CLASS)
            self.gold_angle.append(str(scene.truth.angle_deg))
            self.pred_angle.append(
                str(det.angle_deg) if det.angle_deg is not None else NONE_CLASS
            )
            cell = (scene.truth.formation, scene.truth.angle_deg)
            hit = det.joint == cell
            joint_ok += hit
            self.joint_hits_by_cell.setdefault(cell, []).append(hit)
            rb = rule_classify(scene)
            self.rule_hits_by_cell.setdefault(cell, []).append(
                rb.formation == scene.truth.formation
            )
        t3 = time.perf_counter()

        self.joint_accuracy = joint_ok / len(self.test_scenes)
        self.generate_seconds = t1 - t0
        self.train_seconds = t2 - t1
        self.eval_seconds = t3 - t2
        self.total_seconds = t3 - t0


@pytest.fixture(scope="module")
def world():
    return World()


def test_criterion_1_crf_exactness(verdict):
    """Log-partition, marginals, and Viterbi vs enumeration, 200 chains, each
    decoded as its row of the batch of all the chains of its length."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    pairs = [(random_model(rng), random_instance(rng)) for _ in range(200)]
    batches, rows = {}, []
    for _, chain in pairs:
        batch = batches.setdefault(len(chain.features), [])
        rows.append(len(batch))
        batch.append(chain.features)
    batches = {n: np.stack(feats) for n, feats in batches.items()}
    worst_rel = 0.0
    viterbi_exact = True
    for (model, chain), k in zip(pairs, rows):
        log_z_bf, nm_bf, em_bf, best = brute_force(model, chain)
        feats = batches[len(chain.features)]
        labels, nm = crf_mod.decode_batch(model, feats, marginals=True)
        node = crf_mod._node_potentials(model, feats)
        _, em, log_z = crf_mod._posteriors(node, model.transition_weights())
        log_z, nm, em = float(log_z[k]), nm[k], em[k]
        worst_rel = max(worst_rel, abs(log_z - log_z_bf) / max(1.0, abs(log_z_bf)))
        worst_rel = max(worst_rel, float(np.abs(nm - nm_bf).max()))
        if em.size:
            worst_rel = max(worst_rel, float(np.abs(em - em_bf).max()))
        if tuple(labels[k]) != best:
            viterbi_exact = False
    elapsed = time.perf_counter() - t0
    ok = worst_rel < 1e-9 and viterbi_exact and elapsed < 30.0
    verdict(
        1,
        ok,
        f"200 chains n<=8: worst deviation {worst_rel:.2e} (<1e-9), "
        f"viterbi exact={viterbi_exact}, {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_crf_gradient(verdict):
    """Central finite differences at h=1e-5, rel error < 1e-5 per coordinate,
    of the objective crf.train minimises, on the blocks it trains on: of its
    loss against each gradient entry, and of its gradient against each
    Hessian column, relative to the column's largest entry."""
    t0 = time.perf_counter()
    spec = SynthSpec(count_per_cell=2, seed=202)
    scenes = generate_dataset(spec.configs(), shuffle_seed=spec.seed)
    blocks = build_crf_chains(scenes)
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = worst_hess = 0.0
    for _ in range(20):
        w = rng.normal(size=crf_mod.weight_dim(F_NODE))
        _, grad, hess = crf_mod._batched_objective(w, blocks, 0.5, F_NODE)
        for j in range(len(w)):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            lp, gp, _ = crf_mod._batched_objective(wp, blocks, 0.5, F_NODE)
            lm, gm, _ = crf_mod._batched_objective(wm, blocks, 0.5, F_NODE)
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(fd - grad[j]) / max(abs(fd), abs(grad[j]), 1e-8))
            fd = (gp - gm) / (2 * h)  # column j of the Hessian
            scale = max(np.abs(fd).max(), np.abs(hess[:, j]).max(), 1e-8)
            worst_hess = max(worst_hess, float(np.abs(fd - hess[:, j]).max()) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and worst_hess < 1e-5 and elapsed < 60.0
    verdict(
        2,
        ok,
        f"20 weight vectors on {len(scenes)} scenes' chains: worst per-coordinate "
        f"rel error {worst:.2e} (gradient), {worst_hess:.2e} (Hessian) (<1e-5), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_3_svm_solver(verdict):
    """Separable blobs at 100% with KKT <= 1e-3; Gram PSD on 50 random sets."""
    rng = np.random.default_rng(303)
    tol = 1e-3
    X = np.vstack(
        [rng.normal(-2.0, 0.35, size=(60, 2)), rng.normal(2.0, 0.35, size=(60, 2))]
    )
    y = np.array([-1.0] * 60 + [1.0] * 60)
    K = svm_mod.rbf_gram(X, X, 0.5)
    sol = svm_mod.smo_solve(K, y, C=10.0, tol=tol)
    decision = K @ (sol.alpha * y) + sol.bias
    train_acc = float(np.mean(np.sign(decision) == y))
    margins = y * decision
    max_viol = float(svm_mod.kkt_violations(sol.alpha, margins, 10.0).max())

    min_eig = np.inf
    for _ in range(50):
        n = int(rng.integers(2, 21))
        pts = rng.normal(size=(n, int(rng.integers(1, 6))))
        gram = svm_mod.rbf_gram(pts, pts, float(rng.uniform(0.05, 2.0)))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(gram).min()))

    ok = train_acc == 1.0 and max_viol <= tol and min_eig >= -1e-8
    verdict(
        3,
        ok,
        f"blob train accuracy {train_acc:.3f} (=1.0), max KKT violation "
        f"{max_viol:.2e} (<=1e-3), min Gram eigenvalue {min_eig:.2e} (>=-1e-8)",
    )


def test_criterion_4_synthetic_end_to_end(world, verdict):
    """>=2800 scenes, 80/20 per formation; four learned-model thresholds."""
    n_scenes = len(world.train_scenes) + len(world.test_scenes)
    membership = report(world.gold_membership, world.pred_membership, GROUP_LABELS)
    formation = report(
        world.gold_formation, world.pred_formation, FORMATIONS + (NONE_CLASS,)
    )
    angle = report(
        world.gold_angle, world.pred_angle, ANGLE_CLASS_NAMES + (NONE_CLASS,)
    )
    checks = {
        "scenes>=2800": n_scenes >= 2800,
        "membership>=0.90": membership.weighted_f1 >= 0.90,
        "formation>=0.95": formation.weighted_f1 >= 0.95,
        "angle>=0.90": angle.weighted_f1 >= 0.90,
        "joint>=0.85": world.joint_accuracy >= 0.85,
        "runtime<30min": world.total_seconds < 1800.0,
    }
    verdict(
        4,
        all(checks.values()),
        f"{n_scenes} scenes; membership wF1 {membership.weighted_f1:.4f}, "
        f"formation wF1 {formation.weighted_f1:.4f}, angle wF1 "
        f"{angle.weighted_f1:.4f}, joint acc {world.joint_accuracy:.4f}; "
        f"runtime {world.total_seconds:.0f}s "
        f"(gen {world.generate_seconds:.0f}s / train {world.train_seconds:.0f}s "
        f"/ eval {world.eval_seconds:.0f}s); failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_5_baseline_dominance(world, verdict):
    """Occluded 0-degree cells: learned beats rule by >=40pp; rule's strong
    case side-by-side -90 stays >=0.80."""
    def cell_stats(formation, angle):
        learned = float(np.mean(world.joint_hits_by_cell[(formation, angle)]))
        rule = float(np.mean(world.rule_hits_by_cell[(formation, angle)]))
        return learned, rule

    f2f_learned, f2f_rule = cell_stats("face-to-face", 0)
    sbs_learned, sbs_rule = cell_stats("side-by-side", 0)
    _, sbs90_rule = cell_stats("side-by-side", -90)
    checks = {
        "face-to-face@0 margin": f2f_learned - f2f_rule >= 0.40,
        "side-by-side@0 margin": sbs_learned - sbs_rule >= 0.40,
        "side-by-side@-90 rule": sbs90_rule >= 0.80,
    }
    verdict(
        5,
        all(checks.values()),
        f"face-to-face@0 learned {f2f_learned:.2f} vs rule {f2f_rule:.2f}; "
        f"side-by-side@0 learned {sbs_learned:.2f} vs rule {sbs_rule:.2f}; "
        f"side-by-side@-90 rule {sbs90_rule:.2f}; "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_6_outlier_robustness(world, verdict):
    """Formation agreement across with/without-outlier scene pairs."""
    labeled = 0
    agree = 0
    i = 0
    for formation in FORMATIONS:
        for angle in APPROACH_ANGLES:
            for _ in range(8):
                cfg = SynthConfig(
                    formation=formation,
                    angle_deg=angle,
                    outlier_count=1,
                    seed=900_000 + i * 37,
                )
                i += 1
                with_outlier = render_scene(cfg)
                without = render_scene(replace(cfg, outlier_count=0))
                det_with = detect(
                    with_outlier,
                    world.bundle.crf,
                    world.bundle.formation_svm,
                    world.bundle.angle_svm,
                )
                outlier_correct = all(
                    label == OUTLIER
                    for pose, label in zip(with_outlier.poses, det_with.membership)
                    if pose.person_id.startswith("o")
                )
                if not outlier_correct:
                    continue
                labeled += 1
                det_without = detect(
                    without,
                    world.bundle.crf,
                    world.bundle.formation_svm,
                    world.bundle.angle_svm,
                )
                agree += det_with.formation == det_without.formation
    agreement = agree / labeled if labeled else 0.0
    ok = labeled >= 200 and agreement >= 0.99
    verdict(
        6,
        ok,
        f"{labeled} correctly-labeled pairs (>=200), formation agreement "
        f"{agreement:.4f} (>=0.99)",
    )


def test_criterion_7_realtime_latency(world, verdict):
    """Single-threaded detect() p95 <= 50 ms on scenes of <= 5 poses."""
    scenes = world.test_scenes[:150]
    assert all(len(s.poses) <= 5 for s in scenes)
    stats = bench_latency(world.bundle, scenes, repetitions=2)
    ok = stats.p95_ms <= 50.0
    verdict(
        7,
        ok,
        f"p95 {stats.p95_ms:.2f} ms (<=50), p50 {stats.p50_ms:.2f} ms, "
        f"max {stats.max_ms:.2f} ms over {stats.n_measurements} runs",
    )


# Every artifact-producing CLI command: generate, train-crf, train-svm for
# each head, evaluate with --save-models, predict and baseline. bench is
# exercised elsewhere: its output is wall-clock measurements and is the one
# command whose bytes legitimately vary.
DIGESTS_SPEC = "5:7:800"


def test_criterion_8_cli_determinism(verdict):
    """Identical flags and seed produce byte-identical datasets/models/reports.

    Two processes, so under two hash seeds, each run the commands through
    scripts/output_digests.py and print the digests of what they write.
    """
    tests = os.path.dirname(os.path.abspath(__file__))
    script = os.path.join(tests, "..", "scripts", "output_digests.py")
    src = os.path.join(tests, "..", "src")
    runs = [
        subprocess.Popen(
            [sys.executable, script, "--spec", DIGESTS_SPEC],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        for _ in range(2)
    ]
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    first, second = [json.loads(out)[DIGESTS_SPEC] for out in outputs]
    assert len([k for k in first if k.startswith("svm_")]) == 15
    assert "crf_capped.json" in first
    assert {k for k in first if k.startswith("bundle/")} == {
        "bundle/manifest.json",
        "bundle/crf.json",
        "bundle/svm_formation.json",
        "bundle/svm_angle.json",
        "bundle/svm_joint.json",
    }
    assert "reports/meta.json" in first and "stdout predict" in first
    for head in ("formation", "angle", "joint"):
        # the capped CRF's groups differ from gold, so its SVMs do too
        capped = first[f"svm_{head}_crf_capped_0.125.json"]
        assert capped != first[f"svm_{head}_gold_0.125.json"]
    diffs = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    ok = not diffs
    verdict(
        8,
        ok,
        f"{len(first)} artifacts compared across two runs; "
        f"mismatched={diffs if diffs else 'none'}",
    )
