"""The three workloads: inputs from the seed, set-up, warm-up, timed window,
checks and metrics.

Each workload is a closed loop with one client on one thread: the next
operation starts when the previous one has returned. The program is reached
only through the public functions of its modules, looked up on the module at
call time so that a traced run sees its wrappers.
"""
from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from fformation import experiments, pipeline, pose, synth
from fformation.pose import APPROACH_ANGLES, FORMATIONS, GROUP_LABELS

import checks
import spans

# Set-up bundle for detect_stream and evaluate_batch: every scene of this
# fixed corpus, default TrainingConfig. A fixed corpus keeps the set-up work
# the same in every run; with seed-drawn corpora of this size, CRF training
# takes anywhere from 357 to 3,000 L-BFGS iterations.
TRAIN_PER_CELL = 8
TRAIN_SEED = 0

SETUP_REPEATS = 3

# detect_stream: one round holds every (formation, angle) cell once with each
# bystander count, plus one-person and empty frames; the frame pool holds
# POOL_ROUNDS distinct rounds and the window replays it in whole rounds.
BYSTANDERS = (0, 1, 2)
ONE_PERSON_PER_ROUND = 4
EMPTY_PER_ROUND = 2
POOL_ROUNDS = 4
ROUND_FRAMES = (
    len(FORMATIONS) * len(APPROACH_ANGLES) * len(BYSTANDERS)
    + ONE_PERSON_PER_ROUND
    + EMPTY_PER_ROUND
)
# What detect() raises today on a frame with no poses.
EMPTY_FRAME_ERROR = "ValueError: need at least one array to stack"

# evaluate_batch: held-out labelled set, scenes per cell (half of them with
# one bystander, as `fformation generate` makes them).
EVAL_PER_CELL = 10

# reproduce: corpus size and CRF iteration cap. At this size L-BFGS needs
# 800 to more than 3,000 iterations, depending on the seed; every seed tried
# stops at this cap, so each run does the same number of iterations.
REPRO_PER_CELL = 20
REPRO_CRF_ITERS = 600
# Warm-up reproduction, fixed and small.
WARMUP_PER_CELL = 4

# SynthSpec seeds of one corpus span about 31,000 consecutive scene seeds;
# corpora of different benchmark seeds, and the set-up corpus, stay apart.
CORPUS_SEED_STRIDE = 100_000


def corpus_seed(seed: int) -> int:
    return CORPUS_SEED_STRIDE * (seed + 1)


# Quality floors against the generator's truth, the same on every workload
# (see README.md): acceptance criterion 4's thresholds where these smaller
# training corpora reach them, lower where they do not. detect_stream
# applies them to frames with 0 or 1 bystanders only.
FLOORS = {
    "membership_f1": 0.90,
    "formation_f1": 0.90,
    "angle_f1": 0.75,
    "joint_accuracy": 0.75,
}


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: str
    tracer: spans.Tracer | None = None
    errors: list = field(default_factory=list)
    details: dict = field(default_factory=dict)
    active: bool = False  # wrappers installed

    def traced(self, on: bool) -> None:
        """Install or remove the tracer's wrappers (no-op in untraced runs)."""
        if self.tracer is None or on == self.active:
            return
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        self.active = on

    def begin(self, scene_id=None):
        """Open the span of one operation while tracing."""
        return self.tracer.begin(spans.OP, scene_id) if self.active else None

    def end(self, span, scenes: int) -> None:
        if span is not None:
            self.tracer.end(span, scenes)


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict  # end-to-end name -> value
    overhead_pct: float | None = None


# ---------------------------------------------------------------------------
# Shared helpers.


def _set_up(ctx: Context, fn):
    """Run fn(repeat) SETUP_REPEATS times (once when traced); median seconds."""
    repeats = 1 if ctx.tracer else SETUP_REPEATS
    times = []
    for r in range(repeats):
        t0 = time.perf_counter()
        out = fn(r)
        times.append(time.perf_counter() - t0)
    ctx.details["setup_s_each"] = times
    return out, statistics.median(times)


def train_corpus():
    spec = experiments.SynthSpec(count_per_cell=TRAIN_PER_CELL, seed=TRAIN_SEED)
    return synth.generate_dataset(spec.configs(), shuffle_seed=TRAIN_SEED)


def trained_bundle_dir(ctx: Context, r: int) -> str:
    """Train the set-up bundle and save it; returns its directory."""
    bundle = experiments.train_bundle(
        train_corpus(), experiments.TrainingConfig(), seed=TRAIN_SEED
    )
    path = os.path.join(ctx.tmp, f"models{r}")
    pipeline.save_models(bundle, path)
    return path


def dir_mb(path) -> float:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)) / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99(values) -> float:
    """Nearest-rank 99th percentile (the maximum below 100 samples)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def _base_metrics(setup_s, op_s, scenes, window_s, bundle_mb, quality) -> dict:
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_p99_ms": p99(op_s) * 1e3,
        "scenes_per_s": scenes / window_s,
        "peak_rss_mb": peak_rss_mb(),
        "bundle_mb": bundle_mb,
        **quality,
    }


# ---------------------------------------------------------------------------
# detect_stream


@dataclass(frozen=True)
class Frame:
    line: str  # Scene JSONL without truth: what the robot's detector hands over
    scene: pose.Scene  # with truth where the frame is labelled
    kind: str  # "labelled", "one_person" or "empty"
    bystanders: int = 0


def _render(rng, formation, angle, bystanders):
    cfg = synth.SynthConfig(
        formation=formation,
        angle_deg=angle,
        outlier_count=bystanders,
        seed=int(rng.integers(2**31)),
    )
    return synth.render_scene(cfg)


def _frame(scene, frame_id, kind, bystanders=0) -> Frame:
    scene = replace(scene, frame_id=frame_id)
    line = json.dumps(pose.scene_to_dict(replace(scene, truth=None))) + "\n"
    return Frame(line, scene, kind, bystanders)


def stream_frames(seed: int) -> list[Frame]:
    """POOL_ROUNDS rounds of ROUND_FRAMES frames, each round shuffled."""
    rng = np.random.default_rng([seed, 1])
    frames = []
    for r in range(POOL_ROUNDS):
        batch = []
        for formation in FORMATIONS:
            for angle in APPROACH_ANGLES:
                for b in BYSTANDERS:
                    scene = _render(rng, formation, angle, b)
                    batch.append((scene, "labelled", b))
        for _ in range(ONE_PERSON_PER_ROUND):
            scene = _render(
                rng,
                FORMATIONS[int(rng.integers(len(FORMATIONS)))],
                APPROACH_ANGLES[int(rng.integers(len(APPROACH_ANGLES)))],
                0,
            )
            keep = scene.poses[int(rng.integers(len(scene.poses)))]
            batch.append((replace(scene, poses=(keep,), truth=None), "one_person", 0))
        for _ in range(EMPTY_PER_ROUND):
            batch.append((pose.Scene("empty", 640, 480, (), None), "empty", 0))
        for k, i in enumerate(rng.permutation(len(batch))):
            scene, kind, b = batch[i]
            frames.append(_frame(scene, f"s{seed}r{r}f{k}:{scene.frame_id}", kind, b))
    return frames


def _detect_frame(line, bundle) -> str:
    """One frame through the robot's loop: parse, detect, serialise."""
    scene = pose.parse_scenes([line])[0]
    det = pipeline.detect(scene, bundle.crf, bundle.formation_svm, bundle.angle_svm)
    out = io.StringIO()
    pipeline.write_detections([det], out)
    return out.getvalue()


def detect_stream(ctx: Context) -> Outcome:
    ctx.traced(True)

    def set_up(r):
        path = trained_bundle_dir(ctx, r)
        return pipeline.load_models(path), stream_frames(ctx.seed), dir_mb(path)

    (bundle, frames, bundle_mb), setup_s = _set_up(ctx, set_up)
    ctx.traced(False)

    first: list = [None] * len(frames)  # (ok, output) of each frame's first run
    repeats_differ = []

    def run_round(rnd: int, latencies: list) -> int:
        failed = 0
        base = (rnd % POOL_ROUNDS) * ROUND_FRAMES
        for i in range(base, base + ROUND_FRAMES):
            line = frames[i].line
            span = ctx.begin(frames[i].scene.frame_id)
            t0 = time.perf_counter()
            try:
                out, ok = _detect_frame(line, bundle), True
            except Exception as exc:  # a failed frame is counted; the stream goes on
                out, ok = f"{type(exc).__name__}: {exc}", False
            dt = time.perf_counter() - t0
            ctx.end(span, int(ok))
            if ok:
                latencies.append(dt)
            else:
                failed += 1
            if first[i] is None:
                first[i] = (ok, out)
            elif first[i] != (ok, out):
                repeats_differ.append(frames[i].scene.frame_id)
        return failed

    run_round(0, [])  # warm-up
    latencies, untraced = [], []
    failed = rounds = 0
    t_start = time.perf_counter()
    while True:
        # A traced run alternates traced and untraced rounds, so the tracing
        # overhead is measured under the same host conditions.
        traced = ctx.tracer is not None and rounds % 2 == 0
        ctx.traced(traced)
        failed += run_round(rounds, untraced if ctx.tracer and not traced else latencies)
        ctx.traced(False)
        rounds += 1
        window = time.perf_counter() - t_start
        if window >= ctx.seconds and rounds >= POOL_ROUNDS:
            break
    attempted = rounds * ROUND_FRAMES

    # Checks, over the first output of every distinct frame.
    if repeats_differ:
        ctx.errors.append(f"repeated frames gave different output: {repeats_differ[:5]}")
    gold_m, pred_m, gold_f, pred_f, gold_a, pred_a, joint_ok, bys = ([] for _ in range(8))
    for frame, (ok, out) in zip(frames, first):
        fid = frame.scene.frame_id
        if not ok:
            if frame.kind != "empty" or out != EMPTY_FRAME_ERROR:
                ctx.errors.append(f"{fid} ({frame.kind}) failed: {out}")
            continue
        doc = json.loads(out)
        ctx.errors.extend(checks.check_detection(doc, frame.scene, bundle.crf))
        if frame.kind != "labelled":
            continue
        t = frame.scene.truth
        gold_m.append(list(t.membership))
        pred_m.append(doc["membership"])
        gold_f.append(t.formation)
        pred_f.append(doc["formation"] or checks.NONE_CLASS)
        gold_a.append(str(t.angle_deg))
        pred_a.append(str(doc["angle_deg"]) if doc["angle_deg"] is not None else checks.NONE_CLASS)
        joint_ok.append(doc["formation"] == t.formation and doc["angle_deg"] == t.angle_deg)
        bys.append(frame.bystanders)

    def quality(keep) -> dict:
        idx = [i for i, b in enumerate(bys) if keep(b)]
        return {
            "membership_f1": checks.weighted_f1(
                [m for i in idx for m in gold_m[i]],
                [m for i in idx for m in pred_m[i]],
                GROUP_LABELS,
            ),
            "formation_f1": checks.weighted_f1(
                [gold_f[i] for i in idx], [pred_f[i] for i in idx],
                FORMATIONS + (checks.NONE_CLASS,),
            ),
            "angle_f1": checks.weighted_f1(
                [gold_a[i] for i in idx], [pred_a[i] for i in idx],
                checks.ANGLE_CLASSES + (checks.NONE_CLASS,),
            ),
            "joint_accuracy": sum(joint_ok[i] for i in idx) / len(idx),
            "frames": len(idx),
            "membership_exact": sum(gold_m[i] == pred_m[i] for i in idx),
        }

    overall = quality(lambda b: True)
    by_bystanders = {str(n): quality(lambda b, n=n: b == n) for n in BYSTANDERS}
    floored = quality(lambda b: b < 2)
    ctx.details["quality_by_bystanders"] = by_bystanders
    ctx.errors.extend(
        checks.check_floors(floored, FLOORS, "frames with 0-1 bystanders")
    )
    ctx.details["frames"] = {"pool": len(frames), "rounds": rounds, "round": ROUND_FRAMES}
    q = {k: overall[k] for k in FLOORS}
    metrics = _base_metrics(
        setup_s, latencies, len(latencies), window, bundle_mb, q
    )
    overhead = None
    if ctx.tracer is not None and untraced:
        overhead = (statistics.median(latencies) / statistics.median(untraced) - 1) * 100
    return Outcome(attempted, failed, metrics, overhead)


# ---------------------------------------------------------------------------
# evaluate_batch and reproduce: repeated experiments.run_experiment calls.


def _timed_window(ctx: Context, op, n_scenes: int):
    """Run op(k) until the window is over; seconds per op and report bytes."""
    times, outputs = [], []
    t_start = time.perf_counter()
    while True:
        k = len(times)
        span = ctx.begin()
        t0 = time.perf_counter()
        out_dir = op(k)
        times.append(time.perf_counter() - t0)
        ctx.end(span, n_scenes)
        outputs.append(checks.read_reports(out_dir))
        window = time.perf_counter() - t_start
        if window >= ctx.seconds:
            return times, outputs, window


def _check_repeats(ctx: Context, reference: dict, outputs: list) -> None:
    for k, files in enumerate(outputs):
        if files != reference:
            diff = sorted(n for n in set(files) | set(reference) if files.get(n) != reference.get(n))
            ctx.errors.append(f"operation {k}: reports differ from the first run's: {diff}")


def evaluate_batch(ctx: Context) -> Outcome:
    ctx.traced(True)
    test_path = os.path.join(ctx.tmp, "test.jsonl")

    def set_up(r):
        models = trained_bundle_dir(ctx, r)
        spec = experiments.SynthSpec(count_per_cell=EVAL_PER_CELL, seed=corpus_seed(ctx.seed))
        scenes = synth.generate_dataset(spec.configs(), shuffle_seed=spec.seed)
        pose.save_scenes(scenes, test_path)
        return models, scenes

    (models, test_scenes), setup_s = _set_up(ctx, set_up)
    bundle_mb = dir_mb(models)
    ctx.traced(False)

    def op(k):
        out_dir = os.path.join(ctx.tmp, f"reports{k % 2}")
        experiments.run_experiment(
            experiments.ExperimentConfig(
                out_dir=out_dir, test_path=test_path, models_dir=models, seed=ctx.seed
            )
        )
        return out_dir

    reference = checks.read_reports(op(-1))  # warm-up
    errors, quality = checks.check_reports(reference, test_scenes, ctx.seed)
    ctx.errors.extend(errors)
    ctx.traced(True)
    times, outputs, window = _timed_window(ctx, op, len(test_scenes))
    ctx.traced(False)
    _check_repeats(ctx, reference, outputs)
    if quality:
        ctx.errors.extend(checks.check_floors(quality, FLOORS, "evaluate"))
    ctx.details["test_scenes"] = len(test_scenes)
    metrics = _base_metrics(
        setup_s, times, len(test_scenes) * len(times), window, bundle_mb, quality
    )
    return Outcome(len(times), 0, metrics)


def _reproduce(ctx: Context, spec, tag: str) -> str:
    out_dir = os.path.join(ctx.tmp, f"reports-{tag}")
    experiments.run_experiment(
        experiments.ExperimentConfig(
            out_dir=out_dir,
            synth=spec,
            save_models_dir=os.path.join(ctx.tmp, f"models-{tag}"),
            training=experiments.TrainingConfig(crf_max_iters=REPRO_CRF_ITERS),
            seed=spec.seed,
        )
    )
    return out_dir


def reproduce(ctx: Context) -> Outcome:
    spec = experiments.SynthSpec(count_per_cell=REPRO_PER_CELL, seed=corpus_seed(ctx.seed))

    def set_up(r):
        # The benchmark's own copy of the corpus and its test split: the
        # truth the reports are checked against.
        scenes = synth.generate_dataset(spec.configs(), shuffle_seed=spec.seed)
        return len(scenes), synth.split_train_test(scenes, seed=spec.seed)[1]

    ctx.traced(True)
    (n_scenes, test_scenes), setup_s = _set_up(ctx, set_up)
    ctx.traced(False)
    _reproduce(ctx, experiments.SynthSpec(count_per_cell=WARMUP_PER_CELL, seed=TRAIN_SEED), "warmup")

    ctx.traced(True)
    times, outputs, window = _timed_window(
        ctx, lambda k: _reproduce(ctx, spec, str(k % 2)), n_scenes
    )
    ctx.traced(False)
    errors, quality = checks.check_reports(outputs[0], test_scenes, spec.seed)
    ctx.errors.extend(errors)
    _check_repeats(ctx, outputs[0], outputs[1:])
    if quality:
        ctx.errors.extend(checks.check_floors(quality, FLOORS, "reproduce"))
    models = os.path.join(ctx.tmp, "models-0")
    pipeline.load_models(models)  # the saved bundle must load
    metrics = _base_metrics(
        setup_s, times, n_scenes * len(times), window, dir_mb(models), quality
    )
    return Outcome(len(times), 0, metrics)


WORKLOADS = {
    "detect_stream": detect_stream,
    "evaluate_batch": evaluate_batch,
    "reproduce": reproduce,
}
