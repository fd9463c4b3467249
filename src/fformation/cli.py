"""Command-line interface.

Subcommands: generate, train-crf, train-svm, predict, evaluate, baseline,
bench, convert-ego-group. Every command is deterministic given its flags;
generate, train-svm and evaluate, the ones whose output depends on a seed,
take --seed.
Exit codes: 0 success, 2 configuration error, 3 data error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

from . import crf as crf_mod
from . import svm as svm_mod
from .errors import ConfigError, ConvergenceError, DataError, PlacementError
from .experiments import (
    LATENCY_MIN_SCENES,
    LATENCY_REPETITIONS,
    ExperimentConfig,
    SynthSpec,
    TrainingConfig,
    bench_latency,
    run_experiment,
    train_crf,
    train_heads,
)
from .pipeline import (
    HEADS,
    detect_many,
    load_models,
    rule_classify,
    training_groups,
    write_detections,
)
from .pose import (
    APPROACH_ANGLES,
    FORMATIONS,
    convert_ego_group_file,
    load_scenes,
    read_json,
    save_scenes,
    write_json,
)
from .synth import generate_dataset, split_train_test, synth_config_from_dict


def _parse_formations(text: str) -> tuple[str, ...]:
    names = tuple(t.strip() for t in text.split(",") if t.strip())
    bad = [n for n in names if n not in FORMATIONS]
    if bad:
        raise ConfigError(f"unknown formations {bad}; choose from {list(FORMATIONS)}")
    return names


def _parse_angles(text: str) -> tuple[int, ...]:
    try:
        angles = tuple(int(t.strip()) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"bad angle list {text!r}: {exc}") from exc
    bad = [a for a in angles if a not in APPROACH_ANGLES]
    if bad:
        raise ConfigError(f"unknown angles {bad}; choose from {list(APPROACH_ANGLES)}")
    return angles


def _parse_distance(text: str) -> tuple[float, float]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return (float(parts[0]), float(parts[0]))
        if len(parts) == 2:
            return (float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"distance must be 'd' or 'lo:hi', got {text!r}")


def _parse_gamma(text: str):
    if text == "auto":
        return "auto"
    try:
        gamma = float(text)
    except ValueError:
        gamma = math.nan
    if not 0 < gamma < math.inf:
        raise ConfigError(f"gamma must be a positive float or 'auto', got {text!r}")
    return gamma


# Numeric flags checked before any command runs: flag destination ->
# (test, what the value must be).
_AT_LEAST_ONE = (lambda v: v >= 1, "at least 1")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "non-negative and finite")
_POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")
_FLAG_RANGES = {
    "seed": _NON_NEGATIVE,
    "count": _AT_LEAST_ONE,
    "repetitions": _AT_LEAST_ONE,
    "max_iters": _AT_LEAST_ONE,
    "crf_max_iters": _AT_LEAST_ONE,
    "l2": _NON_NEGATIVE,
    "crf_l2": _NON_NEGATIVE,
    "C": _POSITIVE,
    "tol": _POSITIVE,
    "crf_tol": _POSITIVE,
    "svm_tol": _POSITIVE,
}


def _check_flag_ranges(args) -> None:
    """ConfigError naming the first flag of `args` outside its range."""
    for dest, (ok, what) in _FLAG_RANGES.items():
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(f"{flag} must be {what}, got {value!r}")


def cmd_generate(args) -> int:
    try:
        if args.config:
            doc = read_json(args.config, "synth config")
            configs = [(synth_config_from_dict(doc), args.count)]
        else:
            configs = SynthSpec(
                count_per_cell=args.count,
                formations=_parse_formations(args.formations),
                angles=_parse_angles(args.angles),
                outlier_fraction=args.outlier_frac,
                distance_m=_parse_distance(args.distance),
                image_width=args.width,
                image_height=args.height,
                noise_px=args.noise_px,
                formation_scale=args.formation_scale,
                angle_jitter_deg=args.angle_jitter,
                scale_jitter=args.scale_jitter,
                seed=args.seed,
            ).configs()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad scene options: {exc}") from exc
    split = bool(args.train_out or args.test_out)
    if split and not (args.train_out and args.test_out):
        raise ConfigError("--train-out and --test-out must be given together")
    try:
        scenes = generate_dataset(configs, shuffle_seed=args.seed)
    except (ValueError, PlacementError) as exc:
        # Options that pass the checks can still be too extreme to render:
        # non-finite keypoints, or a camera too close to the bodies.
        raise ConfigError(f"cannot render these scene options: {exc}") from exc
    if split:
        train, test = split_train_test(scenes, seed=args.seed)
        if not (train and test):
            raise ConfigError(
                f"--train-out and --test-out would split {len(scenes)} scenes "
                f"{len(train)} train / {len(test)} test; raise --count"
            )
    save_scenes(scenes, args.out)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    if split:
        save_scenes(train, args.train_out)
        save_scenes(test, args.test_out)
        print(f"wrote {len(train)} train / {len(test)} test scenes")
    return 0


def cmd_train_crf(args) -> int:
    training = TrainingConfig(crf_l2=args.l2, crf_max_iters=args.max_iters, crf_tol=args.tol)
    blocks, result = train_crf(load_scenes(args.train), training)
    crf_mod.save_crf(result.model, args.out)
    n_chains = sum(len(labels) for _, labels in blocks)
    print(
        f"trained crf on {n_chains} chains: converged={result.converged} "
        f"grad_inf_norm={result.final_grad_inf_norm:.3e} iters={result.n_iters} "
        f"loss={result.final_loss:.6f}"
    )
    return 0


def cmd_train_svm(args) -> int:
    training = TrainingConfig(svm_c=args.C, svm_gamma=_parse_gamma(args.gamma), svm_tol=args.tol)
    scenes = load_scenes(args.train)
    crf_model = crf_mod.load_crf(args.crf) if args.crf else None
    groups = training_groups(scenes, crf_model)
    [model] = train_heads(scenes, groups, (args.task,), training, args.seed).values()
    svm_mod.save_svm(model, args.out)
    print(
        f"trained {args.task} svm on {sum(g is not None for g in groups)} samples "
        f"(gamma={model.gamma:g}, {len(model.classes)} classes, "
        f"{model.n_support_vectors} stored SVs)"
    )
    return 0


def cmd_predict(args) -> int:
    scenes = load_scenes(args.data)
    bundle = load_models(args.models)
    if args.joint:
        heads = {"joint_svm": bundle.joint_svm}
    else:
        heads = {"formation_svm": bundle.formation_svm, "angle_svm": bundle.angle_svm}
    detections = detect_many(scenes, bundle.crf, **heads)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
        write_detections(detections, fp)
    print(f"wrote {len(detections)} detections to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    try:
        tables = tuple(int(t) for t in args.tables.split(",") if t.strip())
    except ValueError as exc:
        raise ConfigError(f"bad table list {args.tables!r}: {exc}") from exc
    cfg = ExperimentConfig(
        out_dir=args.out_dir,
        tables=tables,
        train_path=args.train,
        test_path=args.test,
        models_dir=args.models,
        save_models_dir=args.save_models,
        training=TrainingConfig(
            crf_l2=args.crf_l2,
            crf_max_iters=args.crf_max_iters,
            crf_tol=args.crf_tol,
            svm_c=args.C,
            svm_gamma=_parse_gamma(args.gamma),
            svm_tol=args.svm_tol,
        ),
        seed=args.seed,
    )
    outputs = run_experiment(cfg)
    for stem, paths in outputs.items():
        print(f"{stem}: {paths}")
    return 0


def cmd_baseline(args) -> int:
    scenes = load_scenes(args.data)
    detections = [rule_classify(scene) for scene in scenes]
    with open(args.out, "w", encoding="utf-8", newline="\n") as fp:
        write_detections(detections, fp)
    print(f"wrote {len(detections)} baseline detections to {args.out}")
    return 0


def cmd_bench(args) -> int:
    scenes = load_scenes(args.data)
    if len(scenes) < LATENCY_MIN_SCENES:
        raise DataError(
            f"{args.data} holds {len(scenes)} scenes; "
            f"the benchmark needs >= {LATENCY_MIN_SCENES}"
        )
    bundle = load_models(args.models)
    stats = bench_latency(bundle, scenes, repetitions=args.repetitions)
    write_json(args.out, asdict(stats), indent=1, sort_keys=True)
    print(
        f"detect() latency over {stats.n_measurements} runs: "
        f"p50={stats.p50_ms:.2f} ms p95={stats.p95_ms:.2f} ms max={stats.max_ms:.2f} ms"
    )
    return 0


def cmd_convert_ego(args) -> int:
    n = convert_ego_group_file(args.annotations, args.out)
    print(f"converted {n} frames to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fformation",
        description="F-formation and approach-angle recognition from 2D keypoints",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    training = TrainingConfig()  # the defaults of the training flags
    spec = SynthSpec()  # the defaults of the scene flags

    p = sub.add_parser("generate", help="render a labeled synthetic dataset")
    p.add_argument("--formations", default=",".join(spec.formations))
    p.add_argument("--angles", default=",".join(str(a) for a in spec.angles))
    p.add_argument("--count", type=int, default=spec.count_per_cell, help="scenes per (formation, angle) cell")
    p.add_argument("--outlier-frac", type=float, default=spec.outlier_fraction)
    p.add_argument("--distance", default=":".join(map(str, spec.distance_m)), help="camera distance in meters, 'd' or 'lo:hi'")
    p.add_argument("--width", type=int, default=spec.image_width)
    p.add_argument("--height", type=int, default=spec.image_height)
    p.add_argument("--noise-px", type=float, default=spec.noise_px)
    p.add_argument("--formation-scale", type=float, default=spec.formation_scale, help="member spacing override, meters")
    p.add_argument("--angle-jitter", type=float, default=spec.angle_jitter_deg, help="per-scene camera azimuth jitter, degrees")
    p.add_argument("--scale-jitter", type=float, default=spec.scale_jitter, help="per-scene relative spacing jitter")
    p.add_argument(
        "--config",
        default=None,
        help="JSON file mirroring one scene config; renders --count scenes from it",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--train-out", default=None, help="also write an 80%% train split")
    p.add_argument("--test-out", default=None, help="also write the 20%% test split")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train-crf", help="train the group/outlier chain model")
    p.add_argument("--train", required=True, help="labeled scene JSONL")
    p.add_argument("--out", required=True)
    p.add_argument("--l2", type=float, default=training.crf_l2)
    p.add_argument("--max-iters", type=int, default=training.crf_max_iters)
    p.add_argument("--tol", type=float, default=training.crf_tol)
    p.set_defaults(func=cmd_train_crf)

    p = sub.add_parser("train-svm", help="train a formation, angle, or joint classifier")
    p.add_argument("--task", choices=sorted(HEADS), required=True)
    p.add_argument("--train", required=True, help="labeled scene JSONL")
    p.add_argument(
        "--crf",
        default=None,
        help="trained crf model; train on its filtered groups instead of gold ones",
    )
    p.add_argument("--out", required=True)
    p.add_argument("--C", type=float, default=training.svm_c)
    p.add_argument(
        "--gamma",
        default=str(training.svm_gamma),
        help="RBF gamma or 'auto' for CV selection",
    )
    p.add_argument("--tol", type=float, default=training.svm_tol)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_svm)

    p = sub.add_parser("predict", help="run detection over scene JSONL")
    p.add_argument("--data", required=True)
    p.add_argument("--models", required=True, help="model bundle directory")
    p.add_argument("--out", required=True)
    p.add_argument("--joint", action="store_true", help="use the 28-class joint classifier")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="emit table-style reports")
    p.add_argument("--test", default=None, help="labeled test scene JSONL")
    p.add_argument("--train", default=None, help="labeled training scene JSONL")
    p.add_argument("--models", default=None, help="load models instead of training")
    p.add_argument("--save-models", default=None, help="write trained models here")
    p.add_argument("--tables", default="1,2,3,4")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--crf-l2", type=float, default=training.crf_l2)
    p.add_argument("--crf-max-iters", type=int, default=training.crf_max_iters)
    p.add_argument("--crf-tol", type=float, default=training.crf_tol)
    p.add_argument("--C", type=float, default=training.svm_c)
    p.add_argument("--gamma", default=str(training.svm_gamma))
    p.add_argument("--svm-tol", type=float, default=training.svm_tol)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="run the rule-based head-orientation classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("bench", help="single-threaded detect() latency benchmark")
    p.add_argument("--data", required=True, help=f"scene JSONL with at least {LATENCY_MIN_SCENES} scenes")
    p.add_argument("--models", required=True)
    p.add_argument("--repetitions", type=int, default=LATENCY_REPETITIONS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "convert-ego-group", help="convert EGO-GROUP-style annotations to scene JSONL"
    )
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert_ego)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flag_ranges(args)
        return args.func(args)
    except (ConfigError, ConvergenceError) as exc:
        # a solver that does not converge was given a setting it cannot meet
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: missing input {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
