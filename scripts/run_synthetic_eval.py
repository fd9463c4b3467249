#!/usr/bin/env python3
"""Full synthetic evaluation: 2,800 scenes, trained models, all four tables.

Reproduces the headline experiment end to end in one process: 4.6-5.9 s
wall in three runs at the default 100 scenes per cell on a 2-core x86 VM
with BLAS pinned to one thread. Outputs land in --out-dir as CSV + JSON;
rerunning with the same seed rewrites identical bytes.
"""
import argparse
import sys
import time

from fformation.cli import _check_flag_ranges, _parse_gamma
from fformation.errors import ConfigError
from fformation.experiments import ExperimentConfig, SynthSpec, TrainingConfig, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument(
        "--count",
        type=int,
        default=SynthSpec().count_per_cell,
        help="scenes per (formation, angle) cell",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save-models", default=None, help="also write the trained bundle here")
    parser.add_argument(
        "--gamma", default=str(TrainingConfig().svm_gamma), help="RBF gamma or 'auto'"
    )
    args = parser.parse_args()

    try:
        _check_flag_ranges(args)
        gamma = _parse_gamma(args.gamma)
    except ConfigError as exc:
        parser.error(str(exc))  # exits 2
    cfg = ExperimentConfig(
        out_dir=args.out_dir,
        synth=SynthSpec(count_per_cell=args.count, seed=args.seed),
        training=TrainingConfig(svm_gamma=gamma),
        save_models_dir=args.save_models,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    outputs = run_experiment(cfg)
    print(f"done in {time.perf_counter() - t0:.0f}s")
    for stem, paths in outputs.items():
        print(f"  {stem}: {paths}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
