#!/usr/bin/env python3
"""Latency check for the detection cascade on a fresh synthetic corpus.

Trains a small bundle, then times single-threaded detect() per scene and
prints the percentile breakdown per stage.
"""
import argparse
import sys

from fformation.experiments import SynthSpec, TrainingConfig, bench_latency, train_bundle
from fformation.synth import generate_dataset, split_train_test


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=12, help="scenes per cell for training")
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = SynthSpec(count_per_cell=args.count, seed=args.seed)
    scenes = generate_dataset(spec.configs(), shuffle_seed=args.seed)
    train, test = split_train_test(scenes, seed=args.seed)
    bundle = train_bundle(train, TrainingConfig(crf_max_iters=1500), seed=args.seed)

    stats = bench_latency(bundle, test[:150] if len(test) >= 150 else train[:150], args.repetitions)
    print(
        f"detect(): p50 {stats.p50_ms:.2f} ms, p95 {stats.p95_ms:.2f} ms, "
        f"max {stats.max_ms:.2f} ms ({stats.n_measurements} measurements)"
    )
    print(f"  BLAS threads limited by threadpoolctl: {stats.blas_threads_limited}")
    for stage, s in stats.stages_ms.items():
        print(f"  {stage:<9} p50 {s['p50']:.2f} ms  p95 {s['p95']:.2f} ms  max {s['max']:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
