#!/usr/bin/env python3
"""Benchmark of the F-formation detector: one workload per run.

    python3 benchmark/run.py --workload detect_stream --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from `src/`. The
run's inputs come from --seed; it sets up, warms up, measures for
--seconds, checks every output, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones,
from a run with every wrapped function traced. The run record (versions,
BLAS threads, host-speed probe) and details go on the lines before it and
into .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import record

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "scenes_per_s": "scenes/s",
    "peak_rss_mb": "MB",
    "bundle_mb": "MB",
    "membership_f1": "ratio",
    "formation_f1": "ratio",
    "angle_f1": "ratio",
    "joint_accuracy": "ratio",
}
WORKLOAD_NAMES = ("detect_stream", "evaluate_batch", "reproduce")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_program():
    """Import fformation from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fformation", "__init__.py")):
        raise SystemExit(f"error: no program source at {src}/fformation")
    sys.path.insert(0, src)
    import fformation

    if not os.path.abspath(fformation.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: fformation imported from {fformation.__file__}")


def main(argv=None) -> int:
    args = parse_args(argv)
    env_before = record.pin_blas()
    import_program()

    import spans
    import workloads
    from fformation import crf

    rec = record.run_record(args.workload, args.seed, args.seconds, bool(args.trace), env_before)
    if not rec["blas_pinning"]["pinned"]:
        print("warning: BLAS is not on one thread", file=sys.stderr)
    rec["host_probe_before"] = record.probe_host()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = os.path.join(TMP_DIR, f"{tag}-{os.getpid()}")
    os.makedirs(tmp)
    tracer = spans.Tracer("fformation") if args.trace else None
    ctx = workloads.Context(args.seed, args.seconds, tmp, tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        ctx.traced(False)
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(TMP_DIR):
            os.rmdir(TMP_DIR)
    rec["host_probe_after"] = record.probe_host()

    if tracer is None:
        metrics = {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        trace_info = None
    else:
        train = spans.crf_train_record(tracer, crf)
        if train and train["converged"] and train.get("grad_inf_norm", 0) > train["tol"]:
            ctx.errors.append(f"CRF training reported convergence it did not reach: {train}")
        values, absent = spans.per_layer(tracer.summary(), train, outcome.overhead_pct)
        metrics = {
            name: {"value": values[name], "unit": spec[0]}
            for name, spec in spans.PER_LAYER.items()
        }
        trace_info = {
            "spans": len(tracer.spans),
            "wrapped_names_missing": tracer.missing,
            "metrics_not_measured": absent,
            "crf_train": train,
            "self_s": tracer.self_times(),
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    if tracer is not None:
        tracer.write(os.path.join(OUT_DIR, f"{tag}.spans.jsonl"))
    detail = {
        "run_record": rec,
        "details": ctx.details,
        "errors": ctx.errors,
        "trace": trace_info,
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fp:
        json.dump(detail, fp, indent=1, default=str)
    for err in ctx.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps(detail, default=str))
    print(
        json.dumps(
            {
                "correct": not ctx.errors,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
