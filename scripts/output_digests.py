#!/usr/bin/env python3
"""SHA-256 of every artifact the CLI writes, printed as one JSON object.

Per spec, in a fresh directory, it runs:
- `generate` with its train/test split;
- `generate --config` on CONFIG: no pixel noise, one camera distance, no
  jitter and three bystanders, so the always-drawn zero noise and the
  occlusion of every body by every other are under the digests;
- `evaluate`, which trains and saves the bundle and writes the reports and
  meta.json;
- `train-crf`;
- `train-svm` for each head, on gold and on `--crf` groups, at gamma 0.125
  and `auto`;
- `train-crf` capped at CAPPED_CRF_ITERS Newton step, and `train-svm --crf`
  on it for each head at gamma 0.125. The trained CRF labels every training
  chain of both default specs as gold, so its `--crf` files equal the gold
  ones, and so would a CRF capped at 3 steps or more. After one step its
  labels differ from gold on 33 of 168 and 114 of 448 training scenes, so
  the capped files cover the CRF-filtered route;
- `predict`, `predict --joint` and `baseline` on the test split.

It digests every file written and every command's stdout. Two checkouts
whose outputs are byte-identical print the same JSON:

    PYTHONPATH=src python3 scripts/output_digests.py > digests.json

The default specs are 8 scenes per cell at seed 0 with default training,
and 20 per cell at seed 5 with at most 600 CRF steps. `--spec
COUNT:SEED[:CRF_ITERS]`, repeatable, replaces them. Digests depend on
numpy's and BLAS's rounding, so compare them only on one machine, at one
BLAS thread count. Run as a script, it pins BLAS to one thread
(`OMP_NUM_THREADS`, `OPENBLAS_NUM_THREADS`, `MKL_NUM_THREADS`) unless the
caller's environment already sets a count.

`--against FILE` compares this run with digests saved from another
checkout. It prints each artifact that moved, or that only one side has,
to stderr, and exits 1 if there is any:

    PYTHONPATH=src python3 scripts/output_digests.py --against parent.json
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

if __name__ == "__main__":
    # Before numpy loads: the capped --crf SVM files differ in their last
    # bits between one and two BLAS threads. Imported as a module, this file
    # leaves the environment alone.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from fformation.cli import main as cli_main
from fformation.pipeline import HEADS

DEFAULT_SPECS = ("8:0", "20:5:600")
GAMMAS = ("0.125", "auto")
CAPPED_CRF_ITERS = "1"
CONFIG = {
    "formation": "triangle",
    "angle_deg": 0,
    "distance_m": 3.0,
    "noise_px": 0.0,
    "angle_jitter_deg": 0.0,
    "scale_jitter": 0.0,
    "outlier_count": 3,
}


def _commands(count: str, seed: str, crf_iters: str | None) -> dict[str, list[str]]:
    """Command name -> CLI argv, in the order they run."""
    evaluate_iters = ["--crf-max-iters", crf_iters] if crf_iters else []
    train_crf_iters = ["--max-iters", crf_iters] if crf_iters else []
    commands = {
        "generate": [
            "generate", "--count", count, "--seed", seed, "--out", "all.jsonl",
            "--train-out", "train.jsonl", "--test-out", "test.jsonl",
        ],
        "generate --config": [
            "generate", "--config", "config.json", "--count", count, "--seed", seed,
            "--out", "config.jsonl",
        ],
        "evaluate": [
            "evaluate", "--train", "train.jsonl", "--test", "test.jsonl",
            "--save-models", "bundle", "--out-dir", "reports", "--seed", seed,
            *evaluate_iters,
        ],
        "train-crf": [
            "train-crf", "--train", "train.jsonl", "--out", "crf.json", *train_crf_iters,
        ],
    }
    for head in HEADS:
        for groups in ("gold", "crf"):
            for gamma in GAMMAS:
                name = f"svm_{head}_{groups}_{gamma}"
                commands[f"train-svm {name}"] = [
                    "train-svm", "--task", head, "--train", "train.jsonl",
                    "--gamma", gamma, "--out", f"{name}.json", "--seed", seed,
                    *(["--crf", "crf.json"] if groups == "crf" else []),
                ]
    commands["train-crf capped"] = [
        "train-crf", "--train", "train.jsonl", "--out", "crf_capped.json",
        "--max-iters", CAPPED_CRF_ITERS,
    ]
    for head in HEADS:
        name = f"svm_{head}_crf_capped_0.125"
        commands[f"train-svm {name}"] = [
            "train-svm", "--task", head, "--train", "train.jsonl",
            "--crf", "crf_capped.json", "--out", f"{name}.json", "--seed", seed,
        ]
    commands["predict"] = [
        "predict", "--data", "test.jsonl", "--models", "bundle", "--out", "predict.jsonl"
    ]
    commands["predict --joint"] = [
        "predict", "--data", "test.jsonl", "--models", "bundle", "--joint",
        "--out", "predict_joint.jsonl",
    ]
    commands["baseline"] = ["baseline", "--data", "test.jsonl", "--out", "baseline.jsonl"]
    return commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def spec_digests(spec: str, work_dir: str) -> dict[str, str]:
    """Artifact -> digest for one COUNT:SEED[:CRF_ITERS] spec, run in
    `work_dir` with relative paths, so that stdout names no directory."""
    count, seed, *rest = spec.split(":")
    digests = {}
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with open("config.json", "w", encoding="utf-8") as fp:
            json.dump({**CONFIG, "seed": int(seed)}, fp)
        for name, argv in _commands(count, seed, rest[0] if rest else None).items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(argv)
            if code != 0:
                raise SystemExit(f"spec {spec}: {name} exited {code}")
            digests[f"stdout {name}"] = _sha256(out.getvalue().encode("utf-8"))
        for root, _, files in os.walk("."):
            for file in files:
                path = os.path.join(root, file)
                with open(path, "rb") as fp:
                    digests[os.path.relpath(path)] = _sha256(fp.read())
    finally:
        os.chdir(cwd)
    return digests


def differences(current: dict, saved: dict) -> list[str]:
    """One line per artifact, across every spec either side ran, whose digest
    differs between the two runs or that only one of them has."""
    lines = []
    for spec in sorted(current.keys() | saved.keys()):
        now, then = current.get(spec, {}), saved.get(spec, {})
        for name in sorted(now.keys() | then.keys()):
            if name not in then:
                lines.append(f"{spec} {name}: only in this run")
            elif name not in now:
                lines.append(f"{spec} {name}: only in the saved run")
            elif now[name] != then[name]:
                lines.append(f"{spec} {name}: moved")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--spec", action="append", help="COUNT:SEED[:CRF_ITERS], repeatable"
    )
    parser.add_argument(
        "--against",
        metavar="FILE",
        help="digests saved from another run; exit 1 if any artifact differs",
    )
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fp:
            saved = json.load(fp)  # read first: a bad path fails before the runs
    result = {}
    for spec in args.spec or DEFAULT_SPECS:
        with tempfile.TemporaryDirectory() as work_dir:
            result[spec] = spec_digests(spec, work_dir)
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    if saved is None:
        return 0
    diffs = differences(result, saved)
    for line in diffs:
        print(line, file=sys.stderr)
    compared = sum(len(digests) for digests in result.values())
    print(
        f"{len(diffs)} differences from {args.against} over this run's "
        f"{compared} artifacts",
        file=sys.stderr,
    )
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
