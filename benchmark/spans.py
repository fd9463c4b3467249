"""Span tracing from outside the program.

For the length of a traced run, each wrapped public function is replaced at
every module-level name of the `fformation` package that is bound to it (the
names callers look up, e.g. `fformation.pipeline.chain_features` as well as
`fformation.features.chain_features`), and inside module-level dicts of
(name, function) pairs such as the experiment's table registry. The
wrapper records a span (name, start, end, parent span, scene id) and counts
calls. Spans stay in memory and are written out when the run ends.
`PER_LAYER` turns them into the per-layer metrics.
"""
from __future__ import annotations

import json
import sys
import time
from collections import Counter

# (module, attribute) of every wrapped function.
WRAPPED = (
    ("pose", "parse_scenes"),
    ("pose", "load_scenes"),
    ("features", "chain_features"),
    ("features", "group_features"),
    ("crf", "viterbi"),
    ("crf", "marginals"),
    ("crf", "train"),
    ("svm", "predict"),
    ("svm", "train_one_vs_rest"),
    ("pipeline", "detect"),
    ("pipeline", "detect_joint"),
    ("pipeline", "rule_classify"),
    ("pipeline", "build_crf_chains"),
    ("pipeline", "build_formation_data"),
    ("pipeline", "build_angle_data"),
    ("pipeline", "build_joint_data"),
    ("pipeline", "save_models"),
    ("pipeline", "load_models"),
    ("pipeline", "write_detections"),
    ("synth", "generate_dataset"),
    ("synth", "render_scene"),
    ("experiments", "train_bundle"),
    ("experiments", "run_experiment"),
    ("experiments", "membership_table"),
    ("experiments", "formation_table"),
    ("experiments", "angle_table"),
    ("experiments", "joint_table"),
)

# Wrapped functions whose arguments and result are kept for later reading.
KEEP_RETURNS = ("crf.train",)

# Span name of the benchmark's own operation (one frame, one evaluate call,
# one reproduction).
OP = "op"


def _model_kind(classes) -> str:
    """formation / angle / joint, told apart by the one-vs-rest class list."""
    classes = tuple(classes)
    if any("@" in c for c in classes):
        return "joint"
    if all(c.lstrip("-").isdigit() for c in classes):
        return "angle"
    return "formation"


def _svm_name(base):
    def name(args, kwargs):
        model = args[0] if args else kwargs.get("model")
        return f"{base}[{_model_kind(model.classes)}]"

    return name


def _train_ovr_name(args, kwargs):
    classes = args[2] if len(args) > 2 else kwargs["classes"]
    return f"svm.train_one_vs_rest[{_model_kind(classes)}]"


NAMERS = {
    ("svm", "predict"): _svm_name("svm.predict"),
    ("svm", "train_one_vs_rest"): _train_ovr_name,
}


class Tracer:
    """Spans as [name, start, end, parent, scene_id, items] lists, in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.returns: dict[str, list] = {}  # name -> [(args, kwargs, result)]
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, scene_id=None) -> int:
        parent = self._stack[-1] if self._stack else None
        if scene_id is None and parent is not None:
            scene_id = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, scene_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, items=None) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = items
        self._stack.pop()

    def _wrapper(self, fn, label, namer, keep_returns):
        tracer = self

        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else label
            scene_id = getattr(args[0], "frame_id", None) if args else None
            idx = tracer.begin(name, scene_id)
            items = None
            try:
                result = fn(*args, **kwargs)
                if isinstance(result, list):
                    items = len(result)
                if keep_returns:
                    tracer.returns.setdefault(name, []).append((args, kwargs, result))
                return result
            finally:
                tracer.end(idx, items)

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix) and m]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, attr in WRAPPED:
            mod = sys.modules.get(f"{self.package}.{mod_name}")
            fn = getattr(mod, attr, None)
            label = f"{mod_name}.{attr}"
            if fn is None:
                if label not in self.missing:
                    self.missing.append(label)
                continue
            wrapper = self._wrapper(
                fn, label, NAMERS.get((mod_name, attr)), label in KEEP_RETURNS
            )
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, key, fn))
                        setattr(module, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if isinstance(v, tuple) and any(x is fn for x in v):
                                self._patches.append((value, k, v))
                                value[k] = tuple(wrapper if x is fn else x for x in v)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Children run nested on one thread, so their intervals are disjoint
        and their durations add up to the covered part.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent is not None and t1 is not None:
                child[parent] += t1 - t0
        out: Counter = Counter()
        for i, (name, t0, t1, *_rest) in enumerate(self.spans):
            if t1 is not None:
                out[name] += (t1 - t0) - child[i]
        return dict(out)

    def summary(self) -> dict:
        """Per span name: calls, total seconds and items returned.

        Only spans inside a benchmark operation count toward `in_op_calls`.
        """
        in_op = [False] * len(self.spans)
        for i, span in enumerate(self.spans):
            parent = span[3]
            in_op[i] = span[0] == OP or (parent is not None and in_op[parent])
        agg: dict[str, dict] = {}
        for i, (name, t0, t1, _, _, items) in enumerate(self.spans):
            a = agg.setdefault(
                name, {"calls": 0, "total_s": 0.0, "items": 0, "in_op_calls": 0}
            )
            a["calls"] += 1
            a["total_s"] += (t1 - t0) if t1 is not None else 0.0
            a["items"] += items or 0
            a["in_op_calls"] += in_op[i]
        return agg

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for name, t0, t1, parent, scene_id, items in self.spans:
                fp.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "parent": parent,
                            "scene": scene_id,
                            "items": items,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced run.

# name -> (unit, better, how): ("mean", spans, scale) is seconds per call
# times scale; ("per_item", span, scale) divides by the scenes the span
# returned; ("per_scene", spans) counts calls inside operations per scene
# the operations completed; ("per_call_of", spans, denominator span) sums
# several spans per call of another; ("crf_train", field) reads the last
# CRF training; ("overhead",) is traced vs untraced operation latency.
PER_LAYER = {
    "pose.parse_ms": ("ms/frame", "lower", ("per_item", "pose.parse_scenes", 1e3)),
    "pose.load_scenes_s": ("s", "lower", ("mean", ["pose.load_scenes"], 1.0)),
    "features.chain_ms": ("ms/call", "lower", ("mean", ["features.chain_features"], 1e3)),
    "features.group_ms": ("ms/call", "lower", ("mean", ["features.group_features"], 1e3)),
    "crf.viterbi_ms": ("ms/call", "lower", ("mean", ["crf.viterbi"], 1e3)),
    "crf.marginals_ms": ("ms/call", "lower", ("mean", ["crf.marginals"], 1e3)),
    "crf.decodes_per_scene": ("count", "lower", ("per_scene", ["crf.viterbi"])),
    "crf.train_s": ("s", "lower", ("mean", ["crf.train"], 1.0)),
    "crf.train_iters": ("count", "lower", ("crf_train", "n_iters")),
    "crf.converged": ("0-1", "higher", ("crf_train", "converged")),
    "crf.grad_inf_norm": ("value", "lower", ("crf_train", "grad_inf_norm")),
    "svm.formation_ms": ("ms/call", "lower", ("mean", ["svm.predict[formation]"], 1e3)),
    "svm.angle_ms": ("ms/call", "lower", ("mean", ["svm.predict[angle]"], 1e3)),
    "svm.joint_ms": ("ms/call", "lower", ("mean", ["svm.predict[joint]"], 1e3)),
    "svm.predict_calls_per_scene": (
        "count",
        "lower",
        ("per_scene", ["svm.predict[formation]", "svm.predict[angle]", "svm.predict[joint]"]),
    ),
    "svm.smo_formation_s": ("s", "lower", ("mean", ["svm.train_one_vs_rest[formation]"], 1.0)),
    "svm.smo_angle_s": ("s", "lower", ("mean", ["svm.train_one_vs_rest[angle]"], 1.0)),
    "svm.smo_joint_s": ("s", "lower", ("mean", ["svm.train_one_vs_rest[joint]"], 1.0)),
    "pipeline.detect_ms": ("ms/call", "lower", ("mean", ["pipeline.detect"], 1e3)),
    "pipeline.detect_joint_ms": ("ms/call", "lower", ("mean", ["pipeline.detect_joint"], 1e3)),
    "pipeline.rule_ms": ("ms/call", "lower", ("mean", ["pipeline.rule_classify"], 1e3)),
    "pipeline.build_chains_s": ("s", "lower", ("mean", ["pipeline.build_crf_chains"], 1.0)),
    "pipeline.build_data_s": (
        "s",
        "lower",
        (
            "per_call_of",
            ["pipeline.build_formation_data", "pipeline.build_angle_data", "pipeline.build_joint_data"],
            "experiments.train_bundle",
        ),
    ),
    "pipeline.save_models_s": ("s", "lower", ("mean", ["pipeline.save_models"], 1.0)),
    "pipeline.load_models_s": ("s", "lower", ("mean", ["pipeline.load_models"], 1.0)),
    "pipeline.serialize_ms": ("ms/frame", "lower", ("mean", ["pipeline.write_detections"], 1e3)),
    "synth.generate_s": ("s", "lower", ("mean", ["synth.generate_dataset"], 1.0)),
    "synth.scene_ms": ("ms/scene", "lower", ("mean", ["synth.render_scene"], 1e3)),
    "experiments.train_bundle_s": ("s", "lower", ("mean", ["experiments.train_bundle"], 1.0)),
    "experiments.table1_s": ("s", "lower", ("mean", ["experiments.membership_table"], 1.0)),
    "experiments.table2_s": ("s", "lower", ("mean", ["experiments.formation_table"], 1.0)),
    "experiments.table3_s": ("s", "lower", ("mean", ["experiments.angle_table"], 1.0)),
    "experiments.table4_s": ("s", "lower", ("mean", ["experiments.joint_table"], 1.0)),
    "trace.overhead_pct": ("%", "lower", ("overhead",)),
}


def crf_train_record(tracer: Tracer, crf_module) -> dict | None:
    """The last CRF training: iterations, reported and recomputed gradient.

    The gradient infinity norm is recomputed with the per-chain reference
    objective `crf.nll_and_gradient` at the returned weights.
    """
    calls = tracer.returns.get("crf.train")
    if not calls:
        return None
    args, kwargs, result = calls[-1]
    batch = args[0] if args else kwargs["batch"]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    l2 = config.l2 if config is not None else crf_module.CrfTrainConfig().l2
    tol = config.tol if config is not None else crf_module.CrfTrainConfig().tol
    record = {
        "n_iters": result.n_iters,
        "converged": result.converged,
        "reported_grad_inf_norm": result.final_grad_inf_norm,
        "tol": tol,
    }
    reference = getattr(crf_module, "nll_and_gradient", None)
    if reference is not None:
        _, grad = reference(result.model, batch, l2=l2)
        record["grad_inf_norm"] = float(max(abs(g) for g in grad))
    return record


def per_layer(summary: dict, train: dict | None, overhead) -> tuple[dict, list]:
    """Every PER_LAYER metric, and the names of those whose layer did not run
    (reported as 0): not part of the workload, or its wrapped name is gone."""

    def total(names, key="total_s"):
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    op_scenes = summary.get(OP, {}).get("items", 0)
    values, absent = {}, []
    for name, (unit, _better, how) in PER_LAYER.items():
        kind, value = how[0], None
        if kind == "mean" and total(how[1], "calls"):
            value = total(how[1]) / total(how[1], "calls") * how[2]
        elif kind == "per_item" and total([how[1]], "items"):
            value = total([how[1]]) / total([how[1]], "items") * how[2]
        elif kind == "per_scene" and op_scenes and total(how[1], "in_op_calls"):
            value = total(how[1], "in_op_calls") / op_scenes
        elif kind == "per_call_of" and total([how[2]], "calls"):
            value = total(how[1]) / total([how[2]], "calls")
        elif kind == "crf_train" and train is not None and how[1] in train:
            value = float(train[how[1]])
        elif kind == "overhead" and overhead is not None:
            value = overhead
        if value is None:
            absent.append(name)
            value = 0.0
        values[name] = value
    return values, absent
