"""The library still has every name the benchmark reads, and takes every
call the benchmark makes.

`benchmark/*.py` are parsed, never imported or edited: every `fformation`
name they read (`crf.X` through a module imported from the package, and
`from fformation.M import X`) must exist, and every call they make to such
a name must bind to its signature. The span tracer's WRAPPED table names
functions as strings, and the tracer reports a missing one instead of
failing, so the table is read from `spans.py` and checked on its own.
"""
import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
PACKAGE = "fformation"


def _bindings(tree) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Local names bound to the package's modules (name -> module) and to
    names imported from them (name -> (module, attribute))."""
    modules = {}
    names = {}
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.split(".")[0] == PACKAGE:
            for alias in node.names:
                full = f"{module}.{alias.name}"
                if module == PACKAGE and importlib.util.find_spec(full):
                    modules[alias.asname or alias.name] = full  # a submodule
                else:
                    names[alias.asname or alias.name] = (module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != PACKAGE:
                    continue
                if alias.asname:  # import fformation.crf as c
                    modules[alias.asname] = alias.name
                else:  # import fformation.crf binds the package's name
                    modules[PACKAGE] = PACKAGE
    return modules, names


def _target(node, modules, names) -> tuple[str, str] | None:
    """(module, attribute) of the package name an expression reads, if any."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ):
        return modules[node.value.id], node.attr
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    return None


def _reads(tree) -> set[tuple[str, str]]:
    """(module, attribute) of every package name the file reads."""
    modules, names = _bindings(tree)
    reads = set(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (target := _target(node, modules, names)):
            reads.add(target)
    return reads


def _calls(tree) -> list[tuple[str, str, int, int, tuple[str, ...]]]:
    """(module, attribute, line, positional count, keyword names) of every
    call the file makes to a package name. Positional arguments after a
    `*args` and the keywords of a `**kwargs` are unknown and not counted."""
    modules, names = _bindings(tree)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (target := _target(node.func, modules, names)):
            starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
            keywords = tuple(k.arg for k in node.keywords if k.arg is not None)
            calls.append((*target, node.lineno, starred.index(True), keywords))
    return calls


def _benchmark_reads() -> list[tuple[str, str, str]]:
    out = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out |= {(path.name, mod, attr) for mod, attr in _reads(tree)}
    return sorted(out)


READS = _benchmark_reads()


def _benchmark_calls() -> dict[tuple[str, str, str], list[tuple[int, int, tuple]]]:
    """(file, module, attribute) -> (line, positional count, keyword names)
    of each of its calls."""
    out: dict = {}
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for mod, attr, *shape in _calls(tree):
            out.setdefault((path.name, mod, attr), []).append(tuple(shape))
    return out


CALLS = _benchmark_calls()


def test_benchmark_reads_the_library():
    assert {(mod, attr) for _, mod, attr in READS} >= {
        ("fformation.crf", "log_potentials"),
        ("fformation.features", "chain_features"),
        ("fformation.pose", "left_to_right_permutation"),
    }


@pytest.mark.parametrize(
    "source, module, attr", READS, ids=[f"{s}:{m}.{a}" for s, m, a in READS]
)
def test_every_name_the_benchmark_reads_exists(source, module, attr):
    found = hasattr(importlib.import_module(module), attr)
    assert found, f"{source} reads {module}.{attr}"


def test_benchmark_calls_the_library():
    assert {(mod, attr) for _, mod, attr in CALLS} >= {
        ("fformation.experiments", "SynthSpec"),
        ("fformation.experiments", "TrainingConfig"),
        ("fformation.pipeline", "detect"),
    }


@pytest.mark.parametrize(
    "source, module, attr", sorted(CALLS), ids=[f"{s}:{m}.{a}" for s, m, a in sorted(CALLS)]
)
def test_every_call_the_benchmark_makes_binds(source, module, attr):
    signature = inspect.signature(getattr(importlib.import_module(module), attr))
    for line, n_positional, keywords in CALLS[source, module, attr]:
        try:
            signature.bind_partial(*[None] * n_positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(
                f"{source}:{line} calls {module}.{attr} with {n_positional} "
                f"positional arguments and keywords {list(keywords)}: {exc}"
            )


# Traced names the library no longer has. The tracer skips them, so their
# per-layer metrics read "not measured"; any other missing name fails below.
STALE_WRAPPED = {
    ("pipeline", "detect_joint"),
    ("features", "group_features"),
    ("crf", "viterbi"),
    ("crf", "marginals"),
    ("svm", "predict"),
}


def _wrapped() -> list[tuple[str, str]]:
    """(module, attribute) of every entry of the tracer's WRAPPED table."""
    tree = ast.parse((BENCHMARK / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [
            getattr(t, "id", None) for t in node.targets
        ] == ["WRAPPED"]:
            return list(ast.literal_eval(node.value))
    raise AssertionError("benchmark/spans.py defines no WRAPPED table")


WRAPPED = [w for w in _wrapped() if w not in STALE_WRAPPED]


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_every_name_the_tracer_wraps_exists(module, attr):
    found = hasattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
    assert found, f"spans.WRAPPED names {module}.{attr}"
