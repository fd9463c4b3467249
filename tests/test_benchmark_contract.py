"""The library still has every name the benchmark reads.

`benchmark/*.py` are parsed, never imported or edited: every `fformation`
name they read (`crf.X` through a module imported from the package, and
`from fformation.M import X`) must exist. The span tracer's WRAPPED table
names functions as strings, and the tracer reports a missing one instead of
failing, so the table is read from `spans.py` and checked on its own.
"""
import ast
import importlib
import importlib.util
import pathlib

import pytest

BENCHMARK = pathlib.Path(__file__).resolve().parent.parent / "benchmark"
PACKAGE = "fformation"


def _reads(tree) -> set[tuple[str, str]]:
    """(module, attribute) of every package name the file reads."""
    modules = {}  # local name -> module of the package it is bound to
    reads = set()
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.split(".")[0] == PACKAGE:
            for alias in node.names:
                full = f"{module}.{alias.name}"
                if module == PACKAGE and importlib.util.find_spec(full):
                    modules[alias.asname or alias.name] = full  # a submodule
                else:
                    reads.add((module, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != PACKAGE:
                    continue
                if alias.asname:  # import fformation.crf as c
                    modules[alias.asname] = alias.name
                else:  # import fformation.crf binds the package's name
                    modules[PACKAGE] = PACKAGE
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            reads.add((modules[node.value.id], node.attr))
    return reads


def _benchmark_reads() -> list[tuple[str, str, str]]:
    out = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out |= {(path.name, mod, attr) for mod, attr in _reads(tree)}
    return sorted(out)


READS = _benchmark_reads()


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
