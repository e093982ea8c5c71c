"""No module of the package imports a name it never uses, the exact
layers import no source of randomness or environment, and every name the
benchmark's tracer patches still exists.

A stdlib-ast check, since no linter is assumed: every name bound by a
module-level import in src/solvkit/*.py must be read somewhere in that
module. __init__.py is skipped because its imports are the re-exports.
"""

import ast
import importlib
import pathlib

import pytest

from solvkit import catalog, report

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "solvkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


# structural decisions are exact: these layers neither sample nor read
# the environment (catalog, lattices and report keep float-gated numerics)
EXACT = ("scalars", "polys", "linalg", "liealg", "cxstruct", "cohomology",
         "pkforms", "expforms")


def imported_modules(source: str):
    """Top-level names of the absolute imports anywhere in source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\n"
                          "x: Dict = {}\n") == [(1, "os"), (2, "List")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_a_nested_import():
    assert imported_modules("def f():\n    import random\n"
                            "from os.path import join\nfrom . import os\n"
                            ) == {"random", "os"}


@pytest.mark.parametrize("name", EXACT)
def test_exact_layers_neither_sample_nor_read_the_environment(name):
    source = (SRC / ("%s.py" % name)).read_text()
    assert imported_modules(source) & {"random", "os"} == set()


def test_every_name_the_tracer_patches_exists(perfbench):
    """perfbench/tracer.py wraps functions and methods by name and reads
    bracket constants through .re/.im; a rename or a changed table type
    would otherwise surface only as a failing `perfbench/run.py --trace 1`.
    """
    tracer = perfbench.tracer
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module("solvkit." + layer)
        for name in names:
            if "." in name:
                cls, method = name.split(".")
                assert method in vars(getattr(module, cls)), name
            else:
                assert callable(getattr(module, name, None)), (layer, name)
    for name in tracer.REPORT_CHECKS:
        assert callable(getattr(report, name, None)), name
    for name in catalog.list_names():
        alg = catalog.get(name).algebra
        assert all(hasattr(c, "re") and hasattr(c, "im")
                   for row in alg._table.values() for c in row.values()), name
        assert tracer._algebra_key(alg)[:2] == (alg.dim, alg.form)
