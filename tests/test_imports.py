"""No module of the package imports a name it never uses or defines a
private function nothing reads, the exact layers import no source of
randomness or environment, and every name the benchmark's tracer patches
still exists.

Stdlib-ast checks, since no linter is assumed: every name bound by a
module-level import in src/solvkit/*.py must be read somewhere in that
module (__init__.py is skipped because its imports are the re-exports),
and every module-level function whose name starts with one underscore
must be read somewhere in src/solvkit, outside its own body.
"""

import ast
import collections
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


def _names_read(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute))


def unread_private_functions(sources):
    """(module, name) of each module-level `_f` that no source reads.

    `sources` maps module names to source text. A function calling itself
    does not count as a read.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_names_read(t) for t in trees.values()), collections.Counter())
    return sorted(
        (module, node.name) for module, tree in trees.items()
        for node in tree.body if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_") and not node.name.startswith("__")
        and reads[node.name] == _names_read(node)[node.name])


def test_the_check_sees_an_unread_private_function():
    assert unread_private_functions({
        "a": "def _kept(): pass\ndef _gone(n): return _gone(n - 1)\n"
             "def __dunder__(): pass\n",
        "b": "from . import a\nx = a._kept\n",
    }) == [("a", "_gone")]


def test_every_private_function_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_functions(sources) == []


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
