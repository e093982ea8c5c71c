"""No module of the package imports a name it never uses, and the exact
layers import no source of randomness or environment.

A stdlib-ast check, since no linter is assumed: every name bound by a
module-level import in src/solvkit/*.py must be read somewhere in that
module. __init__.py is skipped because its imports are the re-exports.
"""

import ast
import pathlib

import pytest

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
