"""No module of the package imports a name it never uses or defines a
function nothing reads, the exports of __init__ are the pinned API, the
exact layers import no source of randomness or environment, only the
complex layers name Scalar, start-up loads no module the commands do not
need, and every name the benchmark's tracer patches still exists and is
loaded by `import solvkit.cli`.

Stdlib-ast checks, since no linter is assumed: every name bound by a
module-level import in src/solvkit/*.py must be read somewhere in that
module (__init__.py is skipped because its imports are the re-exports);
every module-level function, method and property whose name starts with
one underscore must be read somewhere in src/solvkit, outside its own
body, and every other one must be read there too, or be exported by
__init__ (functions), patched by the tracer, or kept in KEPT_METHODS
with its reason (methods).
"""

import ast
import collections
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import solvkit
from solvkit import catalog, report

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "solvkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


# structural decisions are exact: these layers neither sample nor read
# the environment (catalog, lattices and report keep float-gated numerics)
EXACT = ("scalars", "polys", "linalg", "liealg", "cxstruct", "cohomology",
         "pkforms", "expforms")


def import_sites(source: str):
    """(enclosing module-level function or None, top-level name) of each
    absolute import anywhere in source."""
    sites = set()
    for top in ast.parse(source).body:
        scope = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                sites.update((scope, a.name.split(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                sites.add((scope, node.module.split(".")[0]))
    return sites


def imported_modules(source: str):
    """Top-level names of the absolute imports anywhere in source."""
    return {name for _, name in import_sites(source)}


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


def _definitions(tree):
    """(name, node) of each module-level function, and ("Class.name", node)
    of each method and property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield "%s.%s" % (node.name, item.name), item


def unread_functions(sources, public=False):
    """(module, name) of each function, method or property no source reads.

    `sources` maps module names to source text; a method is named
    "Class.method". Only the private `_f` are looked at, or with `public`
    only the others; dunders never. Reads are matched by the bare name, so
    a method counts as read when any attribute of that name is, and a
    function calling itself does not count.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = sum((_names_read(t) for t in trees.values()), collections.Counter())
    return sorted(
        (module, qualname) for module, tree in trees.items()
        for qualname, node in _definitions(tree)
        if not node.name.startswith("__")
        and node.name.startswith("_") != public
        and reads[node.name] == _names_read(node)[node.name])


def test_the_check_sees_an_unread_private_function():
    sources = {
        "a": "def _kept(): pass\ndef _gone(n): return _gone(n - 1)\n"
             "def __dunder__(): pass\ndef shown(): pass\n",
        "b": "from . import a\nx = a._kept\n",
    }
    assert unread_functions(sources) == [("a", "_gone")]
    assert unread_functions(sources, public=True) == [("a", "shown")]


def test_the_check_sees_an_unread_method():
    sources = {
        "a": "class C:\n"
             "    def used(self): return self._helper()\n"
             "    def _helper(self): pass\n"
             "    def _gone(self): return self._gone()\n"
             "    @property\n"
             "    def shown(self): pass\n"
             "    def __len__(self): return 0\n",
        "b": "from . import a\nx = a.C().used()\n",
    }
    assert unread_functions(sources) == [("a", "C._gone")]
    assert unread_functions(sources, public=True) == [("a", "C.shown")]


def test_every_private_function_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_functions(sources) == []


def exported_names():
    """The names `solvkit/__init__.py` imports from its modules."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


# the library API: everything else in the package may change without notice
API = [
    "AlmostComplexStructure", "CatalogEntry", "ClassifyResult", "Cochain",
    "ComplexSubalgebra", "EigenReport", "ExpForm", "GroupLawReport",
    "HolonomyAction", "IntegrabilityReport", "JacobiReport", "LatticeSpec",
    "LatticeTranslation", "LieAlgebra", "Poly", "Scalar", "SearchEntry",
    "SweepResult", "all_roots_pure_imaginary", "all_roots_real",
    "brackets_from_group_law", "build_lattice_nilpotent",
    "build_lattice_nonnilpotent", "ce_d", "char_poly", "classify",
    "classify_eigen", "classify_palindromic", "closed_compatible_space",
    "closed_holomorphic_1forms", "companion_palindromic", "conjugate_form",
    "count_real_roots", "errors", "ext_d", "factor_rational",
    "format_scalar", "get", "group_law_eval", "h1_lie",
    "has_unit_modulus_root", "is_complex_lie_algebra", "is_integrable",
    "is_squarefree", "j_compatible", "j_from_images", "j_from_subspace",
    "list_names", "maurer_cartan_forms", "metric_from", "nakamura_lattice",
    "nijenhuis", "omega_coordinate", "omega_mc", "parse_scalar",
    "poly_from_descending", "pseudo_kahler_obstruction",
    "pullback_translation", "realify_complex_brackets", "restrict_identity",
    "sc", "search_palindromic", "semisimple_commuting_check", "signature",
    "squarefree_part", "subalgebra_from_j", "sweep_invariant_forms",
    "tautological_j", "winkelmann_h1",
]


def test_the_exports_are_the_pinned_api():
    assert exported_names() == API
    assert all(hasattr(solvkit, name) for name in API)


# public methods that nothing in the package reads, kept for the reason given
KEPT_METHODS = {
    ("polys", "Poly.derivative"): "the Fraction ring test_polys checks the "
                                  "integer routes against",
    ("polys", "Poly.eval_fraction"): "the Fraction ring test_polys checks "
                                     "the integer routes against",
    ("polys", "Poly.reciprocal"): "the Fraction ring test_polys checks the "
                                  "integer routes against",
    ("lattices", "SearchEntry.polynomial"): "documented in the README",
    ("lattices", "SearchEntry.companion"): "documented in the README",
    ("liealg", "LieAlgebra.unimodular_check"): "documented in the README",
}


def test_every_public_function_is_read_exported_or_traced(perfbench):
    """A public module-level function is read in the package, exported by
    __init__, or patched by the benchmark's tracer; a public method or
    property is read in the package, patched by the tracer, or kept in
    KEPT_METHODS. Anything else belongs in the tests that use it."""
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    traced = {(layer, name) for layer, names in perfbench.tracer.TRACED.items()
              for name in names}
    assert [(module, name) for module, name
            in unread_functions(sources, public=True)
            if name not in API and (module, name) not in traced
            and (module, name) not in KEPT_METHODS] == []


def test_the_check_sees_a_nested_import():
    assert imported_modules("def f():\n    import random\n"
                            "from os.path import join\nfrom . import os\n"
                            ) == {"random", "os"}


@pytest.mark.parametrize("name", EXACT)
def test_exact_layers_neither_sample_nor_read_the_environment(name):
    source = (SRC / ("%s.py" % name)).read_text()
    assert imported_modules(source) & {"random", "os"} == set()


def names_used(source: str):
    """Every name read, bound or imported in source (docstrings aside)."""
    tree = ast.parse(source)
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {a.asname or a.name for n in ast.walk(tree)
               if isinstance(n, (ast.Import, ast.ImportFrom))
               for a in n.names})


def test_only_the_complex_layers_name_scalar():
    """scalars.exact is the one realness rule: the real layers read every
    value through it and never name Scalar. It stays in scalars, expforms
    (the coordinate forms), liealg (its bracket table and the realification
    of complex constants) and the __init__ re-export."""
    named = sorted(p.stem for p in SRC.glob("*.py")
                   if "Scalar" in names_used(p.read_text()))
    assert named == ["__init__", "expforms", "liealg", "scalars"]


def test_no_dataclasses_and_hashlib_only_in_the_digest_helper():
    """Start-up pays for neither: dataclasses pulls in inspect and ast, and
    hashlib loads OpenSSL for the two commands that take a digest."""
    sites = {(path.stem, scope, name) for path in SRC.glob("*.py")
             for scope, name in import_sites(path.read_text())
             if name in ("dataclasses", "hashlib")}
    assert sites == {("cli", "_sha256", "hashlib")}


def fresh_interpreter(code: str) -> str:
    """stdout of `code` run by a new python that imports solvkit from src."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout


HEAVY = ("dataclasses", "inspect", "ast", "hashlib", "numpy", "sympy")


def test_start_up_and_lattice_search_load_no_heavy_module():
    code = ("import sys\n"
            "import solvkit.cli\n"
            "print([m for m in %r if m in sys.modules])\n"
            "import io, contextlib\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    solvkit.cli.main(['lattice', 'search', '--bound', '5'])\n"
            "print('hashlib' in sys.modules)\n"
            % (HEAVY,))
    assert fresh_interpreter(code) == "[]\nFalse\n"


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


def test_importing_cli_loads_every_module_the_tracer_patches(perfbench):
    """tracer.install() reads sys.modules["solvkit." + layer] right after
    the worker's `import solvkit.cli`, so a lazy import there would break
    every traced benchmark run."""
    layers = sorted(set(perfbench.tracer.TRACED) | {"report", "scalars"})
    code = ("import sys\nimport solvkit.cli\n"
            "print([m for m in %r if 'solvkit.' + m not in sys.modules])\n"
            % (layers,))
    assert fresh_interpreter(code) == "[]\n"
