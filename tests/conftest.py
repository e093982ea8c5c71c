"""Test-wide settings and shared fixtures.

Every hypothesis test draws the same examples on every run: a derandomized
default profile with no example database and no deadline. A test's own
@settings still override these field by field.
"""

import collections
import functools
import json
import pathlib
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import settings

from solvkit import linalg
from solvkit.scalars import exact

settings.register_profile("solvkit", database=None, derandomize=True,
                          deadline=None)
settings.load_profile("solvkit")


@pytest.fixture
def unreadable_files(tmp_path):
    """(path, SchemaError message) for a missing file and a non-JSON file."""
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    try:
        json.loads("{not json")
    except json.JSONDecodeError as e:
        decode_error = str(e)
    return [(missing, "cannot read %s: [Errno 2] No such file or directory: "
                      "'%s'" % (missing, missing)),
            (str(bad), "%s is not valid JSON: %s" % (bad, decode_error))]


PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench():
    """The benchmark's oracle, batch and tracer modules, read-only.

    Each is executed from its source, so no bytecode cache is written
    under perfbench/ and sys.path is untouched; `oracle` is in sys.modules
    only while batch's `import oracle` runs.
    """
    loaded = {}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("oracle", "batch", "tracer"):
            path = PERFBENCH / ("%s.py" % name)
            module = types.ModuleType(name)
            module.__file__ = str(path)
            mp.setitem(sys.modules, name, module)
            exec(compile(path.read_text(), str(path), "exec"), vars(module))
            loaded[name] = module
    return types.SimpleNamespace(**loaded)


@pytest.fixture
def structural_builds(monkeypatch):
    """Counter of integer-adjoint builds and Cartan tests during a test."""
    from solvkit import liealg
    calls = collections.Counter()
    cartan = liealg._cartan_solvable
    build = vars(liealg.LieAlgebra)["_integer_adjoints"].func

    def counted_cartan(ads):
        calls["cartan"] += 1
        return cartan(ads)

    def counted_build(self):
        calls["adjoints"] += 1
        return build(self)

    prop = functools.cached_property(counted_build)
    prop.__set_name__(liealg.LieAlgebra, "_integer_adjoints")
    monkeypatch.setattr(liealg, "_cartan_solvable", counted_cartan)
    monkeypatch.setattr(liealg.LieAlgebra, "_integer_adjoints", prop)
    return calls


def _alt_minor(vecs, key):
    """det of the matrix (vecs[r][key[c]]) — the alternating evaluation."""
    k = len(key)
    m = [[vecs[r][key[c]] for c in range(k)] for r in range(k)]
    return linalg.det(m)


def _evaluate(c, *vectors):
    if len(vectors) != c.degree:
        raise ValueError("expected %d vectors" % c.degree)
    vecs = [[exact(x) for x in v] for v in vectors]
    if c.degree == 0:
        return c.coeffs.get((), Fraction(0))
    total = Fraction(0)
    for key, val in c.coeffs.items():
        # sum over assignments of the key's indices to argument slots
        total = total + val * _alt_minor(vecs, key)
    return total


@pytest.fixture
def evaluate():
    """evaluate(c, *vectors): the cochain c on vectors by the definition,
    the sum over its keys of coefficient times the vectors' minor on the
    key; the reference the cochain and 2-form tests compare against."""
    return _evaluate
