"""Gaussian-rational scalar arithmetic, the string grammar, and the rule
that real data never reaches Scalar arithmetic."""

import json
import random
from fractions import Fraction

import pytest

from solvkit import (catalog, cli, cohomology, cxstruct, expforms, jsonio,
                     pkforms)
from solvkit.scalars import Scalar, exact, format_scalar, parse_scalar, sc


def test_construction_and_predicates():
    z = Scalar(Fraction(1, 2), -3)
    assert z.re == Fraction(1, 2)
    assert z.im == -3
    assert not z.is_real
    assert Scalar(7).is_real
    assert bool(Scalar(0, 1))
    assert not bool(Scalar(0))


def test_floats_rejected():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.25)


def test_immutable():
    z = Scalar(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)


def test_field_axioms_random():
    rng = random.Random(11)
    pool = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    for _ in range(200):
        a = Scalar(rng.choice(pool), rng.choice(pool))
        b = Scalar(rng.choice(pool), rng.choice(pool))
        c = Scalar(rng.choice(pool), rng.choice(pool))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if b:
            assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_conjugate_and_norm():
    z = Scalar(2, -3)
    assert z * z.conjugate() == Scalar(z.norm2())
    assert z.conjugate().conjugate() == z
    assert Scalar(0, 1) ** 2 == Scalar(-1)
    assert Scalar(2, 1) ** 0 == Scalar(1)


def test_mixed_arithmetic_with_ints_and_fractions():
    z = Scalar(1, 1)
    assert z + 1 == Scalar(2, 1)
    assert 1 + z == Scalar(2, 1)
    assert 2 * z == Scalar(2, 2)
    assert z - Fraction(1, 2) == Scalar(Fraction(1, 2), 1)
    assert 1 / Scalar(0, 1) == Scalar(0, -1)
    assert Scalar(3) == 3
    assert Scalar(3) == Fraction(3)
    assert Scalar(3, 1) != 3


def test_format_parse_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        z = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                   Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert parse_scalar(format_scalar(z)) == z


def test_parse_specific_forms():
    assert parse_scalar("3") == Scalar(3)
    assert parse_scalar("-1/2") == Scalar(Fraction(-1, 2))
    assert parse_scalar("i") == Scalar(0, 1)
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("0+1*i") == Scalar(0, 1)
    assert parse_scalar("1/2-2/3*i") == Scalar(Fraction(1, 2), Fraction(-2, 3))
    assert parse_scalar(" 1 + 1*i ") == Scalar(1, 1)
    assert parse_scalar(4) == Scalar(4)


def test_parse_rejects_garbage():
    for bad in ("", "one", "1.5", "1/2/3", "2x", "1/0", "3/0*i"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    with pytest.raises(ValueError):
        parse_scalar(1.5)


def test_sc_coercion():
    assert sc(2) == Scalar(2)
    assert sc("1/3") == Scalar(Fraction(1, 3))
    z = Scalar(1, 2)
    assert sc(z) is z


def test_exact_is_fraction_unless_non_real():
    for x in (3, Fraction(-1, 2), "5/3", "1 / 2", "1+0*i", Scalar(7),
              Scalar(Fraction(1, 3), 0)):
        v = exact(x)
        assert type(v) is Fraction and v == sc(x)
    for x in ("1+1*i", Scalar(0, 1), "-i", "0+1/2*i"):
        with pytest.raises(ValueError, match="^real entry required$"):
            exact(x)
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(ValueError):
        exact("1.5")


def test_format_scalar_accepts_rationals():
    for x in (Fraction(-1, 2), Fraction(4), 7, -3):
        assert format_scalar(x) == format_scalar(Scalar(x)) == str(x)


# Scalar's arithmetic methods, as counted by the benchmark's tracer
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


@pytest.fixture
def scalar_ops(monkeypatch):
    """A one-element list counting every Scalar arithmetic call from now on."""
    count = [0]
    for op in SCALAR_OPS:
        def counted(*args, _op=getattr(Scalar, op)):
            count[0] += 1
            return _op(*args)
        monkeypatch.setattr(Scalar, op, counted)
    return count


# R x_D R^5 with a half-integer D of full rank, so [g,g]/[n,n] = R^5
SEMIDIRECT6_D = [["1/2", "1", 0, 0, 0], [0, "1/2", 0, 0, 0], [0, 0, -1, 0, 0],
                 [0, 0, 0, 0, "3/2"], [0, 0, 0, "-3/2", 0]]
# one semisimple generator with real and non-real eigenvalues
SEMIDIRECT6_HOLONOMY = [[[2, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, -1, 0, 0],
                         [0, 0, 0, 0, -1], [0, 0, 0, 1, 0]]]
STANDARD_J6 = [[0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0],
               [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]


def _semidirect6_document():
    brackets = []
    for j in range(5):
        out = {str(i + 2): str(SEMIDIRECT6_D[i][j]) for i in range(5)
               if SEMIDIRECT6_D[i][j] != 0}
        if out:
            brackets.append({"i": 1, "j": j + 2, "out": out})
    return {"dim": 6, "field": "real", "brackets": brackets,
            "J": [[str(x) for x in row] for row in STANDARD_J6]}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_real_core_does_no_scalar_arithmetic(scalar_ops, tmp_path, capsys):
    """Everything here is real, so no Scalar is multiplied or added.

    Inputs are built first: catalog entries realify complex constants, which
    is one of the places where Scalar arithmetic belongs.
    """
    entries = [catalog.get(name) for name in catalog.list_names()]
    semidirect = _write(tmp_path, "semidirect.json", _semidirect6_document())
    holonomy = _write(tmp_path, "holonomy.json", SEMIDIRECT6_HOLONOMY)
    example3 = catalog.get("example3", l=1, k=1)
    example3_doc = _write(tmp_path, "example3.json",
                          jsonio.dump_algebra(example3.algebra, example3.j))
    example3_j = _write(tmp_path, "J.json", jsonio.dump_algebra(
        example3.algebra, example3.j)["J"])
    omega = _write(tmp_path, "omega.json", [{"i": 1, "j": 2, "coeff": "1"},
                                            {"i": 3, "j": 4, "coeff": "1"}])
    fixture = cohomology.Cochain(6, 2, {(0, 3): 2, (1, 2): 2, (4, 5): 2})
    scalar_ops[0] = 0

    for entry in entries:
        assert entry.algebra.jacobi_check().ok
        if entry.j is None:
            continue
        assert cxstruct.is_integrable(entry.algebra, entry.j).ok
        sub = cxstruct.subalgebra_from_j(entry.algebra, entry.j)
        assert cxstruct.j_from_subspace(sub.ambient, sub.basis) == entry.j
        pkforms.sweep_invariant_forms(entry.algebra, entry.j)
    for name, gens in (("abelian3", []), ("nilpotent3", [])):
        cohomology.winkelmann_h1(catalog.get(name).algebra,
                                 cohomology.HolonomyAction(gens))
    nonnilpotent3 = catalog.get("nonnilpotent3")
    assert str(pkforms.classify(nonnilpotent3.algebra, nonnilpotent3.j,
                                fixture)) == "not_closed"
    assert cli.main(["verify-integrable", semidirect]) == 1  # N(e1, e3) != 0
    assert cli.main(["verify-integrable", example3_doc]) == 0
    assert cli.main(["h1", semidirect, "--holonomy", holonomy]) == 0
    assert cli.main(["classify-form", example3_doc, "--J", example3_j,
                     "--omega", omega]) == 0
    out = capsys.readouterr().out
    assert '"-3/2"' in out and '"tag": "kahler"' in out
    assert '"dimW": 3' in out
    assert scalar_ops[0] == 0

    # the counter is live: the coordinate forms are genuinely complex
    expforms.restrict_identity(expforms.omega_coordinate())
    assert scalar_ops[0] > 0
