"""Chevalley-Eilenberg cochains, the h1 formula, and the holonomy part."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import solvkit
from solvkit import catalog, cohomology, linalg
from solvkit.cohomology import (Cochain, HolonomyAction, ce_d,
                                closed_holomorphic_1forms, h1_lie,
                                pseudo_kahler_obstruction, quotient_dim,
                                real_part_subspace, sort_sign, winkelmann_h1)
from solvkit.errors import (BadHolonomy, DegreeTooHigh, NonCommutingHolonomy,
                            NonSemisimpleGenerator, NotNilpotent, NotSolvable,
                            SolvkitError)
from solvkit.liealg import LieAlgebra
from solvkit.linalg import Subspace
from solvkit.polys import (Poly, all_roots_real, count_real_roots,
                           factor_rational)
from solvkit.scalars import Scalar


def test_cochain_validation_and_signs():
    c = Cochain(4, 2, {(0, 1): 2, (2, 3): -1})
    assert c.coefficient(0, 1) == Scalar(2)
    assert c.coefficient(1, 0) == Scalar(-2)
    assert c.coefficient(0, 0) == Scalar(0)
    assert c.coefficient(0, 2) == Scalar(0)
    with pytest.raises(ValueError):
        Cochain(4, 2, {(1, 0): 1})         # must be increasing
    with pytest.raises(ValueError):
        Cochain(4, 2, {(0, 5): 1})         # out of range
    with pytest.raises(ValueError):
        Cochain(4, 2, {(0,): 1})           # wrong arity
    with pytest.raises(DegreeTooHigh):
        Cochain(4, 4)


def _inversion_sign(indices):
    inversions = sum(1 for a, b in itertools.combinations(indices, 2) if a > b)
    return -1 if inversions % 2 else 1


def test_sort_sign_matches_inversion_count():
    for length in range(5):
        for indices in itertools.product(range(6), repeat=length):
            got = sort_sign(indices)
            if len(set(indices)) < length:
                assert got is None, indices
            else:
                assert got == (tuple(sorted(indices)),
                               _inversion_sign(indices)), indices


def test_coefficient_on_every_permutation():
    rng = random.Random(61)
    for degree in (1, 2, 3):
        keys = list(itertools.combinations(range(6), degree))
        c = Cochain(6, degree, {k: rng.randint(-5, 5) for k in keys})
        for key in keys:
            base = c.coeffs.get(key, Scalar(0))
            for perm in itertools.permutations(key):
                assert c.coefficient(*perm) == \
                    base * Scalar(_inversion_sign(perm)), perm


def test_cochain_evaluate_alternating(evaluate):
    c = Cochain(3, 2, {(0, 1): 1})
    rng = random.Random(43)
    for _ in range(30):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        assert evaluate(c, u, v) == -evaluate(c, v, u)
        assert evaluate(c, u, u) == Scalar(0)
    assert evaluate(c, [1, 0, 0], [0, 1, 0]) == Scalar(1)


def _one_form(dim, index):
    return Cochain(dim, 1, {(index,): 1})


def test_d_squared_zero_exhaustive():
    """d^2 = 0 on every 1-form basis element of every catalog algebra."""
    for name in catalog.list_names():
        l = catalog.get(name).algebra
        for i in range(l.dim):
            dd = ce_d(l, ce_d(l, _one_form(l.dim, i)))
            assert dd.is_zero(), (name, i)


def test_d_on_two_forms_random(evaluate):
    rng = random.Random(47)
    for name in ("hyperelliptic", "inoue-s0", "nilpotent3"):
        l = catalog.get(name).algebra
        n = l.dim
        for _ in range(10):
            coeffs = {}
            for a in range(n):
                for b in range(a + 1, n):
                    v = rng.randint(-2, 2)
                    if v:
                        coeffs[(a, b)] = v
            w = Cochain(n, 2, coeffs)
            dw = ce_d(l, w)
            assert dw.degree == 3
            # dw is alternating by construction; spot check a value
            if dw.coeffs:
                key = sorted(dw.coeffs)[0]
                i, j, k = key
                ei = [Scalar(1 if t == i else 0) for t in range(n)]
                ej = [Scalar(1 if t == j else 0) for t in range(n)]
                ek = [Scalar(1 if t == k else 0) for t in range(n)]
                lhs = dw.coefficient(i, j, k)
                rhs = (-evaluate(w, l.bracket(ei, ej), ek)
                       + evaluate(w, l.bracket(ei, ek), ej)
                       - evaluate(w, l.bracket(ej, ek), ei))
                assert lhs == rhs


def _ce_d_reference(l, c):
    """The dense triple loop that ce_d replaced: bracket_basis per pair."""
    n = l.dim
    if c.degree == 0:
        return Cochain(n, 1)
    out = {}
    if c.degree == 1:
        for i in range(n):
            for j in range(i + 1, n):
                w = l.bracket_basis(i, j)
                val = Fraction(0)
                for m, coef in enumerate(w):
                    if coef:
                        val = val - coef * c.coefficient(m)
                if val:
                    out[(i, j)] = val
        return Cochain(n, 2, out)
    # degree 2: d(w)(x,y,z) = -w([x,y],z) + w([x,z],y) - w([y,z],x)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                val = Fraction(0)
                for m, coef in enumerate(l.bracket_basis(i, j)):
                    if coef:
                        val = val - coef * c.coefficient(m, k)
                for m, coef in enumerate(l.bracket_basis(i, k)):
                    if coef:
                        val = val + coef * c.coefficient(m, j)
                for m, coef in enumerate(l.bracket_basis(j, k)):
                    if coef:
                        val = val - coef * c.coefficient(m, i)
                if val:
                    out[(i, j, k)] = val
    return Cochain(n, 3, out)


_VALUES = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]


def _random_table_algebras(rng, count):
    """Tables of dim 2..6 with fractional constants; Jacobi not enforced."""
    for _ in range(count):
        n = rng.randint(2, 6)
        yield LieAlgebra(n, {
            (i, j): {k: rng.choice(_VALUES) for k in rng.sample(range(n), 2)}
            for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4})


def _cochains(rng, n):
    """A 0-cochain, the basis 1-forms, and random 1- and 2-cochains."""
    yield Cochain(n, 0, {(): 3})
    for i in range(n):
        yield _one_form(n, i)
    for degree in (1, 2):
        for _ in range(3):
            yield Cochain(n, degree, {
                key: rng.choice(_VALUES)
                for key in itertools.combinations(range(n), degree)
                if rng.random() < 0.6})


def test_ce_d_matches_dense_reference():
    rng = random.Random(71)
    algebras = [catalog.get(name).algebra for name in catalog.list_names()]
    algebras += list(_random_table_algebras(rng, 200))
    count = 0
    for l in algebras:
        for c in _cochains(rng, l.dim):
            got, want = ce_d(l, c), _ce_d_reference(l, c)
            assert (got.degree, list(got.coeffs.items())) == \
                (want.degree, list(want.coeffs.items())), (l._table, c.coeffs)
            count += 1
    assert count > 2000


def test_h1_lie_frozen_table():
    expected = {
        "abelian": 4, "hyperelliptic": 2, "inoue-s0": 1,
        "primary-kodaira": 3, "secondary-kodaira": 1, "inoue-spm": 1,
        "example3": 2, "abelian3": 3, "nilpotent3": 2, "nonnilpotent3": 1,
    }
    for name, value in expected.items():
        l = catalog.get(name).algebra
        assert h1_lie(l) == value, name
        assert _h1_lie_by_kernel_reference(l) == value, name


def _h1_lie_by_kernel_reference(l):
    """h1_lie as the kernel of d on 1-forms: n minus the rank of the
    bracket rows, halved for a complex-form algebra."""
    rows = [l.bracket_basis(i, j)
            for i in range(l.dim) for j in range(i + 1, l.dim)]
    value = l.dim - (linalg.rank(rows) if rows else 0)
    drop = 2 if l.form == "complex" else 1
    if value % drop:
        raise ValueError("kernel of d is not i-invariant")
    return value // drop


def test_holonomy_action_validation():
    HolonomyAction([])
    HolonomyAction([[[1, 0], [0, 1]]])
    with pytest.raises(NonSemisimpleGenerator):
        HolonomyAction([[[1, 1], [0, 1]]])
    with pytest.raises(NonCommutingHolonomy):
        HolonomyAction([[[0, 1], [1, 0]], [[1, 0], [0, -1]]])
    with pytest.raises(BadHolonomy, match=r"generators\[0\]: .*singular"):
        HolonomyAction([[[0, 0], [0, 0]]])
    with pytest.raises(BadHolonomy, match=r"generators\[1\] has size 2"):
        HolonomyAction([[[1]], [[1, 0], [0, 1]]])
    with pytest.raises(BadHolonomy, match=r"^generators\[0\]: "):
        HolonomyAction([[]])
    with pytest.raises(TypeError):
        HolonomyAction([[[1.0, 0.0], [0.0, 1.0]]])


def test_holonomy_refuses_non_real_entries():
    with pytest.raises(ValueError, match="real entry required"):
        HolonomyAction([[[Scalar(1, 1)]]])
    with pytest.raises(ValueError, match="real entry required"):
        HolonomyAction([[["1+1*i"]]])


def test_real_part_subspace():
    # rotation by 90 degrees: no real eigenvalues at all
    rot = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]]
    assert real_part_subspace(rot).dim == 0
    # hyperbolic matrix: all eigenvalues real
    hyp = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert real_part_subspace(hyp).dim == 2
    # block diagonal mix keeps only the hyperbolic block
    mix = [[Fraction(2), Fraction(1), 0, 0],
           [Fraction(1), Fraction(1), 0, 0],
           [0, 0, Fraction(0), Fraction(-1)],
           [0, 0, Fraction(1), Fraction(0)]]
    sub = real_part_subspace([[Fraction(x) for x in row] for row in mix])
    assert sub.dim == 2
    assert sub.contains([Scalar(1), Scalar(0), Scalar(0), Scalar(0)])


def _poly_apply_reference(p, g):
    """_poly_apply's accumulation loop before mat_comb took it over."""
    n = len(g)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = linalg.identity(n)
    for c in p.coeffs:
        if c:
            acc = [[x + c * y for x, y in zip(ra, rp)]
                   for ra, rp in zip(acc, power)]
        power = linalg.mat_mul(power, g)
    return acc


def _real_part_by_factoring(g):
    """real_part_subspace's factor route, taken for every matrix."""
    vecs = []
    for factor, _mult in factor_rational(linalg.min_poly(g)):
        if factor.degree >= 1 and all_roots_real(factor):
            vecs.extend(linalg.nullspace(_poly_apply_reference(factor, g)))
    return Subspace(len(g), vecs)


# companion blocks of irreducible factors over Q, by their real roots
_REAL_BLOCKS = [[[1]], [[-2]], [[Fraction(1, 2)]], [[0, 2], [1, 0]],
                [[0, 3], [1, 1]]]
_NONREAL_BLOCKS = [[[0, -1], [1, 0]], [[0, -3], [1, 1]]]
_MIXED_BLOCKS = [[[0, 0, 2], [1, 0, 0], [0, 1, 0]]]     # t^3 - 2


def _block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[at + i][at + j] = Fraction(x)
        at += len(b)
    return out


def test_real_part_shortcut_matches_factor_route():
    """No real root, only real roots (both shortcuts), and a mix (factoring)."""
    rng = random.Random(11)
    with_real = _REAL_BLOCKS + _MIXED_BLOCKS
    with_nonreal = _NONREAL_BLOCKS + _MIXED_BLOCKS
    draws = {
        "none": lambda: rng.sample(_NONREAL_BLOCKS, rng.randint(1, 2)),
        "all": lambda: [rng.choice(_REAL_BLOCKS) for _ in range(rng.randint(1, 3))],
        "mixed": lambda: [rng.choice(with_real), rng.choice(with_nonreal)],
    }
    for kind, draw in sorted(draws.items()):
        for _ in range(12):
            blocks = draw()
            d = _block_diag(blocks)
            n = len(d)
            while True:
                p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(n)]
                if linalg.det(p) != 0:
                    break
            g = linalg.mat_mul(linalg.mat_mul(p, d), linalg.inverse(p))
            want = _real_part_by_factoring(g)
            assert real_part_subspace(g) == want, (kind, blocks)
            m = linalg.min_poly(g)
            branch = {0: "none", m.degree: "all"}.get(count_real_roots(m), "mixed")
            assert branch == kind


def test_poly_apply_matches_reference():
    """p(g) for p of every degree up to 4, zero coefficients included."""
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 4)
        g = [[Fraction(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)]
             for _ in range(n)]
        p = Poly([rng.choice([0, 1, -2, Fraction(1, 3)])
                  for _ in range(rng.randint(0, 4))] + [1])
        got = cohomology._poly_apply(p, g)
        assert got == _poly_apply_reference(p, g)
        assert all(type(x) is Fraction for row in got for x in row)


def test_winkelmann_table_never_imports_sympy():
    src = os.path.dirname(os.path.dirname(solvkit.__file__))
    code = ("import sys\n"
            "from solvkit import report\n"
            "assert report.check_winkelmann_table()['status'] == 'pass'\n"
            "print('sympy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def _fresh(l):
    """The same table in a new LieAlgebra, with nothing built yet."""
    return LieAlgebra(l.dim, {ij: {k: c.re for k, c in row.items()}
                              for ij, row in l._table.items()}, form=l.form)


def test_winkelmann_h1_builds_each_structural_fact_once(structural_builds):
    for name in catalog.list_names():
        l = _fresh(catalog.get(name).algebra)
        structural_builds.clear()
        winkelmann_h1(l, HolonomyAction([]))
        assert structural_builds == {"adjoints": 1, "cartan": 1}, name
        # h1_lie, quotient_dim and the nilradical check share one [g,g]
        assert l.derived_subalgebra() is l.derived_subalgebra()


def test_quotient_dim():
    assert quotient_dim(catalog.get("nonnilpotent3").algebra) == 4
    assert quotient_dim(catalog.get("nilpotent3").algebra) == 0
    assert quotient_dim(catalog.get("abelian3").algebra) == 0


def test_winkelmann_table_frozen():
    """The four 3-dim fixtures: h1 = 3, 2, 3, 1 split as lie + holonomy."""
    from solvkit import lattices

    nakamura = lattices.nakamura_lattice([[2, 1], [1, 1]], Fraction(1), 1)
    example6 = lattices.build_lattice_nonnilpotent(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 1, -3, 1]], k=1)
    cases = [
        ("abelian3", [], (3, 3, 0)),
        ("nilpotent3", [], (2, 2, 0)),
        ("nonnilpotent3", nakamura.holonomy_generators(), (3, 1, 2)),
        ("nonnilpotent3", example6.holonomy_generators(), (1, 1, 0)),
    ]
    for name, gens, want in cases:
        l = catalog.get(name).algebra
        got = winkelmann_h1(l, HolonomyAction(gens))
        assert (got["h1"], got["h1_lie"], got["dimW"]) == want, (name, got)


def test_winkelmann_guards():
    l = catalog.get("nonnilpotent3").algebra
    with pytest.raises(ValueError) as err:
        # generator size must match the 4-dim quotient
        winkelmann_h1(l, HolonomyAction([[[1, 0], [0, 1]]]))
    assert isinstance(err.value, SolvkitError)
    sl2 = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
    with pytest.raises(NotSolvable):
        winkelmann_h1(sl2, HolonomyAction([]))


def test_closed_holomorphic_1forms():
    assert closed_holomorphic_1forms(catalog.get("nilpotent3").algebra) == 2
    assert closed_holomorphic_1forms(catalog.get("abelian3").algebra) == 3
    with pytest.raises(NotNilpotent):
        closed_holomorphic_1forms(catalog.get("nonnilpotent3").algebra)
    with pytest.raises(ValueError):
        closed_holomorphic_1forms(catalog.get("abelian").algebra)


def test_pseudo_kahler_obstruction():
    assert pseudo_kahler_obstruction(3, 2) == "obstructed"
    assert pseudo_kahler_obstruction(3, 3) == "passes"
    assert pseudo_kahler_obstruction(3, 5) == "passes"
    with pytest.raises(ValueError):
        pseudo_kahler_obstruction(0, 1)
