"""Exact linear algebra: elimination, kernels, char/min polys, subspaces."""

import random
from fractions import Fraction

import pytest

from solvkit import linalg
from solvkit.linalg import Subspace
from solvkit.polys import Poly
from solvkit.scalars import Scalar


def _rand_matrix(rng, n, m):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(m)] for _ in range(n)]


def test_mat_mul_and_vec():
    a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    b = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    assert linalg.mat_mul(a, b) == [[Fraction(2), Fraction(1)],
                                    [Fraction(4), Fraction(3)]]
    assert linalg.mat_vec(a, [Fraction(1), Fraction(1)]) == [Fraction(3),
                                                             Fraction(7)]
    assert linalg.mat_trace(a) == 5
    assert linalg.transpose(a) == [[Fraction(1), Fraction(3)],
                                   [Fraction(2), Fraction(4)]]


def test_mat_vec_sparse_matches_dense():
    """Skipping zero entries keeps the values and the entry type."""
    rng = random.Random(13)
    kinds = [int, Fraction, lambda x: Scalar(x, rng.choice([0, 0, 1]))]
    for _ in range(60):
        conv = rng.choice(kinds)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[conv(rng.choice([0, 0, 0, 1, -2, Fraction(1, 2)]))
              for _ in range(m)] for _ in range(n)]
        v = [conv(rng.randint(-3, 3)) for _ in range(m)]
        dense = [sum((x * y for x, y in zip(row[1:], v[1:])), row[0] * v[0])
                 for row in a]
        got = linalg.mat_vec(a, v)
        assert got == dense
        assert [type(x) for x in got] == [type(x) for x in dense]


def test_rref_rank_nullspace_random():
    rng = random.Random(7)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_matrix(rng, n, m)
        r = linalg.rank(a)
        ker = linalg.nullspace(a)
        assert r + len(ker) == m       # rank-nullity
        for v in ker:
            assert linalg.is_zero_vec(linalg.mat_vec(a, v))


def test_solve():
    a = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    x = linalg.solve(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    # inconsistent system
    a2 = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.solve(a2, [Fraction(1), Fraction(3)]) is None
    with pytest.raises(ValueError):
        linalg.solve_unique(a2, [Fraction(1), Fraction(2)])


def test_inverse_and_det_random():
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        a = _rand_matrix(rng, 3, 3)
        if linalg.det(a) == 0:
            continue
        inv = linalg.inverse(a)
        assert linalg.mat_eq(linalg.mat_mul(a, inv), linalg.identity(3))
        checked += 1
    with pytest.raises(ValueError):
        linalg.inverse([[Fraction(1), Fraction(2)],
                        [Fraction(2), Fraction(4)]])


def test_det_multiplicative():
    rng = random.Random(17)
    for _ in range(40):
        a = _rand_matrix(rng, 3, 3)
        b = _rand_matrix(rng, 3, 3)
        assert linalg.det(linalg.mat_mul(a, b)) == linalg.det(a) * linalg.det(b)


def test_det_scalar_entries():
    m = [[Scalar(0, 1), Scalar(0)], [Scalar(0), Scalar(0, 1)]]
    assert linalg.det(m) == Scalar(-1)


def test_int_input_stays_exact():
    assert linalg.nullspace([[3, 1]]) == [[Fraction(-1, 3), Fraction(1)]]
    assert all(type(x) is Fraction for x in linalg.nullspace([[3, 1]])[0])
    d = linalg.det([[2, 1], [1, 1]])
    assert d == 1 and type(d) is Fraction
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.rref([[2, 4], [1, 3]]) == ([[1, 0], [0, 1]], [0, 1])
    assert Subspace(2, [[2, 1]]).rows == [[Fraction(1), Fraction(1, 2)]]


def test_floats_are_refused():
    with pytest.raises(TypeError):
        linalg.rref([[1, 0.5]])
    with pytest.raises(TypeError):
        linalg.nullspace([[3.0, 1]])
    with pytest.raises(TypeError):
        linalg.det([[2, 1], [1, 1.0]])


def test_char_poly():
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert linalg.char_poly(a) == Poly([1, -3, 1])
    # char poly of companion of t^4 - t^3 + 3t^2 - t + 1
    comp = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 1, -3, 1]]
    cf = [[Fraction(x) for x in row] for row in comp]
    assert linalg.char_poly(cf) == Poly([1, -1, 3, -1, 1])
    # Cayley-Hamilton spot check on random matrices
    rng = random.Random(23)
    for _ in range(20):
        m = _rand_matrix(rng, 3, 3)
        p = linalg.char_poly(m)
        acc = [[Fraction(0)] * 3 for _ in range(3)]
        power = linalg.identity(3)
        for c in p.coeffs:
            for i in range(3):
                for j in range(3):
                    acc[i][j] += c * power[i][j]
            power = linalg.mat_mul(power, m)
        assert all(x == 0 for row in acc for x in row)


def test_min_poly():
    # diagonal (1, 1, 2): minimal poly (t-1)(t-2), char poly has (t-1)^2
    d = [[Fraction(1), 0, 0], [0, Fraction(1), 0], [0, 0, Fraction(2)]]
    assert linalg.min_poly(d) == Poly([2, -3, 1])
    assert linalg.char_poly(d) == Poly([-2, 5, -4, 1])
    n = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
    assert linalg.min_poly(n) == Poly([0, 0, 1])
    assert linalg.min_poly(linalg.identity(4)) == Poly([-1, 1])


def _min_poly_reference(a):
    """The first dependence of the powers, found one rank test at a time."""
    m = [[Fraction(x) for x in row] for row in a]
    n = len(m)
    power = linalg.identity(n)
    flats = []
    for d in range(n + 1):
        flat = [x for row in power for x in row]
        cols = linalg.transpose(flats + [flat])
        if flats and linalg.rank(cols) == len(flats):
            sol = linalg.solve([list(r) for r in linalg.transpose(flats)], flat)
            assert sol is not None
            return Poly(list(sol) + [Fraction(-1)]) * Fraction(-1)
        flats.append(flat)
        power = linalg.mat_mul(power, m)
    raise AssertionError("no dependence among matrix powers up to dimension")


def test_min_poly_matches_reference():
    """Random matrices and derogatory ones (conjugated block diagonals)."""
    rng = random.Random(12)
    for trial in range(120):
        n = rng.randint(1, 5)
        if trial % 2:
            a = _rand_matrix(rng, n, n)
        else:
            # repeated eigenvalues in a random basis: 2x2 Jordan blocks or
            # scalar blocks, so the minimal polynomial is a proper divisor
            d = [[Fraction(0)] * n for _ in range(n)]
            lams = [rng.randint(-2, 2) for _ in range(2)]
            for i in range(n):
                d[i][i] = Fraction(lams[i % 2])
                if i + 2 < n and rng.random() < 0.5:
                    d[i][i + 2] = Fraction(1)
            p = [[Fraction(rng.randint(-2, 2) + (i == j) * 3)
                  for j in range(n)] for i in range(n)]
            if linalg.det(p) == 0:
                continue
            a = linalg.mat_mul(linalg.mat_mul(p, d), linalg.inverse(p))
        assert linalg.min_poly(a) == _min_poly_reference(a)


def test_subspace_basics():
    s = Subspace(3, [[Fraction(1), Fraction(0), Fraction(1)],
                     [Fraction(2), Fraction(0), Fraction(2)]])
    assert s.dim == 1
    assert s.contains([Fraction(-3), Fraction(0), Fraction(-3)])
    assert not s.contains([Fraction(1), Fraction(1), Fraction(1)])
    with pytest.raises(ValueError):
        s.contains([Fraction(1)])
    # canonical form makes equality set-theoretic
    t = Subspace(3, [[Fraction(5), Fraction(0), Fraction(5)]])
    assert s == t
    assert hash(s) == hash(t)


def test_subspace_lattice_operations():
    e1 = [Fraction(1), Fraction(0), Fraction(0)]
    e2 = [Fraction(0), Fraction(1), Fraction(0)]
    e3 = [Fraction(0), Fraction(0), Fraction(1)]
    a = Subspace(3, [e1, e2])
    b = Subspace(3, [e2, e3])
    assert a.intersect(b) == Subspace(3, [e2])
    assert a.add(b).dim == 3
    assert Subspace(3, [e2]) <= a
    assert not (a <= b)
    assert a.intersect(Subspace(3)) == Subspace(3)


def test_subspace_intersection_random():
    rng = random.Random(29)
    for _ in range(40):
        a = Subspace(4, [_rand_matrix(rng, 1, 4)[0] for _ in range(2)])
        b = Subspace(4, [_rand_matrix(rng, 1, 4)[0] for _ in range(2)])
        cap = a.intersect(b)
        assert cap <= a and cap <= b
        # dim(A) + dim(B) = dim(A+B) + dim(A cap B)
        assert a.dim + b.dim == a.add(b).dim + cap.dim
