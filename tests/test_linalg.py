"""Exact linear algebra: elimination, kernels, char/min polys, subspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvkit import linalg
from solvkit.linalg import Subspace
from solvkit.polys import Poly, is_squarefree
from solvkit.scalars import Scalar, exact


_KINDS = (int, Fraction)


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
    for _ in range(60):
        conv = rng.choice(_KINDS)
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[conv(rng.choice([0, 0, 0, 1, -2, Fraction(1, 2)]))
              for _ in range(m)] for _ in range(n)]
        v = [conv(rng.randint(-3, 3)) for _ in range(m)]
        dense = [sum((x * y for x, y in zip(row[1:], v[1:])), row[0] * v[0])
                 for row in a]
        got = linalg.mat_vec(a, v)
        assert got == dense
        assert [type(x) for x in got] == [type(x) for x in dense]


def _mat_mul_reference(a, b):
    """The dense product mat_mul replaced: every a[i][p] b[p][j] is taken."""
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a), "shape mismatch"
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for p in range(1, k):
                acc = acc + a[i][p] * b[p][j]
            row.append(acc)
        out.append(row)
    return out


def _sparse_matrix(rng, conv, n, m):
    """Mostly zero entries, with a whole zero row or column now and then."""
    a = [[conv(rng.choice([0, 0, 0, 1, -2, Fraction(1, 2)]))
          for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.3:
        a[rng.randrange(n)] = [conv(0)] * m
    if rng.random() < 0.3:
        col = rng.randrange(m)
        for row in a:
            row[col] = conv(0)
    return a


def _types(m):
    return [[type(x) for x in row] for row in m]


def test_mat_mul_matches_dense_reference():
    """Skipping zero entries of a keeps the values and the entry types,
    on int and Fraction matrices of any shape."""
    rng = random.Random(17)
    for _ in range(150):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = _sparse_matrix(rng, rng.choice(_KINDS), n, k)
        b = _sparse_matrix(rng, rng.choice(_KINDS), k, m)
        got, want = linalg.mat_mul(a, b), _mat_mul_reference(a, b)
        assert got == want
        assert _types(got) == _types(want)
    with pytest.raises(AssertionError):
        linalg.mat_mul([[1, 2]], [[1, 2]])


def test_mat_comb_matches_entrywise_sum():
    rng = random.Random(19)
    for _ in range(100):
        conv = rng.choice(_KINDS)
        n, m, r = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        mats = [_sparse_matrix(rng, conv, n, m) for _ in range(r)]
        coeffs = [conv(rng.choice([0, 0, 1, -3])) for _ in range(r)]
        want = [[sum((c * mt[i][j] for c, mt in zip(coeffs[1:], mats[1:])),
                     coeffs[0] * mats[0][i][j]) for j in range(m)]
                for i in range(n)]
        got = linalg.mat_comb(coeffs, mats)
        assert got == want
        assert _types(got) == _types(want)


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


def _rref_reference(rows):
    """The Gauss-Jordan rref over Fractions that the integer echelon replaced."""
    m = [[exact(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def _char_poly_reference(a):
    """Faddeev-LeVerrier over Fractions, as char_poly ran before it took ints."""
    m = [[exact(x) for x in row] for row in a]
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = linalg.identity(n)
    for k in range(1, n + 1):
        mk = linalg.mat_mul(m, mk)
        c = -linalg.mat_trace(mk) / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return Poly(coeffs)


_INTS = st.integers(-6, 6)
_RATIONALS = st.builds(Fraction, _INTS, st.sampled_from([1, 2, 3, 6]))


@st.composite
def _matrices(draw, square=False):
    """Int or rational rows, 1-8 wide, with zero rows and dependent rows."""
    entries = draw(st.sampled_from([_INTS, _RATIONALS]))
    width = draw(st.integers(1, 8))
    rows = []
    for _ in range(width if square else draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * width)
        elif kind == "combination" and rows:
            u, v, c = (draw(st.sampled_from(rows)), draw(st.sampled_from(rows)),
                       draw(entries))
            rows.append([x + c * y for x, y in zip(u, v)])
        else:
            rows.append(draw(st.lists(entries, min_size=width, max_size=width)))
    return rows


@given(_matrices())
def test_rref_matches_fraction_reference(a):
    got, want = linalg.rref(a), _rref_reference(a)
    assert got == want
    assert _types(got[0]) == _types(want[0])
    assert linalg.rank(a) == len(want[0])


@given(_matrices(square=True))
def test_char_poly_matches_fraction_reference(a):
    got, want = linalg.char_poly(a), _char_poly_reference(a)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_scaled():
    s, ints = linalg.scaled([[Fraction(1, 2), 3], [Fraction(-2, 3), "1/6"]])
    assert (s, ints) == (6, [[3, 18], [-4, 1]])
    assert all(type(x) is int for row in ints for x in row)
    assert linalg.scaled([]) == (1, [])
    assert linalg.scaled([[Scalar(4, 0)]]) == (1, [[4]])


def test_non_real_entries_are_refused():
    m = [[1, Scalar(0, 1)], [0, 1]]
    for call in (linalg.scaled, linalg.rref, linalg.rank, linalg.char_poly,
                 linalg.det, lambda a: Subspace(2, a)):
        with pytest.raises(ValueError, match="real entry required"):
            call(m)


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
    """det is no longer field-generic: real Scalars are read as Fractions,
    and a non-real entry is refused."""
    assert linalg.det([[Scalar(2), Scalar(0)], [Scalar(0), Scalar(3)]]) == 6
    m = [[Scalar(0, 1), Scalar(0)], [Scalar(0), Scalar(0, 1)]]
    with pytest.raises(ValueError, match="real entry required"):
        linalg.det(m)


def _det_reference(a):
    """Determinant by elimination over the rationals: the Gauss loop det
    ran before it read char_poly."""
    n = len(a)
    m = [[exact(x) for x in row] for row in a]
    acc = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            acc = -acc
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        acc *= m[c][c]
    return acc


def test_det_matches_the_gauss_route():
    """det, (-1)^n times char_poly's constant term, against the Fraction
    elimination it replaced on 240 seeded matrices of sizes 0-6: int,
    Fraction, int with a row combining the others, and Fraction with a
    column a multiple of another."""
    rng = random.Random(28)
    sizes, singular = set(), 0
    for trial in range(240):
        n = rng.randint(0 if trial % 4 < 2 else 1, 6)
        if trial % 4 == 0:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        elif trial % 4 == 1:
            a = _rand_matrix(rng, n, n)
        elif trial % 4 == 2:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            c = [rng.randint(-2, 2) for _ in a]
            a.insert(rng.randint(0, n - 1), [
                sum(x * row[k] for x, row in zip(c, a)) for k in range(n)])
        else:
            a = _rand_matrix(rng, n, n)
            src, dst = rng.randrange(n), rng.randrange(n)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for row in a:
                row[dst] = f * row[src] if src != dst else 0
        got = linalg.det(a)
        assert got == _det_reference(a) and type(got) is Fraction, a
        sizes.add(n)
        singular += got == 0
    assert sizes == set(range(7)) and singular >= 120


@pytest.mark.parametrize("a", [[[1, 2]], [[1], [2]], [[1, 2], [3]]],
                         ids=["1x2", "2x1", "ragged"])
def test_char_poly_and_det_refuse_a_matrix_that_is_not_square(a):
    for call in (linalg.char_poly, linalg.det):
        with pytest.raises(ValueError, match="matrix is not square"):
            call(a)


def test_int_input_stays_exact():
    assert linalg.nullspace([[3, 1]]) == [[Fraction(-1, 3), Fraction(1)]]
    assert all(type(x) is Fraction for x in linalg.nullspace([[3, 1]])[0])
    d = linalg.det([[2, 1], [1, 1]])
    assert d == 1 and type(d) is Fraction
    assert linalg.det([[1, 2], [3, 4]]) == -2
    assert linalg.det([]) == 1 and type(linalg.det([])) is Fraction
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
    """The Fraction route min_poly replaced: one kernel of the flattened
    powers a^0..a^n, whose columns have pivots 0..d-1 before the first free
    column d, so the first kernel vector is (c_0, ..., c_{d-1}, 1, 0, ...).
    """
    m = [[exact(x) for x in row] for row in a]
    powers = [linalg.identity(len(m))]
    for _ in m:
        powers.append(linalg.mat_mul(powers[-1], m))
    flats = [[x for row in p for x in row] for p in powers]
    return Poly(linalg.nullspace(linalg.transpose(flats))[0])


def _min_poly_by_rank(a):
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
            return Poly([-x for x in sol] + [1])
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
        assert linalg.min_poly(a) == _min_poly_by_rank(a)


def _jordan_in_random_basis(rng, n):
    """P D P^-1 for D of Jordan blocks of size 1-3 on eigenvalues -1..1
    and an invertible int P: non-semisimple whenever a block has size > 1,
    singular whenever 0 is an eigenvalue."""
    d = [[0] * n for _ in range(n)]
    start = 0
    while start < n:
        size, lam = min(rng.randint(1, 3), n - start), rng.randint(-1, 1)
        for i in range(start, start + size):
            d[i][i] = lam
            if i + 1 < start + size:
                d[i][i + 1] = 1
        start += size
    while True:
        p = [[rng.randint(-2, 2) + 3 * (i == j) for j in range(n)]
             for i in range(n)]
        if linalg.det(p):
            return linalg.mat_mul(linalg.mat_mul(p, d), linalg.inverse(p))


def test_min_poly_matches_the_dense_route():
    """The int route against the Fraction route it replaced, on 240 seeded
    matrices of sizes 1-6: int, Fraction, singular int, and Jordan forms
    in a random basis."""
    rng = random.Random(26)
    singular = repeated = 0
    for trial in range(240):
        n = rng.randint(1, 6)
        if trial % 4 == 0:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        elif trial % 4 == 1:
            a = _rand_matrix(rng, n, n)
        elif trial % 4 == 2:    # the last row a combination of the others
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
            c = [rng.randint(-2, 2) for _ in a]
            a.append([sum(x * row[k] for x, row in zip(c, a))
                      for k in range(n)])
        else:
            a = _jordan_in_random_basis(rng, n)
        got = linalg.min_poly(a)
        assert got == _min_poly_reference(a)
        singular += got[0] == 0
        repeated += not is_squarefree(got)
    assert singular >= 60 and repeated >= 30


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


def _contains_reference(s, v):
    """Subspace.contains before the pivots were kept: each lead re-found."""
    if len(v) != s.ambient:
        raise ValueError("ambient dimension mismatch")
    red = list(v)
    for row in s.rows:
        lead = next(c for c in range(s.ambient) if row[c])
        if red[lead]:
            f = red[lead]
            red = [x - f * y for x, y in zip(red, row)]
    return linalg.is_zero_vec(red)


def _intersect_reference(s, other):
    """Subspace.intersect before its vectors came from one mat_mul."""
    assert s.ambient == other.ambient
    if s.dim == 0 or other.dim == 0:
        return Subspace(s.ambient)
    # x in U cap V: x = a . U_rows = b . V_rows; solve for (a, b)
    stacked = linalg.transpose(
        [list(r) for r in s.rows]
        + [linalg.vec_scale(Fraction(-1), list(r)) for r in other.rows])
    vecs = []
    for sol in linalg.nullspace(stacked):
        a = sol[:s.dim]
        v = [Fraction(0)] * s.ambient
        for c, row in zip(a, s.rows):
            if c:
                v = [x + c * y for x, y in zip(v, row)]
        vecs.append(v)
    return Subspace(s.ambient, vecs)


def test_subspace_pivots_contains_and_intersect_match_references():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 5)
        a, b = (Subspace(n, _sparse_matrix(rng, Fraction, rng.randint(1, 4), n))
                for _ in range(2))
        assert a.pivots == [next(c for c in range(n) if row[c])
                            for row in a.rows]
        cap = a.intersect(b)
        assert cap == _intersect_reference(a, b)
        assert _types(cap.rows) == _types(_intersect_reference(a, b).rows)
        for v in _sparse_matrix(rng, Fraction, 4, n) + a.rows + cap.rows:
            assert a.contains(v) == _contains_reference(a, v)


def test_subspace_intersection_random():
    rng = random.Random(29)
    for _ in range(40):
        a = Subspace(4, [_rand_matrix(rng, 1, 4)[0] for _ in range(2)])
        b = Subspace(4, [_rand_matrix(rng, 1, 4)[0] for _ in range(2)])
        cap = a.intersect(b)
        assert cap <= a and cap <= b
        # dim(A) + dim(B) = dim(A+B) + dim(A cap B)
        assert a.dim + b.dim == a.add(b).dim + cap.dim
