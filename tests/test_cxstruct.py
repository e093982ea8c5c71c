"""Almost complex structures, Nijenhuis tensor, and the subalgebra
correspondence in both directions."""

import collections
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvkit import catalog, cxstruct, linalg, report
from solvkit.cxstruct import (AlmostComplexStructure, IntegrabilityReport,
                              is_integrable, j_from_images, j_from_subspace,
                              subalgebra_from_j, tautological_j)
from solvkit.errors import InternalCheckFailed, NotIntegrable, NotTransverse
from solvkit.liealg import LieAlgebra
from solvkit.scalars import Scalar, exact


def standard_j4():
    return j_from_images(4, {0: {1: 1}, 1: {0: -1}, 2: {3: 1}, 3: {2: -1}})


def pair_swap_j4():
    # e0 <-> e2 and e1 <-> e3 with signs; squares to -I but mixes the blocks
    return j_from_images(4, {0: {2: 1}, 2: {0: -1}, 1: {3: 1}, 3: {1: -1}})


def test_j_validation():
    with pytest.raises(ValueError):
        AlmostComplexStructure([[Scalar(0)]])         # odd dimension
    with pytest.raises(ValueError):
        AlmostComplexStructure([[Scalar(1), Scalar(0)],
                                [Scalar(0), Scalar(1)]])   # J^2 = I
    with pytest.raises(ValueError):
        AlmostComplexStructure([["i", "0"], ["0", "i"]])   # complex entries
    j = standard_j4()
    assert j.dim == 4
    assert linalg.mat_vec(j.matrix, [1, 0, 0, 0]) == [
        Scalar(0), Scalar(1), Scalar(0), Scalar(0)]


def _j_squared_reference(matrix):
    """The Fraction J^2 = -I check, a dense product of J with itself."""
    m = [[exact(x) for x in row] for row in matrix]
    n = len(m)
    minus_eye = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
    square = [[sum((m[i][p] * m[p][j] for p in range(1, n)), m[i][0] * m[0][j])
               for j in range(n)] for i in range(n)]
    return linalg.mat_eq(square, minus_eye)


def test_j_squared_check_in_ints_matches_fraction_reference():
    """Rational J's conjugate to the standard one pass, perturbed ones fail,
    and scaled holds the least t with t J integral, and t J itself."""
    rng = random.Random(71)
    pool = [0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)]
    seen = set()
    for _ in range(60):
        n = rng.choice([2, 4, 6])
        j0 = j_from_images(n, {k: {k ^ 1: 1 if k % 2 == 0 else -1}
                               for k in range(n)})
        low = [[1 if r == c else (rng.choice(pool) if r > c else 0)
                for c in range(n)] for r in range(n)]
        up = [[rng.choice(pool[2:]) if r == c else
               (rng.choice(pool) if r < c else 0)
               for c in range(n)] for r in range(n)]
        p = linalg.mat_mul(low, up)
        m = linalg.mat_mul(linalg.mat_mul(linalg.inverse(p), j0.matrix), p)
        if rng.random() < 0.5:
            m[rng.randrange(n)][rng.randrange(n)] += rng.choice(pool[2:])
        ok = _j_squared_reference(m)
        seen.add(ok)
        if not ok:
            with pytest.raises(ValueError, match=r"J\^2 is not -I"):
                AlmostComplexStructure(m)
            continue
        j = AlmostComplexStructure(m)
        t, jt = j.scaled
        assert t == math.lcm(*(x.denominator for row in m for x in row))
        assert jt == [[t * x for x in row] for row in m]
        assert all(type(x) is int for row in jt for x in row)
    assert seen == {False, True}


def test_j_from_images_accepts_dicts_and_pairs():
    a = j_from_images(2, {0: {1: 1}, 1: {0: -1}})
    b = j_from_images(2, {0: [(1, 1)], 1: [(0, -1)]})
    assert a == b


def nijenhuis(l, j, u, v):
    """N(u, v) = [Ju, Jv] - J[Ju, v] - J[u, Jv] - [u, v], term by term on
    Fraction vectors: the tensor is_integrable scans in ints."""
    ju = linalg.mat_vec(j.matrix, u)
    jv = linalg.mat_vec(j.matrix, v)
    term = l.bracket(ju, jv)
    term = _vec_sub(term, linalg.mat_vec(j.matrix, l.bracket(ju, v)))
    term = _vec_sub(term, linalg.mat_vec(j.matrix, l.bracket(u, jv)))
    term = _vec_sub(term, l.bracket(u, v))
    return term


def _vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def test_nijenhuis_bilinear_antisymmetric():
    l = catalog.get("hyperelliptic").algebra
    j = pair_swap_j4()
    rng = random.Random(41)
    for _ in range(40):
        u = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        v = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        n_uv = nijenhuis(l, j, u, v)
        n_vu = nijenhuis(l, j, v, u)
        assert n_uv == [-x for x in n_vu]
        # N(JX, Y) = -J N(X, Y)
        lhs = nijenhuis(l, j, linalg.mat_vec(j.matrix, u), v)
        rhs = [-x for x in linalg.mat_vec(j.matrix, n_uv)]
        assert lhs == rhs


def test_integrability_on_catalog():
    for name in catalog.list_names():
        entry = catalog.get(name)
        if entry.j is None:
            continue
        assert is_integrable(entry.algebra, entry.j).ok, name


def _integrable_reference(l, j):
    """The nijenhuis loop over Scalar brackets that is_integrable replaced."""
    for a in range(l.dim):
        ea = [Scalar(1 if k == a else 0) for k in range(l.dim)]
        for b in range(a + 1, l.dim):
            eb = [Scalar(1 if k == b else 0) for k in range(l.dim)]
            val = nijenhuis(l, j, ea, eb)
            if not linalg.is_zero_vec(val):
                return IntegrabilityReport(False, (a, b), val)
    return IntegrabilityReport(True)


def test_integrability_matches_reference_on_catalog():
    for name in catalog.list_names():
        entry = catalog.get(name)
        js = [entry.j] + ([pair_swap_j4()] if entry.algebra.dim == 4 else [])
        for j in js:
            assert is_integrable(entry.algebra, j) == \
                _integrable_reference(entry.algebra, j), name


H, T, Q = Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)
# R x_D R^3 with fractional D and the standard J, which is not integrable
SEMIDIRECT = LieAlgebra(4, {(0, 1): {1: H}, (0, 2): {2: T, 3: Q},
                            (0, 3): {3: T}})


def test_integrability_witness_with_fractions():
    # J = P J0 P^-1 with fractional P and P e1 = e1, so N(e1, e2) = 0
    j = AlmostComplexStructure([[0, -2, Fraction(-4, 3), Fraction(5, 2)],
                                [H, 0, Q, Fraction(5, 48)],
                                [0, 0, Q, Fraction(-25, 16)], [0, 0, 1, -Q]])
    rep = is_integrable(SEMIDIRECT, j)
    assert rep == IntegrabilityReport(False, (0, 2), [
        Scalar(Fraction(11, 32)), Scalar(Fraction(1657, 2304)),
        Scalar(Fraction(225, 256)), Scalar(Fraction(-21, 64))])
    assert rep == _integrable_reference(SEMIDIRECT, j)


def _transport(l, p):
    """The algebra with constants P^-1 [P e_i, P e_j]: isomorphic to l."""
    n = l.dim
    p_inv = linalg.inverse(p)
    cols = linalg.transpose(p)
    return LieAlgebra(n, {
        (i, j): dict(enumerate(linalg.mat_vec(p_inv, l.bracket(cols[i], cols[j]))))
        for i in range(n) for j in range(i + 1, n)})


_POOL = [0, 0, 0, 1, -1, 2, H, T, Q]


@st.composite
def _algebra_and_j(draw):
    """A J conjugated by a fractional P, on l or on l carried along by P.

    Carried along, the pair stays integrable iff it was; on the unchanged
    algebra the conjugated J is usually not integrable.
    """
    name = draw(st.sampled_from(["hyperelliptic", "inoue-s0", "inoue-spm",
                                 "secondary-kodaira", "semidirect"]))
    if name == "semidirect":
        l, j = SEMIDIRECT, standard_j4()
    else:
        l, j = catalog.get(name).algebra, catalog.get(name).j
    p = _fractional_p(draw, l.dim)
    return (_transport(l, p) if draw(st.booleans()) else l), _conjugate(j, p)


def _fractional_p(draw, n):
    """An invertible L U with fractional entries drawn from _POOL."""
    return _lu_p(lambda pool: draw(st.sampled_from(pool)), n)


def _lu_p(pick, n):
    """L U, unit L, with entries pick(_POOL) and a nonzero diagonal of U."""
    low = [[1 if r == c else (pick(_POOL) if r > c else 0)
            for c in range(n)] for r in range(n)]
    up = [[pick(_POOL[3:]) if r == c else (pick(_POOL) if r < c else 0)
           for c in range(n)] for r in range(n)]
    return linalg.mat_mul(low, up)


def _conjugate(j, p):
    return AlmostComplexStructure(
        linalg.mat_mul(linalg.mat_mul(linalg.inverse(p), j.matrix), p))


@settings(max_examples=30)
@given(_algebra_and_j())
def test_integrability_matches_reference_on_conjugated_j(pair):
    l, j = pair
    assert is_integrable(l, j) == _integrable_reference(l, j)


def test_negative_controls_frozen():
    """Signed basis swaps that break integrability, with pinned witnesses."""
    expected = {
        "hyperelliptic": ((0, 1), ["0", "0", "0", "-1"]),
        "inoue-s0": ((0, 1), ["0", "0", "3", "-1"]),
        "primary-kodaira": ((0, 1), ["0", "0", "1", "0"]),
    }
    for name, (pair, value) in expected.items():
        entry = catalog.get(name)
        rep = is_integrable(entry.algebra, pair_swap_j4())
        assert not rep.ok, name
        assert rep.witness == pair
        assert [str(x) for x in rep.value] == value
        with pytest.raises(NotIntegrable):
            subalgebra_from_j(entry.algebra, pair_swap_j4())


def test_round_trip_identity():
    for name in catalog.list_names():
        entry = catalog.get(name)
        if entry.j is None:
            continue
        sub = subalgebra_from_j(entry.algebra, entry.j)
        assert sub.complex_dim * 2 == entry.algebra.dim
        back = j_from_subspace(sub.ambient, sub.basis)
        assert back == entry.j, name


def test_subalgebra_is_i_invariant_and_transverse():
    entry = catalog.get("secondary-kodaira")
    sub = subalgebra_from_j(entry.algebra, entry.j)
    lc = sub.ambient
    mi = lc.mult_i_matrix()
    for v in sub.basis.basis:
        assert sub.basis.contains(linalg.mat_vec(mi, v))
    conj = [linalg.mat_vec(lc.sigma, v) for v in sub.basis.basis]
    assert linalg.rank(sub.basis.basis + conj) == lc.dim


def test_j_from_subspace_rejects_bad_input():
    entry = catalog.get("hyperelliptic")
    sub = subalgebra_from_j(entry.algebra, entry.j)
    lc = sub.ambient
    # the conjugate copy sigma(h) is i-invariant but fails transversality
    # with itself only through the solve; a non-i-invariant space fails fast
    bad = linalg.Subspace(8, [[Scalar(1 if t == 0 else 0) for t in range(8)],
                              [Scalar(1 if t == 1 else 0) for t in range(8)],
                              [Scalar(1 if t == 2 else 0) for t in range(8)],
                              [Scalar(1 if t == 3 else 0) for t in range(8)]])
    with pytest.raises(NotTransverse):
        j_from_subspace(lc, bad)
    with pytest.raises(ValueError):
        j_from_subspace(entry.algebra, sub.basis)   # not a complexification


def test_j_from_subspace_needs_real_parts_that_span():
    # h = C X1 is i-invariant, and a conjugation swapping X1 and X2 makes
    # h + sigma(h) everything, but no element of h has real part X2
    swap = [[int(c == r ^ 1) for c in range(4)] for r in range(4)]
    lc = LieAlgebra(4, {}, form="complex", sigma=swap)
    h = linalg.Subspace(4, [[1, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(NotTransverse, match="real parts of the subspace do not span"):
        j_from_subspace(lc, h)


def _j_from_subspace_reference(lc, space):
    """J column by column: one solve of c R = e_k per k, then J e_k = c M."""
    n = lc.dim // 2
    b_re = [row[:n] for row in space.basis]
    b_im = [row[n:] for row in space.basis]
    cols = []
    for k in range(n):
        c = linalg.solve_unique(linalg.transpose(b_re),
                                [Fraction(int(a == k)) for a in range(n)])
        img = [Fraction(0)] * n
        for coef, row in zip(c, b_im):
            img = [x + coef * y for x, y in zip(img, row)]
        cols.append(img)
    return AlmostComplexStructure(linalg.transpose(cols))


@st.composite
def _integrable_pair(draw):
    """An integrable catalog pair carried along by a fractional P."""
    entry = catalog.get(draw(st.sampled_from([
        "abelian", "hyperelliptic", "inoue-s0", "inoue-spm",
        "primary-kodaira", "secondary-kodaira", "nilpotent3"])))
    p = _fractional_p(draw, entry.algebra.dim)
    return _transport(entry.algebra, p), _conjugate(entry.j, p)


@settings(max_examples=30)
@given(_integrable_pair())
def test_j_from_subspace_matches_solve_route(pair):
    l, j = pair
    sub = subalgebra_from_j(l, j)
    back = j_from_subspace(sub.ambient, sub.basis)
    assert back == _j_from_subspace_reference(sub.ambient, sub.basis) == j


def _subalgebra_from_j_reference(l, j):
    """The Fraction route subalgebra_from_j replaced: every vector through
    a dense mat_vec, the closure through a contains per vector."""
    rep = is_integrable(l, j)
    if not rep.ok:
        raise NotIntegrable("Nijenhuis tensor nonzero on basis pair %r" % (rep.witness,))
    n = l.dim
    lc = l.complexify()
    vecs = []
    for k in range(n):
        ek = l._e(k)
        jek = linalg.mat_vec(j.matrix, ek)
        vecs.append(ek + jek)                       # X_k + i J X_k
        vecs.append([-x for x in jek] + ek)          # i (X_k + i J X_k)
    space = linalg.Subspace(2 * n, vecs)
    if space.dim != n:
        raise InternalCheckFailed("holomorphic subspace has wrong dimension")
    # direct sum with the conjugate copy
    conj_vecs = [_apply_sigma_reference(lc, v) for v in space.basis]
    if linalg.rank(space.basis + conj_vecs) != 2 * n:
        raise NotTransverse("subspace meets its conjugate nontrivially")
    # bracket closure (equivalent to the vanishing already checked; verified
    # independently, on lc's own adjoints, so the two roads cross-check)
    if not lc.bracket_span(space, space) <= space:
        raise InternalCheckFailed("integrable J produced a non-closed subspace")
    return cxstruct.ComplexSubalgebra(lc, space)


def _apply_sigma_reference(lc, v):
    assert lc.sigma is not None
    return linalg.mat_vec(lc.sigma, v)


def _j_from_subspace_dense_reference(lc, space):
    """The Fraction route j_from_subspace replaced: i-invariance by a
    contains per basis vector, sigma by a dense mat_vec per vector."""
    if lc.form != "complex" or lc.sigma is None:
        raise ValueError("expected a complexification with conjugation")
    n = lc.dim // 2
    if space.ambient != 2 * n:
        raise ValueError("subspace lives in the wrong ambient space")
    mi = lc.mult_i_matrix()
    for v in space.basis:
        if not space.contains(linalg.mat_vec(mi, v)):
            raise NotTransverse("subspace is not invariant under multiplication by i")
    conj_vecs = [_apply_sigma_reference(lc, v) for v in space.basis]
    if space.dim != n or linalg.rank(space.basis + conj_vecs) != 2 * n:
        raise NotTransverse("subspace and its conjugate do not split the space")
    b_re = [row[:n] for row in space.basis]
    b_im = [row[n:] for row in space.basis]
    try:
        re_inv = linalg.inverse(linalg.transpose(b_re))
    except ValueError as exc:
        raise NotTransverse("real parts of the subspace do not span") from exc
    return AlmostComplexStructure(
        linalg.mat_mul(linalg.transpose(b_im), re_inv))


def _round_trip_reference(l, j):
    """(subalgebra, recovered J) by the Fraction route, or what it raised."""
    return _outcome(lambda: _round_trip(
        l, j, _subalgebra_from_j_reference, _j_from_subspace_dense_reference))


def _round_trip(l, j, to_space=subalgebra_from_j, to_j=j_from_subspace):
    sub = to_space(l, j)
    return sub.basis, to_j(sub.ambient, sub.basis)


def _outcome(call):
    """call(), or the type and message of the exception it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def test_round_trip_matches_the_dense_route_on_the_catalog():
    """Every integrable catalog pair, each carried along by a seeded
    fractional P, and the report's negative controls."""
    rng = random.Random(26)
    pairs = []
    for name in catalog.list_names():
        entry = catalog.get(name)
        if entry.j is not None:
            p = _lu_p(rng.choice, entry.algebra.dim)
            pairs += [(entry.algebra, entry.j),
                      (_transport(entry.algebra, p), _conjugate(entry.j, p))]
    for name, _ in report.NEGATIVE_CONTROLS:
        entry = catalog.get(name)
        pairs.append((entry.algebra, report.pair_swap_j(entry.algebra.dim)))
    outcomes = [_outcome(lambda: _round_trip(l, j)) for l, j in pairs]
    assert outcomes == [_round_trip_reference(l, j) for l, j in pairs]
    assert all(back == j for (_, back), (_, j) in zip(outcomes[:-3], pairs))
    assert [o[0] for o in outcomes[-3:]] == [NotIntegrable] * 3


def _seeded_subspaces(rng, lc):
    """Subspaces of lc (split basis, n = lc.dim // 2) of four kinds: any n
    vectors, i-invariant of dimension n - 2 or n, and i-invariant of
    dimension n through a real vector."""
    n = lc.dim // 2

    def vec():
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                for _ in range(2 * n)]

    def with_i(vs):
        return vs + [[-x for x in v[n:]] + v[:n] for v in vs]

    real = vec()[:n] + [0] * n
    return [linalg.Subspace(2 * n, vs) for vs in (
        [vec() for _ in range(n)],
        with_i([vec() for _ in range(n // 2 - 1)]),
        with_i([vec() for _ in range(n // 2)]),
        with_i([real] + [vec() for _ in range(n // 2 - 1)]),
    )]


def test_j_from_subspace_refuses_as_the_dense_route_did():
    """Seeded subspaces that are not i-invariant, not of half dimension or
    not transverse, and transverse ones, with the standard conjugation and
    one that swaps coordinates: the same J or the same refusal."""
    rng = random.Random(62)
    seen = collections.Counter()
    for name in ("hyperelliptic", "inoue-s0", "nonnilpotent3"):
        lc = catalog.get(name).algebra.complexify()
        swap = LieAlgebra(lc.dim, {}, form="complex", sigma=[
            [int(c == r ^ 1) for c in range(lc.dim)] for r in range(lc.dim)])
        for _ in range(8):
            for amb in (lc, swap):
                for space in _seeded_subspaces(rng, amb):
                    got = _outcome(lambda: j_from_subspace(amb, space))
                    assert got == _outcome(
                        lambda: _j_from_subspace_dense_reference(amb, space))
                    seen[got[1] if isinstance(got, tuple) else "J"] += 1
    assert len(seen) == 4 and min(seen.values()) >= 20, seen


def test_tautological_j_is_complex_linear():
    entry = catalog.get("nonnilpotent3")
    j = entry.j
    assert j == tautological_j(entry.algebra)
    assert _is_complex_lie_algebra_reference(entry.algebra, j)
    assert is_integrable(entry.algebra, j).ok
    # the surface J's are integrable but not C-linear in general
    hyp = catalog.get("hyperelliptic")
    assert not _is_complex_lie_algebra_reference(hyp.algebra, hyp.j)


def _is_complex_lie_algebra_reference(l, j):
    """J[X, Y] = [JX, Y] on every pair of basis vectors: J commutes with
    every adjoint map."""
    for a in range(l.dim):
        ea = l._e(a)
        jea = linalg.mat_vec(j.matrix, ea)
        for b in range(l.dim):
            if a == b:
                continue
            eb = l._e(b)
            lhs = linalg.mat_vec(j.matrix, l.bracket(ea, eb))
            rhs = l.bracket(jea, eb)
            if lhs != rhs:
                return False
    return True


def test_is_integrable_dimension_guard():
    with pytest.raises(ValueError):
        is_integrable(LieAlgebra(2, {}), standard_j4())
