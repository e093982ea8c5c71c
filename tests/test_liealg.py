"""Lie algebra structure: brackets, series, nilradical, eigenvalue type."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solvkit import catalog, linalg
from solvkit.errors import InternalCheckFailed, NotSolvable
from solvkit.liealg import (JacobiReport, LieAlgebra, _put, _trace_columns,
                            is_nilpotent_matrix, realify_complex_brackets)
from solvkit.linalg import Subspace
from solvkit.polys import all_roots_pure_imaginary, all_roots_real
from solvkit.scalars import Scalar


def heisenberg3():
    return LieAlgebra(3, {(0, 1): {2: 1}})


def test_constructor_validation():
    with pytest.raises(ValueError):
        LieAlgebra(0, {})
    with pytest.raises(ValueError):
        LieAlgebra(3, {(1, 0): {2: 1}})      # needs i < j
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {3: 1}})      # output out of range
    with pytest.raises(ValueError):
        LieAlgebra(3, {(0, 1): {2: "1+1*i"}})  # constants must be real
    with pytest.raises(ValueError):
        LieAlgebra(4, {}, basis=["a", "b"])
    with pytest.raises(ValueError):
        LieAlgebra(3, {}, form="complex")    # odd dim
    with pytest.raises(ValueError):
        LieAlgebra(2, {}, form="quaternionic")


def test_bracket_antisymmetry_is_structural():
    l = heisenberg3()
    assert l.bracket_basis(0, 1) == [Scalar(0), Scalar(0), Scalar(1)]
    assert l.bracket_basis(1, 0) == [Scalar(0), Scalar(0), Scalar(-1)]
    assert l.bracket_basis(2, 2) == [Scalar(0)] * 3
    rng = random.Random(31)
    for _ in range(50):
        u = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        v = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        uv = l.bracket(u, v)
        vu = l.bracket(v, u)
        assert uv == [-x for x in vu]


def test_adjoint_matches_bracket():
    l = heisenberg3()
    ad0 = l.adjoint([1, 0, 0])
    # ad(e0) sends e1 to e2
    col1 = [ad0[i][1] for i in range(3)]
    assert col1 == [Scalar(0), Scalar(0), Scalar(1)]
    assert is_nilpotent_matrix(ad0)


def test_jacobi_check_pass_and_witness():
    assert heisenberg3().jacobi_check().ok
    # [e0,e1]=e1, [e1,e2]=e0 fails Jacobi on the only triple
    bad = LieAlgebra(3, {(0, 1): {1: 1}, (1, 2): {0: 1}})
    report = bad.jacobi_check()
    assert not report.ok
    assert report.witness == (0, 1, 2)
    assert any(report.defect)


def test_series_and_flags():
    l = heisenberg3()
    assert l.is_nilpotent()
    assert l.is_solvable()
    assert [s.dim for s in l.lower_central_series()] == [3, 1, 0]
    assert [s.dim for s in l.derived_series()] == [3, 1, 0]
    assert l.derived_subalgebra().dim == 1
    assert l.center().dim == 1

    # [e0,e1] = e1 is solvable but not nilpotent
    aff = LieAlgebra(2, {(0, 1): {1: 1}})
    assert not aff.is_nilpotent()
    assert aff.is_solvable()
    series = aff.lower_central_series()
    assert series[-1].dim == 1 and series[-1] == series[-2]


def test_unimodular():
    assert heisenberg3().unimodular_check()
    assert not LieAlgebra(2, {(0, 1): {1: 1}}).unimodular_check()
    for name in catalog.SURFACE_FAMILIES:
        assert catalog.get(name).algebra.unimodular_check(), name


def test_nilradical():
    l = heisenberg3()
    assert l.nilradical_solvable().dim == 3
    # e3 acts with real eigenvalues on the span of e0..e2
    ent = catalog.get("inoue-s0")
    nil = ent.algebra.nilradical_solvable()
    assert nil.dim == 3
    assert ent.algebra.derived_subalgebra() <= nil
    with pytest.raises(NotSolvable):
        # sl2 is not solvable: [e0,e1]=e2, [e0,e2]=-2e0, [e1,e2]=2e1
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2},
                       (1, 2): {1: 2}}).nilradical_solvable()


def test_nilradical_dimensions_frozen():
    expected = {
        "abelian": 4, "hyperelliptic": 3, "inoue-s0": 3,
        "primary-kodaira": 4, "secondary-kodaira": 3, "inoue-spm": 3,
        "abelian3": 6, "nilpotent3": 6, "nonnilpotent3": 4,
    }
    for name, dim in expected.items():
        assert catalog.get(name).algebra.nilradical_solvable().dim == dim, name


def _closure_reference(gens, n):
    """Basis of the unital associative algebra generated by Scalar matrices."""
    basis, echelon, leads = [], [], []

    def try_add(m):
        red = [x for row in m for x in row]
        for lead, row in zip(leads, echelon):
            if red[lead]:
                f = red[lead]
                red = [x - f * y for x, y in zip(red, row)]
        piv = next((c for c, x in enumerate(red) if x), None)
        if piv is None:
            return False
        inv = red[piv]
        echelon.append([x / inv for x in red])
        leads.append(piv)
        basis.append(m)
        return True

    try_add(linalg.identity(n))
    for g in gens:
        try_add(g)
    frontier = list(basis)
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gens:
                prod = linalg.mat_mul(m, g)
                if try_add(prod):
                    new_frontier.append(prod)
        frontier = new_frontier
    return basis


def _nilradical_reference(l):
    """The fixed-point Scalar route that nilradical_solvable replaced.

    V -> {x in V : tr(M ad(x)) = 0 for all M in the unital associative
    algebra generated by ad(V)}, iterated from V = g until it stops moving.
    """
    n = l.dim
    ad_basis = [l.adjoint(l._e(i)) for i in range(n)]
    space = Subspace(n, linalg.identity(n))
    while True:
        closure = _closure_reference([l.adjoint(v) for v in space.basis], n)
        rows = [[linalg.mat_trace(linalg.mat_mul(m, a)) for a in ad_basis]
                for m in closure]
        new = space.intersect(Subspace(n, linalg.nullspace(rows)))
        if new == space:
            return space
        space = new


def _semidirect(d):
    """R x_D R^k: [e_0, e_(j+1)] = sum_i D[i][j] e_(i+1)."""
    k = len(d)
    return LieAlgebra(k + 1, {
        (0, j + 1): {i + 1: d[i][j] for i in range(k) if d[i][j]}
        for j in range(k)})


def _unital_closure(gens):
    """Basis of the unital associative algebra generated by int matrices.

    Each element, flattened, goes through linalg.echelon_add, so the basis
    is of primitive int rows. Products are taken of these rows, which span
    the same algebra as the words in the generators.
    """
    n = len(gens[0])
    echelon = []

    def add(m):
        return linalg.echelon_add(echelon, [x for row in m for x in row])

    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    frontier = [r for r in map(add, [unit] + gens) if r is not None]
    while frontier:
        products = (linalg.mat_mul([r[i * n:(i + 1) * n] for i in range(n)], g)
                    for r in frontier for g in gens)
        frontier = [r for r in map(add, products) if r is not None]
    return [row for _, row in echelon]


def _closure_nilradical_reference(l):
    """The one-shot route that the powers of one ad(y) replaced: the trace
    cut against the unital closure of all n integer adjoints."""
    ads = l._integer_adjoints[1]
    rows = linalg.mat_mul(_unital_closure(ads), _trace_columns(ads))
    return Subspace(l.dim, linalg.nullspace(rows))


def _assert_nilradical_matches_references(l, label=None):
    nil = l.nilradical_solvable()
    assert nil == _closure_nilradical_reference(l), label
    assert nil == _nilradical_reference(l), label


def test_nilradical_matches_reference_on_catalog():
    for name in catalog.list_names():
        l = catalog.get(name).algebra
        _assert_nilradical_matches_references(l, name)
        _assert_nilradical_matches_references(l.complexify(), name)


H, T = Fraction(1, 2), Fraction(-2, 3)
FRACTIONAL = {
    # non-nilpotent: diagonal D with denominators, nilradical R^2
    "diagonal": (_semidirect([[H, 0], [0, T]]), 2),
    # nilpotent D: the whole algebra is nilpotent
    "nilpotent": (_semidirect([[0, H, T], [0, 0, Fraction(3, 4)], [0, 0, 0]]), 4),
    # rotation-like D with eigenvalues +-i/2
    "rotation": (_semidirect([[0, -H], [H, 0]]), 2),
    # Jordan block with eigenvalue -2/3 beside a nilpotent block
    "jordan": (_semidirect([[T, 1, 0], [0, T, 0], [0, 0, 0]]), 3),
    # aff(R) + aff(R) with constants 1/2 and -2/3: not a semidirect R^k
    "two-affine": (LieAlgebra(4, {(0, 1): {1: H}, (2, 3): {3: T}}), 2),
}


@pytest.mark.parametrize("name", sorted(FRACTIONAL))
def test_nilradical_matches_reference_with_fractions(name):
    l, dim = FRACTIONAL[name]
    nil = l.nilradical_solvable()
    assert nil.dim == dim
    assert nil == _nilradical_reference(l)


_ENTRIES = st.sampled_from([0, 0, 0, 1, -1, 2, H, T])


@st.composite
def _semidirect_algebras(draw):
    k = draw(st.integers(1, 4))
    strict = draw(st.booleans())     # strictly upper triangular: nilpotent
    d = [[draw(_ENTRIES) if (i < j or not strict) else 0 for j in range(k)]
         for i in range(k)]
    return _semidirect(d)


@st.composite
def _transported_type_algebras(draw):
    """One algebra of a _type_stream round, written in a random basis."""
    rng = draw(st.randoms(use_true_random=False))
    base = draw(st.sampled_from([b for b, _ in _type_stream(rng, rounds=1)]))
    return _transport(base, _random_invertible(rng, base.dim))


@settings(max_examples=30, database=None, deadline=None)
@given(st.one_of(_semidirect_algebras(), _transported_type_algebras()))
def test_nilradical_matches_reference_on_semidirect_products(l):
    _assert_nilradical_matches_references(l)


def test_nilradical_falls_back_to_the_next_y(monkeypatch):
    """y_1 = e0 + 2 e1 gives the weights 2 x0 (on e2) and x1 (on e3) the
    same value 2, so S_y also holds e0 - 2 e1 and validation refuses it;
    y_2 = e0 + 4 e1 separates them."""
    calls = []
    validate = LieAlgebra._validate_nilradical

    def counted(self, space):
        calls.append(space)
        validate(self, space)

    monkeypatch.setattr(LieAlgebra, "_validate_nilradical", counted)
    l = _two_derivations([[2, 0], [0, 0]], [[0, 0], [0, 1]])
    assert l.nilradical_solvable() == Subspace(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert len(calls) == 2
    assert calls[0] == Subspace(4, [[1, -2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_nilradical_mat_mul_count_is_linear_in_dim(monkeypatch):
    """Counted, not timed: on R x_N R^31 with N one nilpotent Jordan block
    the nilradical makes at most 10 n products once the integer adjoints,
    Cartan's answer and [g,g] exist; _closure_nilradical_reference alone
    makes 1 953."""
    l = _semidirect([[int(j == i + 1) for j in range(31)] for i in range(31)])
    assert l.is_solvable() and l.derived_subalgebra().dim == 30
    calls = []
    mat_mul = linalg.mat_mul

    def counted(a, b):
        calls.append(len(a))
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    assert l.nilradical_solvable().dim == 32
    assert 0 < len(calls) <= 10 * l.dim


def _jacobi_sum(l, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] by brackets."""
    return [x + y + z for x, y, z in zip(
        l.bracket(l.bracket_basis(i, j), l._e(k)),
        l.bracket(l.bracket_basis(j, k), l._e(i)),
        l.bracket(l.bracket_basis(k, i), l._e(j)))]


def _jacobi_reference(l):
    """The bracket loop over every triple that jacobi_check replaced."""
    for triple in itertools.combinations(range(l.dim), 3):
        acc = _jacobi_sum(l, *triple)
        if not linalg.is_zero_vec(acc):
            return JacobiReport(False, triple, acc)
    return JacobiReport(True)


def _solvable_reference(l):
    return l.derived_series()[-1].dim == 0


SL2 = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})
NOT_SOLVABLE = {
    "sl2": SL2,
    "so3": LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}),
    # basis E11, E12, E21, E22
    "gl2": LieAlgebra(4, {(0, 1): {1: 1}, (0, 2): {2: -1},
                          (1, 2): {0: 1, 3: -1}, (1, 3): {1: 1},
                          (2, 3): {2: -1}}),
    # E, F, H acting on R^2 = span(e3, e4)
    "sl2-x-R2": LieAlgebra(5, {(0, 1): {2: 1}, (0, 2): {0: -2},
                               (1, 2): {1: 2}, (0, 4): {3: 1}, (1, 3): {4: 1},
                               (2, 3): {3: 1}, (2, 4): {4: -1}}),
    "sl2-complexified": SL2.complexify(),
}


@pytest.mark.parametrize("name", sorted(NOT_SOLVABLE))
def test_not_solvable(name):
    l = NOT_SOLVABLE[name]
    assert l.jacobi_check() == _jacobi_reference(l) == JacobiReport(True)
    assert not l.is_solvable()
    assert not _solvable_reference(l)


def test_kernels_match_reference_on_catalog():
    for name in catalog.list_names():
        l = catalog.get(name).algebra
        assert l.jacobi_check() == _jacobi_reference(l) == JacobiReport(True)
        assert l.is_solvable() and _solvable_reference(l), name


NON_JACOBI = [
    # the first failing triple is the third, with a fractional defect
    (LieAlgebra(4, {(0, 1): {1: H}, (0, 2): {2: T, 3: 1},
                    (0, 3): {3: Fraction(3, 4)}, (2, 3): {1: H}}),
     (0, 2, 3), [0, Fraction(-5, 24), 0, 0]),
    (LieAlgebra(3, {(0, 1): {1: H}, (1, 2): {0: T}}),
     (0, 1, 2), [Fraction(-1, 3), 0, 0]),
    (LieAlgebra(5, {(0, 1): {2: 1}, (3, 4): {0: Fraction(3, 4)}, (2, 3): {4: T}}),
     (0, 1, 3), [0, 0, 0, 0, T]),
]


@pytest.mark.parametrize("case", range(len(NON_JACOBI)))
def test_jacobi_witness_with_fractions(case):
    l, triple, defect = NON_JACOBI[case]
    rep = l.jacobi_check()
    assert rep == JacobiReport(False, triple, [Scalar(x) for x in defect])
    assert rep == _jacobi_reference(l)


def _transport(l, p):
    """The algebra with constants P^-1 [P e_i, P e_j]: isomorphic to l."""
    n = l.dim
    p_inv = linalg.inverse(p)
    cols = linalg.transpose(p)
    return LieAlgebra(n, {
        (i, j): dict(enumerate(linalg.mat_vec(p_inv, l.bracket(cols[i], cols[j]))))
        for i in range(n) for j in range(i + 1, n)})


_POOL = [0, 0, 0, 1, -1, 2, H, T, Fraction(3, 4)]


@st.composite
def _invertible(draw, n):
    """L U with unit lower L and an upper U with nonzero diagonal."""
    low = [[1 if i == j else (draw(st.sampled_from(_POOL)) if i > j else 0)
            for j in range(n)] for i in range(n)]
    up = [[draw(st.sampled_from(_POOL[3:])) if i == j else
           (draw(st.sampled_from(_POOL)) if i < j else 0)
           for j in range(n)] for i in range(n)]
    return linalg.mat_mul(low, up)


@st.composite
def _transported_algebras(draw):
    base = draw(st.sampled_from(
        [NOT_SOLVABLE[k] for k in ("sl2", "so3", "gl2")]
        + [catalog.get(k).algebra for k in ("inoue-s0", "secondary-kodaira")]
        + [_semidirect([[H, 1], [0, T]])]))
    return _transport(base, draw(_invertible(base.dim)))


@st.composite
def _bracket_tables(draw):
    n = draw(st.integers(3, 5))
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                table[(i, j)] = draw(st.dictionaries(
                    st.integers(0, n - 1), st.sampled_from(_POOL[3:]),
                    min_size=1, max_size=2))
    return LieAlgebra(n, table)


@settings(max_examples=30)
@given(st.one_of(_transported_algebras(), _bracket_tables()))
def test_kernels_match_reference_on_random_tables(l):
    rep = l.jacobi_check()
    assert rep == _jacobi_reference(l)
    if rep.ok:
        assert l.is_solvable() == _solvable_reference(l)


def _heisenberg_type(n):
    """[e_2t, e_2t+1] = e_(n-1) for every pair below the last basis vector."""
    return LieAlgebra(n, {(2 * t, 2 * t + 1): {n - 1: 1}
                          for t in range((n - 1) // 2)})


def test_jacobi_scan_counts_follow_the_table(monkeypatch):
    """The scan's work is counted, not timed: 0 triples on an abelian table,
    at most |T| (n - 2) on a Heisenberg-type one, and nothing else visited."""
    assert LieAlgebra(40, {})._jacobi_triples() == []
    h = _heisenberg_type(41)
    assert 0 < len(h._jacobi_triples()) <= len(h._table) * (h.dim - 2)
    assert h.jacobi_check() == JacobiReport(True)
    l, triple, _ = NON_JACOBI[0]
    assert triple in l._jacobi_triples()
    monkeypatch.setattr(LieAlgebra, "_jacobi_triples", lambda self: [])
    assert l.jacobi_check() == JacobiReport(True)


def test_jacobi_triples_cover_every_nonzero_sum():
    """Seeded random tables, a third of them failing: every triple left out
    has a zero Jacobi sum, and the scan's witness and defect are the
    reference's."""
    rng = random.Random(41)
    failing = 0
    for _ in range(150):
        n = rng.randint(3, 7)
        l = LieAlgebra(n, {
            (i, j): {rng.randrange(n): rng.choice(_POOL[3:])
                     for _ in range(rng.randint(1, 2))}
            for i, j in itertools.combinations(range(n), 2)
            if rng.random() < 0.3})
        visited = l._jacobi_triples()
        assert visited == sorted(set(visited))
        for triple in set(itertools.combinations(range(n), 3)) - set(visited):
            assert linalg.is_zero_vec(_jacobi_sum(l, *triple))
        rep = l.jacobi_check()
        assert rep == _jacobi_reference(l)
        failing += not rep.ok
    assert failing >= 50


def test_validate_nilradical_rejects_each_wrong_answer():
    h3 = heisenberg3()
    aff = LieAlgebra(2, {(0, 1): {1: H}})
    cases = [
        # span(e0): [e1, e0] = -e2 leaves it
        (h3, Subspace(3, [[1, 0, 0]]), "not an ideal"),
        # the zero space is an ideal but misses [g,g] = span(e2)
        (h3, Subspace(3), "misses the derived subalgebra"),
        # the whole of aff(R) is an ideal holding [g,g], but ad(e0) is not nilpotent
        (aff, Subspace(2, linalg.identity(2)), "non-nilpotent ad"),
    ]
    for l, space, message in cases:
        with pytest.raises(InternalCheckFailed, match=message):
            l._validate_nilradical(space)


def _center_reference(l):
    """The bracket_basis route that center replaced."""
    rows = []
    for j in range(l.dim):
        for k in range(l.dim):
            rows.append([l.bracket_basis(i, j)[k] for i in range(l.dim)])
    return Subspace(l.dim, linalg.nullspace(rows))


def _unimodular_reference(l):
    """The adjoint route that unimodular_check replaced."""
    return all(linalg.mat_trace(l.adjoint(l._e(i))) == 0 for i in range(l.dim))


def _random_tables(seed, count):
    """Seeded tables of dim 2..6, Jacobi not enforced; every other one has
    [e_i, e_j] in span(e_k : k > j), so it is nilpotent and unimodular."""
    rng = random.Random(seed)
    for t in range(count):
        n = rng.randint(2, 6)
        table = {}
        for i in range(n):
            for j in range(i + 1, n):
                outs = range(j + 1, n) if t % 2 else range(n)
                if outs and rng.random() < 0.5:
                    table[(i, j)] = {k: rng.choice(_POOL[3:]) for k in
                                     rng.sample(outs, min(2, len(outs)))}
        yield LieAlgebra(n, table)


def test_center_and_unimodular_match_bracket_routes():
    algebras = [catalog.get(name).algebra for name in catalog.list_names()]
    algebras += list(_random_tables(13, 200))
    seen = set()
    for l in algebras:
        center, unimodular = l.center(), l.unimodular_check()
        assert center == _center_reference(l)
        assert unimodular == _unimodular_reference(l)
        seen.add((0 < center.dim < l.dim, unimodular))
    assert seen == {(a, b) for a in (False, True) for b in (False, True)}


def _bracket_span_reference(l, a, b):
    """The pairwise Fraction bracket loop that bracket_span replaced."""
    vecs = [l.bracket(u, v) for u in a.basis for v in b.basis]
    return Subspace(l.dim, vecs)


def _subspaces(rng, l):
    """0, g, [g,g], the center and two seeded random subspaces of l."""
    spaces = [Subspace(l.dim), Subspace(l.dim, linalg.identity(l.dim)),
              l.derived_subalgebra(), l.center()]
    for _ in range(2):
        spaces.append(Subspace(l.dim, [
            [rng.choice(_POOL) for _ in range(l.dim)]
            for _ in range(rng.randint(1, l.dim))]))
    return spaces


# pairs of _subspaces indices: each zero case, [g,g], the series' steps,
# and random spaces against g, [g,g] and each other
_SPAN_PAIRS = [(0, 1), (1, 0), (1, 1), (2, 2), (1, 3), (4, 1), (2, 4),
               (4, 5), (5, 5)]


def test_bracket_span_matches_pairwise_reference():
    rng = random.Random(59)
    algebras = [catalog.get(name).algebra for name in catalog.list_names()]
    algebras += [l.complexify() for l in algebras]
    algebras += list(_random_tables(59, 200))
    seen = set()
    for l in algebras:
        jacobi = l.jacobi_check().ok
        spaces = _subspaces(rng, l)
        for s, t in _SPAN_PAIRS:
            a, b = spaces[s], spaces[t]
            got = l.bracket_span(a, b)
            assert got == _bracket_span_reference(l, a, b), l._table
            seen.add((a.dim == 0 or b.dim == 0, got.dim == 0, jacobi))
    # zero and nonzero spans, on tables that do and do not satisfy Jacobi
    assert seen >= {(True, True, True), (False, False, True),
                    (False, False, False), (False, True, True)}


def _ad_combination_reference(ads, u):
    """sum_i u_i A_i: the dense matrix of s ad(u) for A_i = s ad(e_i)."""
    n = len(ads)
    return [[sum(c * a[r][q] for c, a in zip(u, ads) if c) for q in range(n)]
            for r in range(n)]


def test_mat_comb_matches_ad_combination_reference():
    rng = random.Random(37)
    for l in _random_tables(37, 60):
        ads = l._integer_adjoints[1]
        for _ in range(3):
            u = [rng.choice([0, 0, 1, -2, 3]) for _ in range(l.dim)]
            got = linalg.mat_comb(u, ads)
            assert got == _ad_combination_reference(ads, u)
            assert all(type(x) is int for row in got for x in row)


def test_is_nilpotent_matrix():
    for n in range(1, 9):
        shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        assert is_nilpotent_matrix(shift), n
        assert not is_nilpotent_matrix(
            [row[:-1] + [int(i == n - 1)] for i, row in enumerate(shift)]), n


def _classify_type_reference(l, samples=25, seed=20240911):
    """The sampled classify_type that the exact one replaced, as an oracle.

    Characteristic polynomials of ad(v) for every basis vector plus
    seeded rational combinations.
    """
    if l.form != "real":
        raise ValueError("type classification is defined for real forms")
    if not l.is_solvable():
        raise NotSolvable("type classification requires a solvable algebra")
    rng = random.Random(seed)
    pool = [Fraction(k) for k in (-2, -1, 0, 1, 2)] + [
        Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2)]
    vectors = [l._e(i) for i in range(l.dim)]
    while len(vectors) < l.dim + samples:
        v = [rng.choice(pool) for _ in range(l.dim)]
        if any(v):
            vectors.append(v)
    all_nilpotent = True
    saw_nonreal = False
    saw_nonimaginary = False
    for v in vectors:
        p = linalg.char_poly(l.adjoint(v))
        nilp = all(p[k] == 0 for k in range(p.degree))
        if nilp:
            continue
        all_nilpotent = False
        if not all_roots_real(p):
            saw_nonreal = True
        if not all_roots_pure_imaginary(p):
            saw_nonimaginary = True
    if all_nilpotent:
        return "nilpotent"
    if saw_nonreal and saw_nonimaginary:
        return "mixed"
    if not saw_nonreal:
        return "completely_solvable"
    if not saw_nonimaginary:
        return "rigid"
    return "inconclusive"


CLASSIFY_TYPES = {
    "abelian": "nilpotent",
    "hyperelliptic": "rigid",
    "inoue-s0": "mixed",
    "primary-kodaira": "nilpotent",
    "secondary-kodaira": "rigid",
    "inoue-spm": "completely_solvable",
    "example3": "rigid",
}


def test_classify_type_table():
    for name, tag in CLASSIFY_TYPES.items():
        l = catalog.get(name).algebra
        assert l.classify_type() == tag, name
        assert _classify_type_reference(l) == tag, name


def _rotation_blocks(speeds, size):
    """size x size D: a rotation block [[0, -b], [b, 0]] per b, then zeros."""
    d = [[0] * size for _ in range(size)]
    for m, b in enumerate(speeds):
        d[2 * m + 1][2 * m], d[2 * m][2 * m + 1] = b, -b
    return d


def _diagonal(entries):
    return [[x if i == j else 0 for j in range(len(entries))]
            for i, x in enumerate(entries)]


def _two_derivations(d0, d1):
    """R^2 x R^k with commuting D0, D1 acting through e_0 and e_1."""
    k = len(d0)
    return LieAlgebra(k + 2, {
        (a, j + 2): {i + 2: d[i][j] for i in range(k) if d[i][j]}
        for a, d in enumerate((d0, d1)) for j in range(k)})


def _type_stream(rng, rounds):
    """(algebra, tag) pairs of dim 3-5, each tag once per round by construction.

    nilpotent: strictly upper D; rigid: rotation blocks; mixed: a real
    scalar D0 beside a rotation-block D1 (the inoue-s0 shape);
    completely solvable: a real diagonal D. Each algebra is then written
    in a random basis, so no basis vector lies along a weight space.
    """
    nonzero = [1, -1, 2, H, T, Fraction(3, 4)]
    for _ in range(rounds):
        k, k_mixed = rng.randint(2, 4), rng.randint(2, 3)
        speeds = [rng.choice(nonzero) for _ in range(rng.randint(1, 2))]
        yield _semidirect([[rng.choice(_POOL) if i < j else 0
                            for j in range(k)] for i in range(k)]), "nilpotent"
        yield _semidirect(_rotation_blocks(speeds, 2 * len(speeds))), "rigid"
        yield _two_derivations(
            _diagonal([rng.choice(nonzero)] * k_mixed),
            _rotation_blocks([rng.choice(nonzero)], k_mixed)), "mixed"
        yield _semidirect(_diagonal(
            [rng.choice(nonzero)] + [rng.choice(_POOL) for _ in range(k - 1)]
        )), "completely_solvable"


def _random_invertible(rng, n):
    """L U as in _invertible, drawn from rng."""
    low = [[1 if i == j else (rng.choice(_POOL) if i > j else 0)
            for j in range(n)] for i in range(n)]
    up = [[rng.choice(_POOL[3:]) if i == j else
           (rng.choice(_POOL) if i < j else 0)
           for j in range(n)] for i in range(n)]
    return linalg.mat_mul(low, up)


def test_classify_type_matches_sampled_reference_on_stream():
    rng = random.Random(7)
    seen = []
    for base, tag in _type_stream(rng, rounds=6):
        assert base.jacobi_check().ok and base.classify_type() == tag
        l = _transport(base, _random_invertible(rng, base.dim))
        assert l.classify_type() == tag
        assert _classify_type_reference(l) == tag
        seen.append(tag)
    assert {t: seen.count(t) for t in seen} == dict.fromkeys(
        CLASSIFY_TYPES.values(), 6)


def test_classify_type_refusals():
    with pytest.raises(NotSolvable):
        LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2},
                       (1, 2): {1: 2}}).classify_type()
    with pytest.raises(ValueError, match="real forms"):
        heisenberg3().complexify().classify_type()


def test_complexify():
    l = heisenberg3()
    lc = l.complexify()
    assert lc.dim == 6 and lc.form == "complex"
    assert lc.complex_dim == 3
    assert lc.jacobi_check().ok
    assert lc.sigma is not None
    # [X0, X1] = X2 and [iX0, iX1] = -X2 in the split basis
    assert lc.bracket_basis(0, 1)[2] == Scalar(1)
    assert lc.bracket_basis(3, 4)[2] == Scalar(-1)
    assert lc.bracket_basis(0, 4)[5] == Scalar(1)
    mi = lc.mult_i_matrix()
    sq = [[sum((mi[i][k] * mi[k][j] for k in range(6)), Scalar(0))
           for j in range(6)] for i in range(6)]
    assert sq == [[Scalar(-1 if i == j else 0) for j in range(6)]
                  for i in range(6)]


def test_realify_complex_brackets():
    """The 3-dim complex algebra [X,Y] = -Y, [X,Z] = Z realified."""
    alg = realify_complex_brackets(3, {(0, 1): {1: -1}, (0, 2): {2: 1}})
    assert alg.dim == 6 and alg.form == "complex"
    assert alg.jacobi_check().ok
    assert alg.bracket_basis(0, 1)[1] == Scalar(-1)
    assert alg.bracket_basis(0, 4)[4] == Scalar(-1)   # [X, iY] = -iY
    assert alg.bracket_basis(3, 1)[4] == Scalar(-1)   # [iX, Y] = -iY
    assert alg.bracket_basis(3, 4)[1] == Scalar(1)    # [iX, iY] = Y
    # complex constants: [X, Y] = i Y realifies with a cross term
    alg2 = realify_complex_brackets(2, {(0, 1): {1: Scalar(0, 1)}})
    assert alg2.bracket_basis(0, 1)[3] == Scalar(1)   # [X, Y] = iY
    assert alg2.bracket_basis(0, 3)[1] == Scalar(-1)  # [X, iY] = -Y
    assert alg2.jacobi_check().ok


def _complexify_reference(l):
    """The real-only loop complexify ran before it read the realification
    table: [X_i, X_j] = c X_k in the split basis, and sigma = diag(I, -I)."""
    n = l.dim
    brackets = {}
    for (i, j), row in l._table.items():
        for k, entry in row.items():
            c = entry.re
            _put(brackets, i, j, k, c)            # [X_i, X_j] = c X_k
            _put(brackets, i, n + j, n + k, c)    # [X_i, iX_j] = c iX_k
            _put(brackets, n + i, j, n + k, c)    # [iX_i, X_j] = c iX_k
            _put(brackets, n + i, n + j, k, -c)   # [iX_i, iX_j] = -c X_k
    sigma = [[Fraction(1 if (i == j and i < n) else (-1 if (i == j) else 0))
              for j in range(2 * n)] for i in range(2 * n)]
    labels = l.basis + ["i*%s" % b for b in l.basis]
    return LieAlgebra(2 * n, brackets, basis=labels, form="complex",
                      sigma=sigma)


def test_complexify_matches_the_real_only_loop():
    """On the catalog and 200 seeded tables: the same table with keys and
    rows in the same order, the same labels, form and sigma."""
    algebras = [catalog.get(name).algebra for name in catalog.list_names()]
    for l in algebras + list(_random_tables(28, 200)):
        got, want = l.complexify(), _complexify_reference(l)
        assert [(key, list(row.items())) for key, row in got._table.items()] \
            == [(key, list(row.items())) for key, row in want._table.items()]
        assert (got.dim, got.basis, got.form, got.sigma) == \
            (want.dim, want.basis, want.form, want.sigma)
