"""Two-form classification, exact signatures, and the degeneracy sweep."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from solvkit import catalog, linalg, pkforms
from solvkit.cohomology import Cochain, ce_d
from solvkit.cxstruct import is_integrable
from solvkit.errors import BoundTooLarge, NotCompatible, NotIntegrable
from solvkit.pkforms import (ClassifyResult, classify,
                             closed_compatible_space, j_compatible,
                             metric_from, signature, sweep_invariant_forms)


def test_two_form_rejects_complex_coeffs():
    with pytest.raises(ValueError, match="real entry required"):
        Cochain(4, 2, {(0, 1): "1+1*i"})
    f = Cochain(4, 2, {(0, 1): 1, (2, 3): -2})
    m = f.matrix()
    assert m[0][1] == Fraction(1) and m[1][0] == Fraction(-1)
    assert m[3][2] == Fraction(2)


def test_j_compatible():
    entry = catalog.get("abelian")
    omega = Cochain(4, 2, {(0, 1): 1, (2, 3): 1})
    assert j_compatible(omega, entry.j)
    assert not j_compatible(Cochain(4, 2, {(0, 2): 1}), entry.j)
    with pytest.raises(ValueError):
        j_compatible(Cochain(2, 2, {(0, 1): 1}), entry.j)


def test_metric_from():
    entry = catalog.get("abelian")
    omega = Cochain(4, 2, {(0, 1): 1, (2, 3): 1})
    gram = metric_from(omega, entry.j)
    assert gram == linalg.identity(4)
    with pytest.raises(NotCompatible):
        metric_from(Cochain(4, 2, {(0, 2): 1}), entry.j)


def test_j_compatible_matches_definition(evaluate):
    """Symmetry of omega(., J.) against omega(Je_a, Je_b) = omega(e_a, e_b)."""
    rng = random.Random(67)
    for name in catalog.list_names():
        j = catalog.get(name).j
        if j is None:
            continue
        n = j.dim
        units = [[Fraction(1 if k == a else 0) for k in range(n)]
                 for a in range(n)]
        images = [j.apply(u) for u in units]
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        forms = [Cochain(n, 2, {p: 1}) for p in pairs]
        for _ in range(4):
            omega = Cochain(n, 2, {p: rng.randint(-2, 2) for p in pairs})
            # omega + omega(J., J.) is J-invariant
            forms += [omega, Cochain(n, 2, {
                (a, b): omega.coefficient(a, b)
                + evaluate(omega, images[a], images[b]) for a, b in pairs})]
        for form in forms:
            want = all(evaluate(form, images[a], images[b])
                       == form.coefficient(a, b) for a, b in pairs)
            assert j_compatible(form, j) == want, name
            if want:
                metric_from(form, j)
            else:
                with pytest.raises(NotCompatible):
                    metric_from(form, j)


def test_signature_basics():
    assert signature([[1, 0], [0, -1]]) == (1, 1)
    assert signature([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == (3, 0)
    assert signature([[0, 0], [0, 0]]) == (0, 0)
    assert signature([[Fraction(1, 2)]]) == (1, 0)
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])


def test_signature_refuses_non_real_matrix():
    for gram in ([["1+1*i", 0], [0, 1]], [[1, "i"], ["-i", 1]]):
        with pytest.raises(ValueError, match="real entry required"):
            signature(gram)


def test_signature_congruence_invariant():
    """Sylvester: P^T G P has the same signature for invertible rational P."""
    rng = random.Random(53)
    g = [[Fraction(2), Fraction(1), 0, 0],
         [Fraction(1), Fraction(-1), 0, 0],
         [0, 0, Fraction(3), 0],
         [0, 0, 0, Fraction(-5)]]
    g = [[Fraction(x) for x in row] for row in g]
    base = signature(g)
    trials = 0
    while trials < 25:
        p = [[Fraction(rng.randint(-3, 3)) for _ in range(4)]
             for _ in range(4)]
        if linalg.det(p) == 0:
            continue
        gp = linalg.mat_mul(linalg.mat_mul(linalg.transpose(p), g), p)
        assert signature(gp) == base
        trials += 1


def test_classify_kahler():
    entry = catalog.get("abelian")
    omega = Cochain(4, 2, {(0, 1): 1, (2, 3): 1})
    verdict = classify(entry.algebra, entry.j, omega)
    assert verdict.tag == "kahler"
    assert verdict.signature == (4, 0)
    assert str(verdict) == "kahler(4, 0)"


def test_classify_branches():
    entry = catalog.get("abelian")
    # J-incompatible but closed
    assert classify(entry.algebra, entry.j,
                    Cochain(4, 2, {(0, 2): 1})).tag == "incompatible"
    # compatible but rank-deficient
    assert classify(entry.algebra, entry.j,
                    Cochain(4, 2, {(0, 1): 1})).tag == "degenerate"
    # non-closed on a non-abelian algebra
    hyp = catalog.get("hyperelliptic")
    assert classify(hyp.algebra, hyp.j,
                    Cochain(4, 2, {(1, 2): 1})).tag == "not_closed"
    # non-integrable J raises before any omega logic runs
    from solvkit.cxstruct import j_from_images
    bad_j = j_from_images(4, {0: {2: 1}, 2: {0: -1}, 1: {3: 1}, 3: {1: -1}})
    with pytest.raises(NotIntegrable):
        classify(hyp.algebra, bad_j, Cochain(4, 2, {(0, 1): 1}))


def _gram_reference(omega, j):
    """G[i][k] = omega(e_i, J e_k), from J's columns taken once."""
    if omega.degree != 2:
        raise ValueError("a 2-form is required")
    if omega.dim != j.dim:
        raise ValueError("dimension mismatch")
    n = omega.dim
    cols = [[(m, j.matrix[m][k]) for m in range(n) if j.matrix[m][k]]
            for k in range(n)]
    gram = []
    for i in range(n):
        row = []
        for col in cols:
            val = Fraction(0)
            for m, c in col:
                val = val + c * omega.coefficient(i, m)
            row.append(val)
        gram.append(row)
    return gram


def _classify_det_reference(l, j, omega):
    """classify as it was: degeneracy by a determinant, before the signature."""
    rep = is_integrable(l, j)
    if not rep.ok:
        raise NotIntegrable("almost complex structure is not integrable: "
                            "witness pair %r" % (rep.witness,))
    if not ce_d(l, omega).is_zero():
        return ClassifyResult("not_closed")
    gram = _gram_reference(omega, j)
    if not pkforms._is_symmetric(gram):
        return ClassifyResult("incompatible")
    if linalg.det(gram) == 0:
        return ClassifyResult("degenerate")
    p, q = signature(gram)
    if p + q != l.dim:
        raise AssertionError("nonzero determinant but deficient signature")
    return ClassifyResult("kahler" if q == 0 else "pseudo_kahler", (p, q))


def _types(m):
    return [[type(x) for x in row] for row in m]


def _seeded_forms(rng, n, count):
    """Random 2-forms: few terms, small fractional coefficients."""
    pairs = list(itertools.combinations(range(n), 2))
    for _ in range(count):
        yield Cochain(n, 2, {p: rng.choice([1, -1, 2, Fraction(1, 2)])
                             for p in rng.sample(pairs, rng.randint(1, 4))})


def test_gram_and_classify_match_references():
    """Seeded forms and closed compatible combinations on every catalog J:
    the same Gram matrix with the same entry types, and the same verdict
    whether degeneracy comes from det or from the signature."""
    rng = random.Random(61)
    tags = set()
    for name in catalog.list_names():
        entry = catalog.get(name)
        if entry.j is None:
            continue
        l, j = entry.algebra, entry.j
        basis = closed_compatible_space(l, j)
        combos = [Cochain(l.dim, 2, {
            k: sum(rng.choice([0, 1, -1, 2]) * f.coeffs.get(k, 0)
                   for f in basis)
            for k in itertools.combinations(range(l.dim), 2)})
            for _ in range(4 if basis else 0)]
        standard = Cochain(l.dim, 2, {(k, k + 1): 1 for k in range(0, l.dim, 2)})
        forms = list(_seeded_forms(rng, l.dim, 6)) + basis + combos + [standard]
        for omega in forms:
            got = pkforms._gram(omega, j)
            assert got == _gram_reference(omega, j)
            assert _types(got) == _types(_gram_reference(omega, j))
        for omega in forms:
            verdict = classify(l, j, omega)
            assert verdict == _classify_det_reference(l, j, omega), name
            tags.add(verdict.tag)
    assert tags == {"not_closed", "incompatible", "degenerate", "kahler",
                    "pseudo_kahler"}


def _sweep_sum_reference(point, mats):
    """The grid point's form, summed as sweep_invariant_forms once did."""
    r, n = len(mats), len(mats[0])
    acc = [[Fraction(0)] * n for _ in range(n)]
    for t in range(r):
        if point[t]:
            c = point[t]
            for a in range(n):
                for b in range(n):
                    if mats[t][a][b]:
                        acc[a][b] = acc[a][b] + c * mats[t][a][b]
    return acc


def test_sweep_grid_sum_matches_reference():
    rng = random.Random(67)
    for name in ("abelian", "nilpotent3", "example3"):
        entry = catalog.get(name)
        mats = [f.matrix() for f in
                closed_compatible_space(entry.algebra, entry.j)]
        grid = range(entry.algebra.dim // 2 + 1)
        for point in [[0] * len(mats)] + [
                [rng.choice(grid) for _ in mats] for _ in range(20)]:
            got = linalg.mat_comb(point, mats)
            assert got == _sweep_sum_reference(point, mats)
            assert _types(got) == _types(_sweep_sum_reference(point, mats))


def test_classify_pseudo_kahler_fixture_values():
    """The identity restriction of the coordinate form: compatible with an
    indefinite metric but not CE-closed on the realified algebra."""
    from solvkit.cohomology import ce_d

    entry = catalog.get("nonnilpotent3")
    fix = Cochain(6, 2, {(0, 3): 2, (1, 2): 2, (4, 5): 2})
    assert j_compatible(fix, entry.j)
    gram = metric_from(fix, entry.j)
    assert signature(gram) == (4, 2)
    d = ce_d(entry.algebra, fix)
    assert {k: str(v) for k, v in d.coeffs.items()} == {
        (1, 3, 5): "-4", (2, 3, 4): "-4"}
    assert classify(entry.algebra, entry.j, fix).tag == "not_closed"


def test_closed_compatible_space_dims():
    expected = {
        "nilpotent3": 4,
        "nonnilpotent3": 1,
        "inoue-s0": 1,
        "secondary-kodaira": 1,
        "inoue-spm": 1,
    }
    for name, dim in expected.items():
        entry = catalog.get(name)
        basis = closed_compatible_space(entry.algebra, entry.j)
        assert len(basis) == dim, name
        for f in basis:
            from solvkit.cohomology import ce_d
            assert ce_d(entry.algebra, f).is_zero()
            assert j_compatible(f, entry.j)


def test_sweep_frozen():
    """Every catalog entry with a J is decided; the five that have a common
    kernel keep their answer, and (1, ..., r) is the witness elsewhere."""
    expected = {
        "abelian": (4, False, "simplex", 0, (1, 2, 3, 4)),
        "abelian3": (9, False, "simplex", 0, tuple(range(1, 10))),
        "example3": (2, False, "simplex", 0, (1, 2)),
        "hyperelliptic": (2, False, "simplex", 0, (1, 2)),
        "inoue-s0": (1, True, "common_kernel", 2, None),
        "inoue-spm": (1, True, "common_kernel", 2, None),
        "nilpotent3": (4, True, "common_kernel", 2, None),
        "nonnilpotent3": (1, True, "common_kernel", 4, None),
        "primary-kodaira": (3, False, "simplex", 0, (1, 2, 3)),
        "secondary-kodaira": (1, True, "common_kernel", 2, None),
    }
    assert sorted(expected) == [name for name in catalog.list_names()
                                if catalog.get(name).j is not None]
    for name, want in expected.items():
        entry = catalog.get(name)
        got = tuple(sweep_invariant_forms(entry.algebra, entry.j))
        assert got == want, (name, got)


def test_sweep_finds_nondegenerate_form():
    entry = catalog.get("abelian")
    res = sweep_invariant_forms(entry.algebra, entry.j)
    assert not res.all_degenerate
    assert res.method == "simplex"
    assert res.witness is not None
    coeffs = {}
    for c, f in zip(res.witness,
                    closed_compatible_space(entry.algebra, entry.j)):
        for k, v in f.coeffs.items():
            coeffs[k] = coeffs.get(k, 0) + c * v
    omega = Cochain(4, 2, coeffs)
    assert classify(entry.algebra, entry.j, omega).tag in (
        "kahler", "pseudo_kahler")


@pytest.fixture
def rank_calls(monkeypatch):
    """A one-element list counting linalg.rank calls from now on."""
    count = [0]
    rank = linalg.rank

    def counted(rows):
        count[0] += 1
        return rank(rows)
    monkeypatch.setattr(linalg, "rank", counted)
    return count


def test_sweep_decides_abelian_at_the_generic_point(rank_calls):
    """One rank test decides the flat tori up to dim 10: no simplex scan."""
    for dim in (4, 6, 8, 10):
        entry = catalog.get("abelian", dim=dim)
        rank_calls[0] = 0
        res = sweep_invariant_forms(entry.algebra, entry.j)
        r = (dim // 2) ** 2
        assert tuple(res) == (r, False, "simplex", 0, tuple(range(1, r + 1)))
        assert rank_calls[0] == 1


def _pfaffian(m):
    n = len(m)
    if n % 2:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    sign = 1
    for jcol in range(1, n):
        a = m[0][jcol]
        if a:
            keep = [t for t in range(1, n) if t != jcol]
            sub = [[m[r][c] for c in keep] for r in keep]
            term = a * _pfaffian(sub)
            total = total + (term if sign == 1 else -term)
        sign = -sign
    return total


def _sweep_grid_reference(mats):
    """(all_degenerate, witness) by the Pfaffian on the grid {0..n/2}^r, as
    sweep_invariant_forms once decided after its common-kernel test."""
    r, n = len(mats), len(mats[0])
    grid_vals = tuple(range(n // 2 + 1))
    point = [0] * r
    while True:
        if _pfaffian(linalg.mat_comb(point, mats)) != 0:
            return False, tuple(point)
        pos = r - 1
        while pos >= 0 and point[pos] == grid_vals[-1]:
            point[pos] = 0
            pos -= 1
        if pos < 0:
            return True, None
        point[pos] += 1


def _skew(n, entries):
    """The antisymmetric Fraction matrix with the given upper entries."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (a, b), v in entries.items():
        m[a][b], m[b][a] = Fraction(v), Fraction(-v)
    return m


def _seeded_pencils(rng, count):
    """Skew pencils with n in {4, 6} and r <= 3; every second one vanishes
    on span(e_1..e_k), k = n/2 or n/2 + 1, so it is often all-degenerate
    with no common kernel."""
    for t in range(count):
        n = rng.choice((4, 6))
        pairs = list(itertools.combinations(range(n), 2))
        if t % 2:
            k = n // 2 + rng.randint(0, 1)
            pairs = [(a, b) for a, b in pairs if b >= k]
        yield [_skew(n, {p: rng.choice((0, 0, 1, -1, 2)) for p in pairs})
               for _ in range(rng.randint(1, 3))]


def test_sweep_pencil_matches_grid_reference():
    """The simplex decision against the Pfaffian on the whole grid, on
    seeded pencils and on [M, -M/2], where (1, 2) cancels but (d, 0) does
    not, so that all four outcomes occur."""
    rng = random.Random(71)
    m = _skew(4, {(0, 1): 1, (2, 3): 1})
    half = [[-x / 2 for x in row] for row in m]
    outcomes = set()
    for mats in list(_seeded_pencils(rng, 240)) + [[m, half]]:
        got = pkforms._sweep_pencil(mats)
        want, _ = _sweep_grid_reference(mats)
        assert got.all_degenerate == want, mats
        # a common positive scale moves neither the decision nor the witness
        thirds = [[[x / 3 for x in row] for row in mt] for mt in mats]
        assert pkforms._sweep_pencil(thirds) == got
        assert got.space_dim == len(mats)
        if got.witness is not None:
            n = len(mats[0])
            assert linalg.det(linalg.mat_comb(got.witness, mats)) != 0
            assert sum(got.witness) == n // 2 or \
                got.witness == tuple(range(1, len(mats) + 1))
        generic = got.witness == tuple(range(1, len(mats) + 1))
        outcomes.add((got.method, got.all_degenerate, generic))
    assert pkforms._sweep_pencil([m, half]).witness == (2, 0)
    assert outcomes == {("common_kernel", True, False),
                        ("simplex", False, True),
                        ("simplex", False, False),
                        ("simplex", True, False)}


def test_sweep_refuses_a_large_simplex_up_front(rank_calls):
    """All skew 10 x 10 matrices that vanish on span(e1..e6): r = 30, no
    common kernel, (1, ..., r) degenerate (the isotropic span is too large),
    and C(34, 5) = 278 256 simplex points, refused after one rank test."""
    n = 10
    mats = [_skew(n, {(a, b): 1})
            for a, b in itertools.combinations(range(n), 2) if b >= 6]
    assert len(mats) == 30
    assert math.comb(34, 5) == 278256 > pkforms.MAX_SIMPLEX_POINTS
    with pytest.raises(BoundTooLarge, match="C\\(34, 5\\)"):
        pkforms._sweep_pencil(mats)
    assert rank_calls[0] == 1


def test_sweep_pencil_empty():
    assert tuple(pkforms._sweep_pencil([])) == (0, True, "empty", 0, None)


def test_pfaffian_squares_to_det():
    rng = random.Random(59)
    for _ in range(20):
        n = 4
        m = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                v = Fraction(rng.randint(-3, 3))
                m[a][b] = v
                m[b][a] = -v
        pf = _pfaffian(m)
        assert pf * pf == linalg.det(m)
