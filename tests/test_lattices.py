"""Integer-matrix lattice builders, eigen classification, and the search."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solvkit import lattices
from solvkit.errors import (BoundTooLarge, DegenerateEigenvectors,
                            NoNonRealEigenvalue, NotReciprocal, NotSemisimple,
                            NotSpecialLinear, NotSquarefree, TraceTooSmall)
from solvkit.lattices import (build_lattice_nilpotent,
                              build_lattice_nonnilpotent, classify_eigen,
                              classify_palindromic, companion_palindromic,
                              nakamura_lattice, search_palindromic,
                              semisimple_commuting_check)
from solvkit.linalg import char_poly
from solvkit.polys import Poly, is_squarefree

EXAMPLE6 = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 1, -3, 1]]


def test_char_poly_exact():
    assert char_poly([[2, 1], [1, 1]]) == Poly([1, -3, 1])
    assert char_poly(EXAMPLE6) == Poly([1, -1, 3, -1, 1])


def test_classify_eigen():
    rep = classify_eigen(Poly([1, -3, 1]))
    assert rep.real_roots == 2 and rep.all_real
    assert not rep.unit_modulus_root
    rep6 = classify_eigen(Poly([1, -1, 3, -1, 1]))
    assert rep6.real_roots == 0 and not rep6.all_real
    assert not rep6.unit_modulus_root
    # (t-1)(t+2): a unit-modulus root at 1
    assert classify_eigen(Poly([-2, -1, 1])).unit_modulus_root
    with pytest.raises(NotSquarefree):
        classify_eigen(Poly([1, 2, 1]))
    with pytest.raises(ValueError):
        classify_eigen(Poly([5]))


def test_semisimple_commuting_check():
    a = [[2, 1], [1, 1]]
    assert semisimple_commuting_check(a, a)
    ident = [[1, 0], [0, 1]]
    assert semisimple_commuting_check(a, ident)
    assert not semisimple_commuting_check([[0, 1], [1, 0]],
                                          [[1, 0], [0, -1]])   # AB != BA
    assert not semisimple_commuting_check([[1, 1], [0, 1]], ident)
    with pytest.raises(ValueError):
        semisimple_commuting_check(a, [[1]])


def test_build_nilpotent():
    spec = build_lattice_nilpotent([[0, -1], [1, 0]], betas=(1 + 0j, 1j))
    assert spec.kind == "nilpotent"
    assert spec.classification == "n/a"
    assert spec.residual <= lattices.RESIDUAL_TOL
    assert spec.independence_margin > lattices.INDEPENDENCE_MARGIN
    assert len(spec.delta_generators) == 4
    assert spec.holonomy_generators() == []
    # lambda is the non-real eigenvalue
    assert abs(spec.lambda_generators[1] - 1j) < 1e-9


def test_build_nilpotent_iwasawa_branch():
    """alphas = (0, 0) selects the Gaussian-integer lattice from the betas."""
    spec = build_lattice_nilpotent([[0, -1], [1, 0]], betas=(1 + 0j, 1j),
                                   alphas=(0, 0))
    assert spec.delta_generators == [(1 + 0j, 0j), (1j, 0j),
                                     (0j, 1 + 0j), (0j, 1j)]
    assert spec.residual == 0.0
    with pytest.raises(DegenerateEigenvectors):
        build_lattice_nilpotent([[0, -1], [1, 0]], betas=(1 + 0j, 2 + 0j),
                                alphas=(0, 0))


def test_build_nilpotent_guards():
    with pytest.raises(NotSpecialLinear):
        build_lattice_nilpotent([[2, 0], [0, 1]])
    with pytest.raises(NoNonRealEigenvalue):
        build_lattice_nilpotent([[2, 1], [1, 1]])
    # a double real eigenvalue: one distinct real root of a quadratic
    for a in ([[1, 1], [0, 1]], [[-1, 0], [0, -1]]):
        with pytest.raises(NoNonRealEigenvalue):
            build_lattice_nilpotent(a)


def test_a_zero_upper_right_entry_is_refused_before_the_eigenvector():
    """build_lattice_nilpotent and nakamura_lattice take the eigenvector
    (a01, value - a00), which needs a01 != 0. With a01 = 0 the matrix is
    lower triangular, so its eigenvalues are its integer diagonal:
    build_lattice_nilpotent finds no non-real one, and det = 1 forces
    a00 = a11 = +-1, so nakamura_lattice sees |trace| = 2."""
    r = range(-3, 4)
    for a00, a10, a11 in itertools.product(r, r, r):
        a = [[a00, 0], [a10, a11]]
        with pytest.raises((NotSpecialLinear, NoNonRealEigenvalue)):
            build_lattice_nilpotent(a)
        with pytest.raises((NotSpecialLinear, TraceTooSmall)):
            nakamura_lattice(a, Fraction(1), 1)


def test_build_nonnilpotent_example6():
    spec = build_lattice_nonnilpotent(EXAMPLE6, k=1)
    assert spec.kind == "non_nilpotent"
    assert spec.classification == "3b"
    assert spec.residual <= lattices.RESIDUAL_TOL
    assert spec.independence_margin > lattices.INDEPENDENCE_MARGIN
    assert spec.char_polynomial == Poly([1, -1, 3, -1, 1])
    # k odd: second holonomy generator is -I
    gens = spec.holonomy_generators()
    assert len(gens) == 2
    assert gens[0] == EXAMPLE6
    assert gens[1] == [[-1 if i == j else 0 for j in range(4)]
                       for i in range(4)]
    # mu = i pi, lambda = log(gamma) off the real axis
    assert abs(spec.lambda_generators[1] - 1j * np.pi) < 1e-12


def test_build_nonnilpotent_with_b_matrix():
    spec = build_lattice_nonnilpotent(EXAMPLE6, b=EXAMPLE6)
    assert spec.b_matrix == EXAMPLE6
    assert spec.classification == "3b"
    assert spec.residual <= lattices.RESIDUAL_TOL


def test_build_nonnilpotent_guards():
    with pytest.raises(ValueError):
        build_lattice_nonnilpotent(EXAMPLE6)           # no b, no k
    bad_det = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    with pytest.raises(NotSpecialLinear):
        build_lattice_nonnilpotent(bad_det, k=1)
    shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    with pytest.raises(NotSemisimple):
        build_lattice_nonnilpotent(shear, k=1)
    nonpal = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 2, 0, 0]]
    if not char_poly(nonpal).is_palindromic():
        with pytest.raises(NotReciprocal):
            build_lattice_nonnilpotent(nonpal, k=1)
    # palindromic but all eigenvalues on the unit circle
    rot = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with pytest.raises(NotReciprocal):
        build_lattice_nonnilpotent(rot, k=1)


def test_nakamura_lattice():
    spec = nakamura_lattice([[2, 1], [1, 1]], Fraction(1), 1)
    assert spec.kind == "non_nilpotent"
    assert spec.classification == "3a"
    assert spec.residual <= lattices.RESIDUAL_TOL
    assert spec.independence_margin > lattices.INDEPENDENCE_MARGIN
    gens = spec.holonomy_generators()
    assert len(gens) == 2
    assert gens[0] == [[2, 1, 0, 0], [1, 1, 0, 0],
                       [0, 0, 2, 1], [0, 0, 1, 1]]
    with pytest.raises(TraceTooSmall):
        nakamura_lattice([[1, 1], [-1, 0]], Fraction(1), 1)
    with pytest.raises(NotSpecialLinear):
        nakamura_lattice([[2, 1], [1, 2]], Fraction(1), 1)
    with pytest.raises(ValueError):
        nakamura_lattice([[2, 1], [1, 1]], Fraction(0), 1)


def test_companion_palindromic():
    comp = companion_palindromic(-1, 3)
    assert comp == EXAMPLE6
    assert char_poly(comp) == Poly([1, -1, 3, -1, 1])


def test_search_contains_example6_entry():
    table = search_palindromic(3)
    assert len(table) == 49
    hit = next(e for e in table if (e.p, e.q) == (-1, 3))
    assert hit.classification == "3b"
    assert hit.reason == "no_real_roots"
    assert hit.polynomial == Poly([1, -1, 3, -1, 1])


def test_search_bound5_frozen_counts():
    table = search_palindromic(5)
    assert len(table) == 121
    counts = {"3a": 0, "3b": 0, "excluded": 0}
    for e in table:
        counts[e.classification] += 1
    assert counts == {"3a": 5, "3b": 15, "excluded": 101}


def test_search_matches_numeric_roots():
    """Exact tags against numpy root-finding, zero disagreements."""
    for e in search_palindromic(5):
        roots = np.roots([1.0, e.p, e.q, e.p, 1.0])
        reals = sum(1 for r in roots if abs(r.imag) < 1e-7)
        unit = any(abs(abs(r) - 1.0) < 1e-7 for r in roots)
        ordered = sorted(roots, key=lambda z: (z.real, z.imag))
        repeated = any(abs(ordered[t] - ordered[t + 1]) < 1e-6
                       for t in range(3))
        if repeated or unit:
            want = "excluded"
        elif reals == 4:
            want = "3a"
        elif reals == 0:
            want = "3b"
        else:
            want = "excluded"
        assert e.classification == want, (e.p, e.q, e.reason)


def test_search_reasons_cover_edge_cases():
    table = {(e.p, e.q): e for e in search_palindromic(2)}
    # t^4 + 2t^3 + 2t^2 + 2t + 1 = (t^2+1)(t+1)^2: repeated root
    assert table[(2, 2)].classification == "excluded"
    # t^4 + 1: all roots on the unit circle
    assert table[(0, 0)].reason == "unit_modulus_root"
    with pytest.raises(BoundTooLarge):
        search_palindromic(51)
    with pytest.raises(ValueError):
        search_palindromic(-1)


def _sturm_reference(p, q):
    """The general exact route: squarefree gcd, then Sturm and unit circle."""
    poly = Poly([1, p, q, p, 1])
    if not is_squarefree(poly):
        return "excluded", "not_squarefree"
    report = classify_eigen(poly)
    if report.unit_modulus_root:
        return "excluded", "unit_modulus_root"
    if report.real_roots == 4:
        return "3a", "all_roots_real"
    if report.real_roots == 0:
        return "3b", "no_real_roots"
    return "excluded", "mixed_real_count"


def test_search_matches_sturm_route_on_whole_cap():
    """Integer rule against the exact gcd/Sturm route on all 10 201 pairs."""
    table = search_palindromic(50)
    assert len(table) == 101 * 101
    mismatches = [(e.p, e.q) for e in table
                  if (e.classification, e.reason) != _sturm_reference(e.p, e.q)]
    assert mismatches == []


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.integers(-10 ** 4, 10 ** 4))
@example(4, 6)      # disc = 0: (t + 1)^4
@example(2, 3)      # disc = 0 alone: (t^2 + t + 1)^2
@example(3, -8)     # Q(2) = 0
@example(0, -2)     # Q(2) = Q(-2) = 0
@example(5, 8)      # Q(-2) = 0
@example(4, 7)      # |p| = 4, Q(2), Q(-2) > 0
@example(-4, 7)     # |p| = 4, Q(2), Q(-2) > 0
@example(7, 13)     # |p| > 4, Q(2), Q(-2) > 0: both u below -2
@example(0, -3)     # Q(2), Q(-2) < 0: one u on each side of [-2, 2]
@example(5, 7)      # Q(2) > 0 > Q(-2): one u inside (-2, 2)
@example(1, 1)      # Q(2), Q(-2) > 0 with |p| < 4: both u inside (-2, 2)
@example(-1, 3)     # Example 6, disc < 0
def test_classify_palindromic_matches_sturm_route(p, q):
    assert classify_palindromic(p, q) == _sturm_reference(p, q)
