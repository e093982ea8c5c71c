"""Exact polynomial arithmetic, Sturm counts, and root-location predicates."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from solvkit.polys import (Poly, _count, _ints, _squarefree, _sturm,
                           _value_at, all_roots_pure_imaginary,
                           all_roots_real, count_real_roots,
                           descartes_positive_count, factor_rational,
                           has_unit_modulus_root, is_squarefree, poly_gcd)


class RingPoly(Poly):
    """Poly with the Fraction ring that the integer routes are checked
    against: + - * (by a Poly or a rational), divmod // %, monic, the
    derivative, the value at a rational and the reversed coefficients."""

    __slots__ = ()

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RingPoly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return RingPoly([self[k] - other[k] for k in range(n)])

    def __neg__(self):
        return RingPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RingPoly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RingPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RingPoly(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RingPoly([]), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading()
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            f = top / lead
            quo[k] = f
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= f * b
        return RingPoly(quo), RingPoly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        return RingPoly(Poly.monic(self).coeffs)

    def derivative(self):
        return RingPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def eval_fraction(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reciprocal(self):
        """t^deg * p(1/t): the coefficient sequence reversed."""
        return RingPoly(list(reversed(self.coeffs)))


# -- thin helpers over the integer routines, tested against the Fraction
# references below ----------------------------------------------------------


def sturm_chain(p):
    """p, p', -rem(p, p'), ..., each up to a positive factor."""
    return [Poly(f) for f in _sturm(_ints(p))]


def count_real_roots_in(p, a, b):
    """Distinct real roots of p in the closed interval [a, b], exactly."""
    a, b = Fraction(a), Fraction(b)
    if a > b:
        raise ValueError("empty interval")
    q = _squarefree(_ints(p))
    return _count(_sturm(q), a, b) + (bool(q) and _value_at(q, a) == 0)


def squarefree_part(p):
    """p divided by gcd(p, p'): same root set, every root simple."""
    return RingPoly(_squarefree(_ints(p))).monic()


def count_negative_real_roots(p):
    """Distinct real roots in (-inf, 0). Zero is not counted."""
    q = _squarefree(_ints(p))
    return _count(_sturm(q), None, 0) - (q[:1] == [0])


def _palindromic_quartic_reduction_reference(p_coeff, q_coeff):
    """For t^4 + p t^3 + q t^2 + p t + 1, the quadratic in c = (t + 1/t)/2.

    Unit-circle roots t = e^{i*phi} correspond exactly to real roots
    c = cos(phi) of 4c^2 + 2pc + (q - 2) inside [-1, 1].
    """
    return RingPoly([q_coeff - 2, 2 * p_coeff, Fraction(4)])


def test_basic_shape():
    p = Poly([1, 0, 2])           # 1 + 2t^2, ascending storage
    assert p.degree == 2
    assert p[0] == 1 and p[1] == 0 and p[2] == 2
    assert p[17] == 0
    assert Poly([]).is_zero
    assert Poly([0, 0]).is_zero
    assert Poly([]).degree == -1
    with pytest.raises(TypeError):
        Poly([0.5])


def test_ring_operations_random():
    rng = random.Random(3)

    def rand_poly():
        return RingPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 5))])

    for _ in range(150):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        if not b.is_zero:
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def test_derivative_and_eval():
    p = RingPoly([1, -2, 0, 4])   # 1 - 2t + 4t^3
    assert p.derivative() == Poly([-2, 0, 12])
    assert p.eval_fraction(Fraction(1, 2)) == Fraction(1, 2)


def test_gcd_and_squarefree():
    t_minus_1 = RingPoly([-1, 1])
    t_plus_2 = Poly([2, 1])
    p = t_minus_1 * t_minus_1 * t_plus_2
    assert poly_gcd(p, p.derivative()) == t_minus_1
    assert squarefree_part(p) == t_minus_1 * t_plus_2
    assert not is_squarefree(p)
    assert is_squarefree(t_minus_1 * t_plus_2)


def test_count_real_roots():
    # (t-1)(t-2)(t^2+1) has exactly two real roots
    p = RingPoly([-1, 1]) * Poly([-2, 1]) * Poly([1, 0, 1])
    assert count_real_roots(p) == 2
    assert count_real_roots(Poly([1, 0, 1])) == 0
    assert count_real_roots(Poly([0, 1])) == 1
    # multiplicity does not inflate the count
    assert count_real_roots(RingPoly([-1, 1]) * Poly([-1, 1])) == 1
    with pytest.raises(ValueError):
        count_real_roots(Poly([]))


def test_count_real_roots_in_interval():
    p = RingPoly([-1, 1]) * Poly([-2, 1]) * Poly([-3, 1])
    assert count_real_roots_in(p, 0, 4) == 3
    assert count_real_roots_in(p, 1, 2) == 2      # endpoints count
    assert count_real_roots_in(p, Fraction(3, 2), Fraction(5, 2)) == 1
    assert count_real_roots_in(p, 5, 9) == 0
    assert count_real_roots_in(p, 2, 2) == 1
    with pytest.raises(ValueError):
        count_real_roots_in(p, 2, 1)


def test_count_negative_real_roots():
    p = RingPoly([2, 1]) * Poly([-1, 1]) * Poly([0, 1])   # roots -2, 1, 0
    assert count_negative_real_roots(p) == 1
    assert count_negative_real_roots(Poly([1, 0, 1])) == 0


def test_all_roots_real():
    assert all_roots_real(Poly([-6, 11, -6, 1]))   # (t-1)(t-2)(t-3)
    assert not all_roots_real(Poly([1, 0, 1]))
    assert all_roots_real(Poly([5]))
    # char poly of [[2,1],[1,1]]: t^2 - 3t + 1, two real roots
    assert all_roots_real(Poly([1, -3, 1]))
    assert count_real_roots(Poly([1, -3, 1])) == 2


def test_all_roots_pure_imaginary():
    assert all_roots_pure_imaginary(Poly([1, 0, 1]))        # +-i
    assert all_roots_pure_imaginary(Poly([4, 0, 1]))        # +-2i
    assert all_roots_pure_imaginary(Poly([0, 1]))           # 0
    assert all_roots_pure_imaginary(Poly([0, 4, 0, 1]))     # 0, +-2i
    assert not all_roots_pure_imaginary(Poly([-1, 0, 1]))   # +-1
    assert not all_roots_pure_imaginary(Poly([1, 1, 1]))


def test_reciprocal_and_palindromic():
    p = RingPoly([1, -1, 3, -1, 1])
    assert p.is_palindromic()
    assert p.reciprocal() == p
    q = RingPoly([1, 2, 3])
    assert q.reciprocal() == Poly([3, 2, 1])
    assert not q.is_palindromic()
    assert q.compose_negate() == Poly([1, -2, 3])


def test_descartes_positive_count():
    # all roots real: count is exact. (t-1)(t-2)(t+3)
    p = RingPoly([-1, 1]) * Poly([-2, 1]) * Poly([3, 1])
    assert descartes_positive_count(p) == 2
    assert descartes_positive_count(p.compose_negate()) == 1


def test_palindromic_quartic_reduction():
    # t^4 + 1: phi = pi/4 roots, cos values +-1/sqrt2 inside [-1,1]
    reduced = _palindromic_quartic_reduction_reference(Fraction(0), Fraction(0))
    assert reduced == Poly([-2, 0, 4])
    assert count_real_roots_in(reduced, -1, 1) == 2


def test_has_unit_modulus_root():
    assert has_unit_modulus_root(Poly([-1, 1]))          # t - 1
    assert has_unit_modulus_root(Poly([1, 1]))           # t + 1
    assert has_unit_modulus_root(Poly([1, 0, 1]))        # +-i
    assert has_unit_modulus_root(Poly([1, -1, 1]))       # primitive 6th roots
    assert not has_unit_modulus_root(Poly([2, 0, 1]))    # +-i sqrt2
    assert not has_unit_modulus_root(Poly([-2, 1]))      # t - 2
    # t^2 - 3t + 1: roots (3 +- sqrt5)/2, both off the circle
    assert not has_unit_modulus_root(Poly([1, -3, 1]))
    # the target quartic: no unit-modulus roots despite being palindromic
    assert not has_unit_modulus_root(Poly([1, -1, 3, -1, 1]))
    # t^4 + t^3 + t^2 + t + 1 = 5th cyclotomic: all roots on the circle
    assert has_unit_modulus_root(Poly([1, 1, 1, 1, 1]))
    # non-self-reciprocal with a circle factor: (t-2)(t^2+1)
    assert has_unit_modulus_root(RingPoly([-2, 1]) * Poly([1, 0, 1]))


def test_factor_rational():
    p = RingPoly([-1, 1]) * Poly([-1, 1]) * Poly([1, 0, 1])
    factors = factor_rational(p)
    assert factors == [(Poly([-1, 1]), 2), (Poly([1, 0, 1]), 1)]
    # ordering is by degree then coefficients, deterministic
    q = RingPoly([1, 0, 1]) * Poly([2, 1])
    assert [f.degree for f, _ in factor_rational(q)] == [1, 2]
    with pytest.raises(ValueError):
        factor_rational(Poly([]))


def test_factor_rational_scales_leading_into_monic():
    p = RingPoly([Fraction(1, 2), 1]) * 2      # 1 + 2t
    factors = factor_rational(p)
    assert factors == [(Poly([Fraction(1, 2), 1]), 1)]


# -- the Fraction route, kept as the oracle of the integer one ---------------


def _fraction_poly_gcd_reference(a, b):
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else a


def _fraction_squarefree_part_reference(p):
    if p.is_zero or p.degree == 0:
        return p.monic() if not p.is_zero else p
    g = _fraction_poly_gcd_reference(p, p.derivative())
    return (p // g).monic()


def _fraction_sturm_chain_reference(p):
    chain = [p, p.derivative()]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero:
        chain.pop()
    return chain


def _sign(x):
    return (x > 0) - (x < 0)


def _variations(signs):
    seq = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(seq, seq[1:]) if a != b)


def _sign_at_inf(p, positive):
    if p.is_zero:
        return 0
    s = _sign(p.leading())
    if not positive and p.degree % 2 == 1:
        s = -s
    return s


def _fraction_count_real_roots_reference(p):
    q = _fraction_squarefree_part_reference(p)
    if q.degree <= 0:
        return 0
    chain = _fraction_sturm_chain_reference(q)
    v_neg = _variations(_sign_at_inf(f, positive=False) for f in chain)
    v_pos = _variations(_sign_at_inf(f, positive=True) for f in chain)
    return v_neg - v_pos


def _count_roots_open(q, a, b):
    chain = _fraction_sturm_chain_reference(q)
    va = _variations(_sign(f.eval_fraction(a)) for f in chain)
    vb = _variations(_sign(f.eval_fraction(b)) for f in chain)
    return va - vb


def _fraction_count_real_roots_in_reference(p, a, b):
    a, b = Fraction(a), Fraction(b)
    q = _fraction_squarefree_part_reference(p)
    if q.degree <= 0:
        return 0
    count = 0
    for end in ({a, b} if a != b else {a}):
        if q.eval_fraction(end) == 0:
            count += 1
            q = q // Poly([-end, 1])
    if a == b or q.degree <= 0:
        return count
    return count + _count_roots_open(q, a, b)


def _fraction_count_negative_real_roots_reference(p):
    q = _fraction_squarefree_part_reference(p)
    if q.degree <= 0:
        return 0
    if q.eval_fraction(0) == 0:
        q = q // Poly([0, 1])
        if q.degree <= 0:
            return 0
    chain = _fraction_sturm_chain_reference(q)
    v_neg = _variations(_sign_at_inf(f, positive=False) for f in chain)
    v0 = _variations(_sign(f.eval_fraction(Fraction(0))) for f in chain)
    return v_neg - v0


def _fraction_has_unit_modulus_root_reference(p):
    q = _fraction_squarefree_part_reference(p)
    if q.degree <= 0:
        return False
    rec = q.reciprocal()
    if q.monic() != rec.monic() and q.monic() != (-rec).monic():
        g = _fraction_poly_gcd_reference(q, rec)
        if g.degree <= 0:
            return False
        return _fraction_has_unit_modulus_root_reference(g)
    if q.eval_fraction(1) == 0 or q.eval_fraction(-1) == 0:
        return True
    if q.degree == 1:
        return False
    if q.degree == 2:
        disc = q[1] * q[1] - 4 * q[2] * q[0]
        if disc < 0:
            return q[0] / q[2] == 1
        return False
    if q.degree == 3:
        return False
    if q.degree == 4 and q.is_palindromic():
        m = q.monic()
        reduced = _palindromic_quartic_reduction_reference(m[3], m[2])
        return _fraction_count_real_roots_in_reference(reduced, -1, 1) > 0
    if q.degree == 4:
        return False
    raise ValueError("unit-modulus test implemented for degree <= 4 only")


def _fraction_all_roots_pure_imaginary_reference(p):
    q = _fraction_squarefree_part_reference(p)
    if q.degree <= 0:
        return True
    if q.eval_fraction(0) == 0:
        q = q // Poly([0, 1])
    if q.degree == 0:
        return True
    if any(q[k] != 0 for k in range(1, q.degree + 1, 2)):
        return False
    g = RingPoly([q[2 * k] for k in range(q.degree // 2 + 1)])
    if _fraction_count_real_roots_reference(g) != g.degree:
        return False
    return _fraction_count_negative_real_roots_reference(g) == g.degree


def _outcome(f, p):
    try:
        return f(p)
    except ValueError as e:
        return str(e)


FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))
NONZERO = FRACTIONS.filter(bool)
# (kind, c, d, e, times in p, times in r) for the factors of the pool below
FACTORS = st.tuples(st.integers(0, 8), FRACTIONS, FRACTIONS, NONZERO,
                    st.integers(1, 2), st.integers(0, 2))


@st.composite
def polys_and_ends(draw):
    """(p, r, a, b): p and r of degree <= 8 built from one factor pool.

    The pool holds t - c for c in {0, 1, -1, a, b} or any small fraction,
    t^2 + c, random quadratics (irreducible, unit-circle or split) and
    palindromic quartics, each up to twice in p and r, times a nonzero,
    possibly negative or fractional, leading coefficient. The shared pool
    gives p and r common factors.
    """
    a, b = sorted(draw(st.tuples(FRACTIONS, FRACTIONS)))
    p, r = RingPoly([draw(NONZERO)]), RingPoly([draw(NONZERO)])
    for kind, c, d, e, in_p, in_r in draw(st.lists(FACTORS, min_size=1,
                                                   max_size=4)):
        f = (Poly([-[0, 1, -1, a, b, c][kind], 1]) if kind <= 5
             else [Poly([c, 0, 1]), Poly([c, d, e]),
                   Poly([1, c, d, c, 1])][kind - 6])
        p = prod([f] * min(in_p, (8 - p.degree) // f.degree), start=p)
        r = prod([f] * min(in_r, (8 - r.degree) // f.degree), start=r)
    return p, r, a, b


@given(polys_and_ends())
@example((RingPoly([-1, 0, 1]) * Poly([-1, 0, 1]), RingPoly([1, 1]), -1, 1))
@example((RingPoly([0, 0, 4, 0, 1]), RingPoly([0]), 0, 0))
@example((RingPoly([1, -1, 3, -1, 1]), RingPoly([1, 0, 1]), Fraction(-1, 2),
          2))
def test_integer_route_matches_fraction_reference(case):
    p, r, a, b = case
    assert poly_gcd(p, r) == _fraction_poly_gcd_reference(p, r)
    assert poly_gcd(p, p.derivative()) == \
        _fraction_poly_gcd_reference(p, p.derivative())
    assert squarefree_part(p) == _fraction_squarefree_part_reference(p)
    assert is_squarefree(p) == (
        _fraction_poly_gcd_reference(p, p.derivative()).degree == 0)
    assert count_real_roots(p) == _fraction_count_real_roots_reference(p)
    assert count_real_roots_in(p, a, b) == \
        _fraction_count_real_roots_in_reference(p, a, b)
    assert count_negative_real_roots(p) == \
        _fraction_count_negative_real_roots_reference(p)
    q = _fraction_squarefree_part_reference(p)
    assert all_roots_real(p) == (
        _fraction_count_real_roots_reference(q) == max(q.degree, 0))
    assert all_roots_pure_imaginary(p) == \
        _fraction_all_roots_pure_imaginary_reference(p)
    assert _outcome(has_unit_modulus_root, p) == \
        _outcome(_fraction_has_unit_modulus_root_reference, p)
    # the integer chain is the Fraction one up to positive factors
    chain = sturm_chain(p)
    reference = _fraction_sturm_chain_reference(p)
    assert len(chain) == len(reference)
    for f, g in zip(chain, reference):
        ratio = f.leading() / g.leading()
        assert ratio > 0 and f == g * ratio
