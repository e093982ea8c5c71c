"""Exact univariate polynomials over the rationals.

Coefficients are fractions.Fraction, stored ascending (coeffs[k] is the
t^k coefficient). This module carries the root-locating machinery the
rest of the toolkit leans on: Sturm-sequence real-root counts, the
all-roots-real and all-roots-pure-imaginary tests, unit-modulus root
detection for the reciprocal polynomials coming from integer matrices,
and factorization over Q (delegated to sympy, which is exact).

gcd, squarefree part and root counts run on content-free int lists, in
the primitive remainder sequences of Collins (J. ACM 14, 1967) and
Brown-Traub (J. ACM 18, 1971): scaled only by |lc| and positive contents,
each list is a positive multiple of its rational one, keeping Sturm signs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple


class Poly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = [Fraction(c) if not isinstance(c, float) else None for c in coeffs]
        if any(c is None for c in cs):
            raise TypeError("float coefficient; polynomials are exact")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- basics ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # zero polynomial has degree -1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            mono = "1" if k == 0 else ("t" if k == 1 else "t^%d" % k)
            terms.append("%s*%s" % (c, mono) if k else str(c))
        return "Poly(%s)" % " + ".join(terms)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] + other[k] for k in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self[k] - other[k] for k in range(n)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly([]), self
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
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading()
        return Poly([c / lead for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- evaluation --------------------------------------------------------

    def eval_fraction(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- structure -----------------------------------------------------------

    def reciprocal(self) -> "Poly":
        """t^deg * p(1/t): the coefficient sequence reversed."""
        return Poly(list(reversed(self.coeffs)))

    def compose_negate(self) -> "Poly":
        """p(-t): flips the sign of odd-degree coefficients."""
        return Poly([c if k % 2 == 0 else -c
                     for k, c in enumerate(self.coeffs)])

    def is_palindromic(self) -> bool:
        return not self.is_zero and self.coeffs == tuple(reversed(self.coeffs))


def poly_from_descending(coeffs: Sequence) -> Poly:
    return Poly(list(reversed(list(coeffs))))


def _primitive(a: List[int]) -> List[int]:
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _ints(p: Poly) -> List[int]:
    """p times a positive rational, as content-free integers."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in p.coeffs])


def _derivative(a: List[int]) -> List[int]:
    return [k * c for k, c in enumerate(a)][1:]


def _rem(a: List[int], b: List[int]) -> List[int]:
    """A positive multiple of a mod b, content-free."""
    r, m = list(a), abs(b[-1])
    while len(r) >= len(b):
        f = r.pop() * m // b[-1]  # m * r - f * t^k * b drops the top term
        k = len(r) + 1 - len(b)
        r = [m * c for c in r]
        for j, c in enumerate(b[:-1]):
            r[k + j] -= f * c
        while r and not r[-1]:
            r.pop()
    return _primitive(r)


def _gcd(a: List[int], b: List[int]) -> List[int]:
    while b:
        a, b = b, _rem(a, b)
    return _primitive(a)


def _squarefree(a: List[int]) -> List[int]:
    """a / gcd(a, a'), an exact division in integers by Gauss's lemma."""
    if len(a) <= 2:
        return a
    g, r = _gcd(a, _derivative(a)), list(a)
    out = [0] * (len(a) - len(g) + 1)
    for k in reversed(range(len(out))):
        out[k] = r[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            r[k + j] -= out[k] * c
    return out


def _sturm(q: List[int]) -> List[List[int]]:
    chain = [q, _derivative(q)]
    while chain[-1]:
        chain.append([-c for c in _rem(chain[-2], chain[-1])])
    return [f for f in chain if f]


def _value_at(a: List[int], x) -> int:
    """d^deg(a) * a(n/d) for x = n/d, d > 0, an integer of the sign of a(x)."""
    acc, dk = 0, 1
    for c in reversed(a):
        acc, dk = acc * x.numerator + c * dk, dk * x.denominator
    return acc


def _variations(values: Iterable) -> int:
    signs = [x > 0 for x in values if x]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _count(chain: List[List[int]], a=None, b=None) -> int:
    """Roots of squarefree chain[0] in (a, b]: V(a) - V(b), None = -+inf."""
    at_a = ([f[-1] if len(f) % 2 else -f[-1] for f in chain] if a is None
            else [_value_at(f, a) for f in chain])
    at_b = [f[-1] if b is None else _value_at(f, b) for f in chain]
    return _variations(at_a) - _variations(at_b)


# -- gcd, squarefree part, Sturm counts ------------------------------------


def poly_gcd(a: Poly, b: Poly) -> Poly:
    return Poly(_gcd(_ints(a), _ints(b))).monic()


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'); same root set, every root simple."""
    return Poly(_squarefree(_ints(p))).monic()


def is_squarefree(p: Poly) -> bool:
    a = _ints(p)
    return bool(a) and len(_gcd(a, _derivative(a))) == 1


def count_real_roots(p: Poly) -> int:
    """Number of distinct real roots of p (whole real line)."""
    if p.is_zero:
        raise ValueError("zero polynomial")
    return _count(_sturm(_squarefree(_ints(p))))


# -- root-location predicates -------------------------------------------------


def all_roots_real(p: Poly) -> bool:
    """True iff every complex root of p is real (multiplicity ignored)."""
    q = _squarefree(_ints(p))
    return len(q) <= 1 or _count(_sturm(q)) == len(q) - 1


def all_roots_pure_imaginary(p: Poly) -> bool:
    """True iff every root of p lies on the imaginary axis (0 included).

    With real coefficients the distinct nonzero roots pair up as +-i*s,
    so the squarefree part without its root 0 must be g(t^2) with g having
    all roots real and negative. That g is squarefree too (g(0) != 0), so
    deg(g) negative roots decide it.
    """
    q = _squarefree(_ints(p))
    q = q[1:] if q[:1] == [0] else q
    g = q[::2]
    return not any(q[1::2]) and (
        len(g) <= 1 or _count(_sturm(g), None, 0) == len(g) - 1)


def descartes_positive_count(p: Poly) -> int:
    """Sign variations of the coefficient sequence.

    Equals the number of positive roots (with multiplicity) whenever all
    roots are real, which is the only way the toolkit uses it.
    """
    return _variations(reversed(p.coeffs))


# -- unit-modulus roots -------------------------------------------------------


def has_unit_modulus_root(p: Poly) -> bool:
    """Exact test for a root of modulus one (rational coefficients, deg <= 4).

    Any unit-modulus root of a real polynomial is shared with its
    reciprocal, so the test reduces along gcd(p, p*) to self-reciprocal
    polynomials. Those without a root at +-1 are palindromic of even
    degree: degree 2 is decided by its discriminant, palindromic quartics
    via the c = (t + 1/t)/2 substitution.
    """
    return _unit_root(_squarefree(_ints(p)))


def real_and_unit_roots(p: Poly) -> Optional[Tuple[int, bool]]:
    """(count_real_roots, has_unit_modulus_root) of squarefree p, else None."""
    a = _ints(p)
    squarefree = len(_gcd(a, _derivative(a))) == 1  # the only gcd with p'
    return (_count(_sturm(a)), _unit_root(a)) if squarefree else None


def _unit_root(q: List[int]) -> bool:  # q squarefree and content-free
    q = q[1:] if q[:1] == [0] else q  # the root 0 is off the circle
    if q[::-1] not in (q, [-c for c in q]):
        q = _gcd(q, q[::-1])  # the roots closed under 1/z: self-reciprocal
    if len(q) <= 1:
        return False
    # anti-palindromic and odd palindromic q vanish at 1 or -1
    if sum(q) == 0 or _value_at(q, -1) == 0:
        return True
    if len(q) == 3:
        return q[1] * q[1] < 4 * q[2] * q[0]  # a conjugate pair, |z| = 1
    if len(q) == 5:
        # q = t^2 (4 q[4] c^2 + 2 q[3] c + q[2] - 2 q[4]) for c = (t + 1/t)/2,
        # so the roots t = e^(i phi) are the roots c = cos(phi) in [-1, 1];
        # the quadratic is squarefree as q is and, as q(+-1) != 0, nonzero
        # at c = +-1
        return _count(_sturm([q[2] - 2 * q[4], 2 * q[3], 4 * q[4]]), -1, 1) > 0
    raise ValueError("unit-modulus test implemented for degree <= 4 only")


# -- factorization over Q (sympy-backed) -------------------------------------


def factor_rational(p: Poly) -> list:
    """Irreducible monic factors of p over Q with multiplicities.

    Returns [(Poly, multiplicity), ...]. Factorization over Q is textbook
    infrastructure, so it is delegated to sympy rather than re-derived.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    import sympy

    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * t**k
               for k, c in enumerate(p.coeffs))
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    out = []
    for fac, mult in factors:
        coeffs = [Fraction(int(c.p), int(c.q))
                  for c in reversed(sympy.Poly(fac, t).all_coeffs())]
        out.append((Poly(coeffs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out
