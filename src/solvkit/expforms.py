"""Exterior calculus in the coordinates (x, y, z) of the 3-dim
non-nilpotent complex group, exact throughout.

Generators are ordered (dx, dxbar, dy, dybar, dz, dzbar), indices 0-5.
A coefficient is a finite sum of monomials

    Scalar * e^{a x + b xbar} * e^{i pi theta} * e^{rho}

with a, b integers and theta, rho rationals. Every operation emits
(key, monomial, value) terms into one accumulation rule, `_form`: theta is
taken mod 2 and folded into the Scalar whenever it is a multiple of 1/2
(those phases are Gaussian units), terms with equal (key, monomial) add,
and zero sums drop. So canonical forms are unique and equality is exact.
The rho slot absorbs the real part of translation exponents e^{m w1};
only integrality of theta is ever decided, so no transcendence questions
arise.

Left translation by (w1, w2, w3) pulls back dy to e^{w1} dy and dz to
e^{-w1} dz while shifting x by w1; dx and the y, z translation parts drop
out. A term with totals m (for w1) and mbar (for conjugate w1) therefore
picks up rho += (m + mbar) Re(w1) and theta += (m - mbar) Im(w1)/pi.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from .cohomology import Cochain, check_key, sort_sign
from .errors import DegreeTooHigh
from .scalars import Scalar, sc

GENERATORS = ("dx", "dxbar", "dy", "dybar", "dz", "dzbar")
NGEN = 6

# monomial key: (a, b, theta, rho)
Monomial = Tuple[int, int, Fraction, Fraction]
Coefficient = Dict[Monomial, Scalar]

UNIT_MONOMIAL: Monomial = (0, 0, Fraction(0), Fraction(0))


def _fold(mono: Monomial, value: Scalar) -> Tuple[Monomial, Scalar]:
    a, b, theta, rho = mono
    theta = theta % 2
    twice = theta * 2
    if twice.denominator == 1:
        # e^{i pi theta} is a Gaussian unit: 1, i, -1, -i
        unit = (Scalar(1), Scalar(0, 1), Scalar(-1), Scalar(0, -1))[int(twice) % 4]
        value = value * unit
        theta = Fraction(0)
    return (a, b, theta, rho), value


def unit_coefficient(value=1) -> Coefficient:
    v = sc(value)
    return {UNIT_MONOMIAL: v} if v else {}


def monomial_coefficient(a: int, b: int, value=1) -> Coefficient:
    v = sc(value)
    return {(a, b, Fraction(0), Fraction(0)): v} if v else {}


# one term of a form: (key, monomial, value)
Term = Tuple[Tuple[int, ...], Monomial, Scalar]


def _form(degree: int, terms: Iterable[Term]) -> "ExpForm":
    """The form that `terms` sum to, by the rule in the module docstring."""
    sums: Dict[Tuple[Tuple[int, ...], Monomial], Scalar] = {}
    for key, mono, value in terms:
        mono, value = _fold(mono, value)
        sums[key, mono] = sums.get((key, mono), 0) + value
    form = ExpForm.__new__(ExpForm)
    form.degree = degree
    form.terms = {}
    for (key, mono), value in sums.items():
        if value:
            form.terms.setdefault(key, {})[mono] = value
    return form


def _terms(f: "ExpForm") -> Iterator[Term]:
    for key, coef in f.terms.items():
        for mono, value in coef.items():
            yield key, mono, value


class ExpForm:
    """Exterior form with exponential-monomial coefficients, degree 0..6."""

    def __init__(self, degree: int,
                 terms: Optional[Dict[Tuple[int, ...], Coefficient]] = None):
        if degree < 0 or degree > NGEN:
            raise DegreeTooHigh("form degree %d out of range" % degree)
        self.degree = degree
        terms = terms or {}
        keys = [check_key(key, degree, NGEN) for key in terms]
        self.terms = _form(degree, (
            (key, (int(a), int(b), Fraction(theta), Fraction(rho)), sc(value))
            for key, coef in zip(keys, terms.values())
            for (a, b, theta, rho), value in coef.items())).terms

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "ExpForm") -> "ExpForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return _form(self.degree, itertools.chain(_terms(self), _terms(other)))

    def negate(self) -> "ExpForm":
        return self.scale(Scalar(-1))

    def scale(self, factor) -> "ExpForm":
        f = sc(factor)
        return _form(self.degree, ((key, mono, f * value)
                                   for key, mono, value in _terms(self)))

    def wedge(self, other: "ExpForm") -> "ExpForm":
        def terms() -> Iterator[Term]:
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    merged = sort_sign(k1 + k2)
                    if merged is None:
                        continue
                    key, sign = merged
                    for (a1, b1, t1, r1), v1 in c1.items():
                        for (a2, b2, t2, r2), v2 in c2.items():
                            yield (key, (a1 + a2, b1 + b2, t1 + t2, r1 + r2),
                                   v1 * v2 * sign)
        # past NGEN every product repeats a generator, so the form is zero
        return _form(min(self.degree + other.degree, NGEN), terms())

    def __eq__(self, other):
        return (isinstance(other, ExpForm) and self.degree == other.degree
                and self.terms == other.terms)

    def __repr__(self):
        if self.is_zero():
            return "ExpForm(degree=%d, 0)" % self.degree
        names = []
        for key in sorted(self.terms):
            names.append("^".join(GENERATORS[g] for g in key) or "1")
        return "ExpForm(degree=%d, terms on %s)" % (self.degree, ", ".join(names))


def form_term(key: Iterable[int], coef: Coefficient) -> ExpForm:
    key = tuple(key)
    return ExpForm(len(key), {key: coef})


def ext_d(f: ExpForm) -> ExpForm:
    """Exterior derivative: d(e^{ax+b xbar}) = e^{..}(a dx + b dxbar)."""
    if f.degree >= NGEN:
        raise DegreeTooHigh("d of a degree-%d form is out of scope" % f.degree)

    def terms() -> Iterator[Term]:
        # d(f e^key) = sum over gen of (df/dgen) e^gen ^ e^key
        for key, mono, value in _terms(f):
            for gen, weight in ((0, mono[0]), (1, mono[1])):
                merged = sort_sign((gen,) + key) if weight else None
                if merged is not None:
                    new_key, sign = merged
                    yield new_key, mono, value * (weight * sign)
    return _form(f.degree + 1, terms())


_CONJ_SWAP = (1, 0, 3, 2, 5, 4)


def conjugate_form(f: ExpForm) -> ExpForm:
    """Complex conjugation: swaps barred and unbarred generators."""
    def terms() -> Iterator[Term]:
        for key, coef in f.terms.items():
            new_key, sign = sort_sign([_CONJ_SWAP[g] for g in key])
            for (a, b, theta, rho), value in coef.items():
                yield new_key, (b, a, -theta, rho), value.conjugate() * sign
    return _form(f.degree, terms())


def omega_coordinate() -> ExpForm:
    """i dx^dxbar + dy^dzbar + dybar^dz."""
    return ExpForm(2, {
        (0, 1): unit_coefficient(Scalar(0, 1)),
        (2, 5): unit_coefficient(1),
        (3, 4): unit_coefficient(1),
    })


def maurer_cartan_forms() -> Tuple[ExpForm, ExpForm, ExpForm]:
    """(dx, e^x dy, e^{-x} dz) as degree-1 forms."""
    w1 = form_term((0,), unit_coefficient(1))
    w2 = form_term((2,), monomial_coefficient(1, 0))
    w3 = form_term((4,), monomial_coefficient(-1, 0))
    return w1, w2, w3


def omega_mc() -> ExpForm:
    """i w1^conj(w1) + e^{xbar-x} w2^conj(w3) + e^{x-xbar} conj(w2)^w3."""
    w1, w2, w3 = maurer_cartan_forms()
    w1b, w2b, w3b = (conjugate_form(w) for w in (w1, w2, w3))
    first = w1.wedge(w1b).scale(Scalar(0, 1))
    second = w2.wedge(w3b).wedge(form_term((), monomial_coefficient(-1, 1)))
    third = w2b.wedge(w3).wedge(form_term((), monomial_coefficient(1, -1)))
    return first.add(second).add(third)


class LatticeTranslation(NamedTuple):
    """Left translation data; only the x-component ever matters.

    w1 = w1_re + i pi w1_im_pi. The y and z parts are carried for the
    record: their differentials are translation-invariant, so they cannot
    enter any pullback coefficient.
    """
    w1_re: Fraction = Fraction(0)
    w1_im_pi: Fraction = Fraction(0)
    w2_re: Fraction = Fraction(0)
    w3_re: Fraction = Fraction(0)

    def compose(self, other: "LatticeTranslation") -> "LatticeTranslation":
        # x-parts add under the group law; y, z parts are inert here and
        # their exact composition involves e^{w1}, so they are dropped
        return LatticeTranslation(
            Fraction(self.w1_re) + Fraction(other.w1_re),
            Fraction(self.w1_im_pi) + Fraction(other.w1_im_pi))


# how many powers of e^{w1} (resp. e^{conj w1}) each generator contributes
_W1_WEIGHT = {2: 1, 4: -1}      # dy, dz
_W1BAR_WEIGHT = {3: 1, 5: -1}   # dybar, dzbar


def pullback_translation(f: ExpForm, t: LatticeTranslation) -> ExpForm:
    w1_re = Fraction(t.w1_re)
    w1_im = Fraction(t.w1_im_pi)

    def terms() -> Iterator[Term]:
        for key, coef in f.terms.items():
            key_m = sum(_W1_WEIGHT.get(g, 0) for g in key)
            key_mbar = sum(_W1BAR_WEIGHT.get(g, 0) for g in key)
            for (a, b, theta, rho), value in coef.items():
                m = a + key_m
                mbar = b + key_mbar
                yield (key, (a, b, theta + (m - mbar) * w1_im,
                             rho + (m + mbar) * w1_re), value)
    return _form(f.degree, terms())


def theorem9_checks() -> Dict[str, object]:
    """The coordinate-form checks of Theorem 9, in report order.

    `presentations_equal`: the coordinate and Maurer-Cartan presentations of
    omega agree; `d_omega_zero`: both are closed; `invariance`: omega is
    invariant under the translation with Im(w1) = k pi, keyed by str(k) for
    k = -2..2; `negative_half_integer`: Im(w1) = pi/2 moves omega (control).
    """
    omega_c = omega_coordinate()
    omega_m = omega_mc()
    invariance = {}
    for k in (-2, -1, 0, 1, 2):
        t = LatticeTranslation(w1_re=Fraction(1), w1_im_pi=Fraction(k),
                               w2_re=Fraction(1, 3), w3_re=Fraction(-2))
        invariance[str(k)] = pullback_translation(omega_c, t) == omega_c
    half = LatticeTranslation(w1_re=Fraction(0), w1_im_pi=Fraction(1, 2),
                              w2_re=Fraction(0), w3_re=Fraction(0))
    return {
        "presentations_equal": omega_c == omega_m,
        "d_omega_zero": ext_d(omega_c).is_zero() and ext_d(omega_m).is_zero(),
        "invariance": invariance,
        "negative_half_integer": pullback_translation(omega_c, half) != omega_c,
    }


# real duals: dx = xi0 + i xi3, dy = xi1 + i xi4, dz = xi2 + i xi5 on the
# ordered real basis (X, Y, Z, iX, iY, iZ)
_REAL_EXPANSION = {
    0: ((0, Scalar(1)), (3, Scalar(0, 1))),
    1: ((0, Scalar(1)), (3, Scalar(0, -1))),
    2: ((1, Scalar(1)), (4, Scalar(0, 1))),
    3: ((1, Scalar(1)), (4, Scalar(0, -1))),
    4: ((2, Scalar(1)), (5, Scalar(0, 1))),
    5: ((2, Scalar(1)), (5, Scalar(0, -1))),
}


def restrict_identity(f: ExpForm) -> Cochain:
    """Value at the identity as a cochain on the 6-dim realified algebra.

    All exponential monomials evaluate to 1 at x = 0; phase or rho tags
    left over from pullbacks have no exact value and are rejected, and a
    non-real value is refused by the Cochain (ValueError).
    """
    if f.degree > 3:
        raise DegreeTooHigh("restriction implemented through degree 3")
    acc: Dict[Tuple[int, ...], Scalar] = {}
    for key, (_a, _b, theta, rho), value in _terms(f):
        if theta != 0 or rho != 0:
            raise ValueError("coefficient has a non-unit phase tag")
        # expand each complex generator into its two real components
        for choice in itertools.product(*(_REAL_EXPANSION[g] for g in key)):
            merged = sort_sign([idx for idx, _ in choice])
            if merged is None:
                continue
            real_key, real_value = merged[0], value * merged[1]
            for _, weight in choice:
                real_value = real_value * weight
            acc[real_key] = acc.get(real_key, 0) + real_value
    return Cochain(6, f.degree, acc)
