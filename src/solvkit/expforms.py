"""Exterior calculus in the coordinates (x, y, z) of the 3-dim
non-nilpotent complex group, exact throughout.

Generators are ordered (dx, dxbar, dy, dybar, dz, dzbar), indices 0-5.
A coefficient is a finite sum of monomials

    Scalar * e^{a x + b xbar} * e^{i pi theta} * e^{rho}

with a, b integers and theta, rho rationals. theta lives mod 2 and is
folded into the Scalar whenever it is a multiple of 1/2 (those phases are
Gaussian units), so canonical forms are unique and equality is exact.
The rho slot absorbs the real part of translation exponents e^{m w1};
only integrality of theta is ever decided, so no transcendence questions
arise.

Left translation by (w1, w2, w3) pulls back dy to e^{w1} dy and dz to
e^{-w1} dz while shifting x by w1; dx and the y, z translation parts drop
out. A term with totals m (for w1) and mbar (for conjugate w1) therefore
picks up rho += (m + mbar) Re(w1) and theta += (m - mbar) Im(w1)/pi.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

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


def _coef_insert(coef: Coefficient, mono: Monomial, value: Scalar) -> None:
    mono, value = _fold(mono, value)
    if not value:
        return
    cur = coef.get(mono, Scalar(0)) + value
    if cur:
        coef[mono] = cur
    else:
        coef.pop(mono, None)


def _coef_mul(c1: Coefficient, c2: Coefficient) -> Coefficient:
    out: Coefficient = {}
    for (a1, b1, t1, r1), v1 in c1.items():
        for (a2, b2, t2, r2), v2 in c2.items():
            _coef_insert(out, (a1 + a2, b1 + b2, t1 + t2, r1 + r2), v1 * v2)
    return out


def unit_coefficient(value=1) -> Coefficient:
    v = sc(value)
    return {UNIT_MONOMIAL: v} if v else {}


def monomial_coefficient(a: int, b: int, value=1) -> Coefficient:
    v = sc(value)
    return {(a, b, Fraction(0), Fraction(0)): v} if v else {}


class ExpForm:
    """Exterior form with exponential-monomial coefficients, degree 0..6."""

    def __init__(self, degree: int,
                 terms: Optional[Dict[Tuple[int, ...], Coefficient]] = None):
        if degree < 0 or degree > NGEN:
            raise DegreeTooHigh("form degree %d out of range" % degree)
        self.degree = degree
        self.terms: Dict[Tuple[int, ...], Coefficient] = {}
        for key, coef in (terms or {}).items():
            key = check_key(key, degree, NGEN)
            clean: Coefficient = {}
            for mono, val in coef.items():
                a, b, theta, rho = mono
                _coef_insert(clean, (int(a), int(b), Fraction(theta),
                                     Fraction(rho)), sc(val))
            if clean:
                self.terms[key] = clean

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "ExpForm") -> "ExpForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = {k: dict(v) for k, v in self.terms.items()}
        for key, coef in other.terms.items():
            tgt = out.setdefault(key, {})
            for mono, val in coef.items():
                _coef_insert(tgt, mono, val)
            if not tgt:
                out.pop(key)
        return ExpForm(self.degree, out)

    def negate(self) -> "ExpForm":
        return self.scale(Scalar(-1))

    def scale(self, factor) -> "ExpForm":
        f = sc(factor)
        out: Dict[Tuple[int, ...], Coefficient] = {}
        if f:
            for key, coef in self.terms.items():
                out[key] = {m: f * v for m, v in coef.items()}
        return ExpForm(self.degree, out)

    def scale_coefficient(self, coef: Coefficient) -> "ExpForm":
        out: Dict[Tuple[int, ...], Coefficient] = {}
        for key, own in self.terms.items():
            prod = _coef_mul(own, coef)
            if prod:
                out[key] = prod
        return ExpForm(self.degree, out)

    def wedge(self, other: "ExpForm") -> "ExpForm":
        deg = self.degree + other.degree
        if deg > NGEN:
            return ExpForm(NGEN)  # forced zero: not enough generators
        out: Dict[Tuple[int, ...], Coefficient] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                merged = sort_sign(k1 + k2)
                if merged is None:
                    continue
                key, sign = merged
                prod = _coef_mul(c1, c2)
                tgt = out.setdefault(key, {})
                for mono, val in prod.items():
                    _coef_insert(tgt, mono, val if sign == 1 else -val)
                if not tgt:
                    out.pop(key)
        return ExpForm(deg, out)

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
    out: Dict[Tuple[int, ...], Coefficient] = {}
    for key, coef in f.terms.items():
        for mono, val in coef.items():
            a, b, _theta, _rho = mono
            for gen, weight in ((0, a), (1, b)):
                # d(f e^key) = sum over gen of (df/dgen) e^gen ^ e^key
                merged = sort_sign((gen,) + key) if weight else None
                if merged is None:
                    continue
                new_key, sign = merged
                term_val = val * Scalar(weight)
                tgt = out.setdefault(new_key, {})
                _coef_insert(tgt, mono, term_val if sign == 1 else -term_val)
                if not tgt:
                    out.pop(new_key)
    return ExpForm(f.degree + 1, out)


_CONJ_SWAP = (1, 0, 3, 2, 5, 4)


def conjugate_form(f: ExpForm) -> ExpForm:
    """Complex conjugation: swaps barred and unbarred generators."""
    out: Dict[Tuple[int, ...], Coefficient] = {}
    for key, coef in f.terms.items():
        new_key, sign = sort_sign([_CONJ_SWAP[g] for g in key])
        tgt = out.setdefault(new_key, {})
        for (a, b, theta, rho), val in coef.items():
            cval = val.conjugate()
            _coef_insert(tgt, (b, a, -theta, rho),
                         cval if sign == 1 else -cval)
        if not tgt:
            out.pop(new_key)
    return ExpForm(f.degree, out)


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
    second = w2.wedge(w3b).scale_coefficient(monomial_coefficient(-1, 1))
    third = w2b.wedge(w3).scale_coefficient(monomial_coefficient(1, -1))
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
    out: Dict[Tuple[int, ...], Coefficient] = {}
    for key, coef in f.terms.items():
        key_m = sum(_W1_WEIGHT.get(g, 0) for g in key)
        key_mbar = sum(_W1BAR_WEIGHT.get(g, 0) for g in key)
        tgt = out.setdefault(key, {})
        for (a, b, theta, rho), val in coef.items():
            m = a + key_m
            mbar = b + key_mbar
            new_rho = rho + (m + mbar) * w1_re
            new_theta = theta + (m - mbar) * w1_im
            _coef_insert(tgt, (a, b, new_theta, new_rho), val)
        if not tgt:
            out.pop(key)
    return ExpForm(f.degree, out)


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
    left over from pullbacks have no exact value and are rejected.
    """
    if f.degree > 3:
        raise DegreeTooHigh("restriction implemented through degree 3")
    acc: Dict[Tuple[int, ...], Scalar] = {}
    for key, coef in f.terms.items():
        total = Scalar(0)
        for (a, b, theta, rho), val in coef.items():
            if theta != 0 or rho != 0:
                raise ValueError("coefficient has a non-unit phase tag")
            total = total + val
        if not total:
            continue
        if not key:
            cur = acc.get((), Scalar(0)) + total
            if cur:
                acc[()] = cur
            else:
                acc.pop((), None)
            continue
        # expand each complex generator into its two real components
        expansions = [_REAL_EXPANSION[g] for g in key]
        for mask in range(1 << len(key)):
            real_idx = []
            factor = total
            for t in range(len(key)):
                idx, weight = expansions[t][(mask >> t) & 1]
                real_idx.append(idx)
                factor = factor * weight
            merged = sort_sign(real_idx)
            if merged is None:
                continue
            skey, sign = merged
            cur = acc.get(skey, Scalar(0)) + (factor if sign == 1 else -factor)
            if cur:
                acc[skey] = cur
            else:
                acc.pop(skey, None)
    return Cochain(6, f.degree, acc)
