"""Coordinate exterior calculus with exponential coefficients."""

import collections
import random
from fractions import Fraction

import pytest

from solvkit import expforms
from solvkit.cohomology import Cochain, sort_sign
from solvkit.errors import DegreeTooHigh
from solvkit.expforms import (ExpForm, LatticeTranslation, conjugate_form,
                              ext_d, form_term, maurer_cartan_forms,
                              monomial_coefficient, omega_coordinate,
                              omega_mc, pullback_translation,
                              restrict_identity, unit_coefficient)
from solvkit.scalars import Scalar


def _rand_form(rng, degree):
    keys = []
    pool = list(range(6))
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = tuple(sorted(rng.sample(pool, degree)))
        coef = monomial_coefficient(rng.randint(-2, 2), rng.randint(-2, 2),
                                    Scalar(rng.randint(-3, 3),
                                           rng.randint(-3, 3)))
        if not coef:
            continue
        cur = terms.setdefault(key, {})
        for mono, val in coef.items():
            cur[mono] = cur.get(mono, Scalar(0)) + val
        keys.append(key)
    return ExpForm(degree, terms)


def test_construction_validation():
    with pytest.raises(DegreeTooHigh):
        ExpForm(7)
    with pytest.raises(ValueError):
        ExpForm(2, {(1, 0): unit_coefficient(1)})
    with pytest.raises(ValueError):
        ExpForm(1, {(9,): unit_coefficient(1)})
    assert ExpForm(2).is_zero()


def test_phase_folding():
    # e^{i pi} folds to the unit -1
    f = ExpForm(1, {(0,): {(0, 0, Fraction(1), Fraction(0)): Scalar(1)}})
    g = form_term((0,), unit_coefficient(-1))
    assert f == g
    # e^{i pi / 2} folds to i
    h = ExpForm(1, {(0,): {(0, 0, Fraction(1, 2), Fraction(0)): Scalar(1)}})
    assert h == form_term((0,), unit_coefficient(Scalar(0, 1)))
    # e^{i pi / 3} stays symbolic
    s = ExpForm(1, {(0,): {(0, 0, Fraction(1, 3), Fraction(0)): Scalar(1)}})
    assert s != form_term((0,), unit_coefficient(1))
    assert not s.is_zero()


def test_wedge_antisymmetry_and_associativity():
    rng = random.Random(61)
    for _ in range(40):
        a = _rand_form(rng, 1)
        b = _rand_form(rng, 1)
        c = _rand_form(rng, 1)
        assert a.wedge(b) == b.wedge(a).negate()
        assert a.wedge(a).is_zero()
        assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
        assert a.wedge(b.add(c)) == a.wedge(b).add(a.wedge(c))


def test_d_squared_zero_random():
    rng = random.Random(67)
    for _ in range(60):
        f = _rand_form(rng, rng.randint(0, 2))
        assert ext_d(ext_d(f)).is_zero()


def test_d_leibniz_degree_one():
    rng = random.Random(71)
    for _ in range(30):
        a = _rand_form(rng, 1)
        b = _rand_form(rng, 1)
        lhs = ext_d(a.wedge(b))
        rhs = ext_d(a).wedge(b).add(a.wedge(ext_d(b)).negate())
        assert lhs == rhs


def test_conjugation_involution():
    rng = random.Random(73)
    for _ in range(30):
        f = _rand_form(rng, rng.randint(1, 2))
        assert conjugate_form(conjugate_form(f)) == f


def test_maurer_cartan_structure_equations():
    """dw1 = 0, dw2 = w1 ^ w2, dw3 = -w1 ^ w3."""
    w1, w2, w3 = maurer_cartan_forms()
    assert ext_d(w1).is_zero()
    assert ext_d(w2) == w1.wedge(w2)
    assert ext_d(w3) == w1.wedge(w3).negate()


def test_omega_presentations_agree():
    assert omega_mc() == omega_coordinate()


def test_omega_closed_and_real():
    w = omega_coordinate()
    assert ext_d(w).is_zero()
    assert ext_d(omega_mc()).is_zero()
    # conjugation fixes omega (it is a real form)
    assert conjugate_form(w) == w


def test_omega_cubed_is_volume():
    w = omega_coordinate()
    cube = w.wedge(w).wedge(w)
    assert list(cube.terms) == [(0, 1, 2, 3, 4, 5)]
    coef = cube.terms[(0, 1, 2, 3, 4, 5)]
    assert coef == {(0, 0, Fraction(0), Fraction(0)): Scalar(0, 6)}


def test_pullback_invariance_grid():
    w = omega_coordinate()
    for k in (-2, -1, 0, 1, 2):
        t = LatticeTranslation(w1_re=Fraction(1), w1_im_pi=Fraction(k),
                               w2_re=Fraction(1, 3), w3_re=Fraction(-2))
        assert pullback_translation(w, t) == w, k


def test_pullback_fails_at_half_integer():
    w = omega_coordinate()
    half = LatticeTranslation(w1_im_pi=Fraction(1, 2))
    assert pullback_translation(w, half) != w


def test_pullback_multiplicative():
    """Pullback along a composition equals composed pullbacks (x-parts add)."""
    rng = random.Random(79)
    for _ in range(25):
        f = _rand_form(rng, rng.randint(1, 2))
        t1 = LatticeTranslation(w1_re=Fraction(rng.randint(-2, 2)),
                                w1_im_pi=Fraction(rng.randint(-2, 2), 2))
        t2 = LatticeTranslation(w1_re=Fraction(rng.randint(-2, 2)),
                                w1_im_pi=Fraction(rng.randint(-2, 2), 2))
        both = t1.compose(t2)
        assert pullback_translation(pullback_translation(f, t1), t2) == \
            pullback_translation(f, both)


def test_pullback_commutes_with_d():
    rng = random.Random(83)
    for _ in range(25):
        f = _rand_form(rng, rng.randint(0, 2))
        t = LatticeTranslation(w1_re=Fraction(rng.randint(-2, 2)),
                               w1_im_pi=Fraction(rng.randint(-1, 1)))
        assert ext_d(pullback_translation(f, t)) == \
            pullback_translation(ext_d(f), t)


def test_restrict_identity_fixture():
    w = omega_coordinate()
    r = restrict_identity(w)
    assert r.degree == 2 and r.dim == 6
    assert {k: str(v) for k, v in r.coeffs.items()} == {
        (0, 3): "2", (1, 2): "2", (4, 5): "2"}


def test_restrict_identity_rejects_phase_tags():
    w = omega_coordinate()
    t = LatticeTranslation(w1_im_pi=Fraction(1, 3))
    moved = pullback_translation(w, t)
    with pytest.raises(ValueError):
        restrict_identity(moved)


def test_restrict_identity_linear():
    w1, w2, _ = maurer_cartan_forms()
    w1b = conjugate_form(w1)
    # dx ^ dxbar = -2i xi0 ^ xi3 and dx = xi0 + i xi3: a Cochain is real
    for f in (w1.wedge(w1b), w1):
        with pytest.raises(ValueError, match="real entry required"):
            restrict_identity(f)
    a = restrict_identity(w1.wedge(w1b).scale(Scalar(0, 1)))
    b = restrict_identity(w1.add(w1b))
    assert a.degree == 2 and b.degree == 1
    assert {k: str(v) for k, v in a.coeffs.items()} == {(0, 3): "2"}
    assert {k: str(v) for k, v in b.coeffs.items()} == {(0,): "2"}


# -- the route before the one accumulation rule, kept as an oracle ------------
#
# Each operation inserted its terms by hand into nested {key: {monomial:
# Scalar}} dicts through _coef_insert_reference. The references below return
# that dict, so they check expforms._form without going through it.


def _coef_insert_reference(coef, mono, value):
    mono, value = expforms._fold(mono, value)
    if not value:
        return
    cur = coef.get(mono, Scalar(0)) + value
    if cur:
        coef[mono] = cur
    else:
        coef.pop(mono, None)


def _coef_mul_reference(c1, c2):
    out = {}
    for (a1, b1, t1, r1), v1 in c1.items():
        for (a2, b2, t2, r2), v2 in c2.items():
            _coef_insert_reference(out, (a1 + a2, b1 + b2, t1 + t2, r1 + r2),
                                   v1 * v2)
    return out


def _add_reference(f, g):
    out = {k: dict(v) for k, v in f.terms.items()}
    for key, coef in g.terms.items():
        tgt = out.setdefault(key, {})
        for mono, val in coef.items():
            _coef_insert_reference(tgt, mono, val)
        if not tgt:
            out.pop(key)
    return out


def _scale_reference(f, factor):
    return {key: {m: factor * v for m, v in coef.items()}
            for key, coef in f.terms.items()} if factor else {}


def _scale_coefficient_reference(f, coef):
    out = {}
    for key, own in f.terms.items():
        prod = _coef_mul_reference(own, coef)
        if prod:
            out[key] = prod
    return out


def _wedge_reference(f, g):
    if f.degree + g.degree > expforms.NGEN:
        return {}
    out = {}
    for k1, c1 in f.terms.items():
        for k2, c2 in g.terms.items():
            merged = sort_sign(k1 + k2)
            if merged is None:
                continue
            key, sign = merged
            prod = _coef_mul_reference(c1, c2)
            tgt = out.setdefault(key, {})
            for mono, val in prod.items():
                _coef_insert_reference(tgt, mono, val if sign == 1 else -val)
            if not tgt:
                out.pop(key)
    return out


def _ext_d_reference(f):
    out = {}
    for key, coef in f.terms.items():
        for mono, val in coef.items():
            a, b, _theta, _rho = mono
            for gen, weight in ((0, a), (1, b)):
                merged = sort_sign((gen,) + key) if weight else None
                if merged is None:
                    continue
                new_key, sign = merged
                term_val = val * Scalar(weight)
                tgt = out.setdefault(new_key, {})
                _coef_insert_reference(tgt, mono,
                                       term_val if sign == 1 else -term_val)
                if not tgt:
                    out.pop(new_key)
    return out


def _conjugate_form_reference(f):
    swap = (1, 0, 3, 2, 5, 4)
    out = {}
    for key, coef in f.terms.items():
        new_key, sign = sort_sign([swap[g] for g in key])
        tgt = out.setdefault(new_key, {})
        for (a, b, theta, rho), val in coef.items():
            cval = val.conjugate()
            _coef_insert_reference(tgt, (b, a, -theta, rho),
                                   cval if sign == 1 else -cval)
        if not tgt:
            out.pop(new_key)
    return out


def _pullback_translation_reference(f, t):
    w1_weight = {2: 1, 4: -1}
    w1bar_weight = {3: 1, 5: -1}
    out = {}
    for key, coef in f.terms.items():
        key_m = sum(w1_weight.get(g, 0) for g in key)
        key_mbar = sum(w1bar_weight.get(g, 0) for g in key)
        tgt = out.setdefault(key, {})
        for (a, b, theta, rho), val in coef.items():
            m = a + key_m
            mbar = b + key_mbar
            _coef_insert_reference(
                tgt, (a, b, theta + (m - mbar) * Fraction(t.w1_im_pi),
                      rho + (m + mbar) * Fraction(t.w1_re)), val)
        if not tgt:
            out.pop(key)
    return out


def _restrict_identity_reference(f):
    """The restriction's Scalar values by key, non-real ones included."""
    expansion = expforms._REAL_EXPANSION
    acc = {}
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
        expansions = [expansion[g] for g in key]
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
    return acc


def _restricts_like_the_reference(f):
    """restrict_identity(f) against the reference: the same cochain where
    the reference is real, refused exactly where it is not; True if real."""
    want = _restrict_identity_reference(f)
    if any(v.im for v in want.values()):
        with pytest.raises(ValueError, match="real entry required"):
            restrict_identity(f)
        return False
    assert restrict_identity(f) == Cochain(6, f.degree, want)
    return True


# phases that fold to a Gaussian unit, and ones that stay symbolic (1/3 and
# 5/6 differ by 1/2, so a common shift can fold both onto one monomial)
_THETAS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
           Fraction(1, 3), Fraction(5, 6))


def _rand_phased_form(rng, degree, untagged=False):
    """A form whose terms carry folding and non-folding phases, monomials
    that collide, and partner terms that cancel it in part."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(sorted(rng.sample(range(6), degree)))
        coef = terms.setdefault(key, {})
        theta = Fraction(0) if untagged else rng.choice(_THETAS)
        mono = (rng.randint(-1, 1), rng.randint(-1, 1), theta, Fraction(0))
        value = Scalar(rng.randint(-2, 2), rng.randint(-2, 2))
        coef[mono] = coef.get(mono, Scalar(0)) + value
        if not untagged and rng.random() < 0.3:
            # e^{i pi (theta + 1)} value folds to -e^{i pi theta} value
            coef[mono[:2] + (theta + 1, Fraction(0))] = value
    return ExpForm(degree, terms)


def _rand_translation(rng):
    return LatticeTranslation(
        w1_re=Fraction(rng.randint(-2, 2), rng.choice((1, 2))),
        w1_im_pi=rng.choice(_THETAS + (Fraction(2, 3), Fraction(-1, 2))))


def _assert_canonical(f):
    for key, coef in f.terms.items():
        assert coef, key
        for (a, b, theta, rho), value in coef.items():
            assert type(a) is int and type(b) is int
            assert type(theta) is Fraction and type(rho) is Fraction
            assert isinstance(value, Scalar) and value
            assert theta == 0 or (0 < theta < 2
                                  and (2 * theta).denominator != 1)


def _assert_matches(got, degree, reference):
    _assert_canonical(got)
    assert got.degree == degree
    assert got.terms == reference


def test_operations_match_the_reference_route():
    rng = random.Random(89)
    zeros = 0
    for _ in range(150):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        f, g = _rand_phased_form(rng, d1), _rand_phased_form(rng, d2)
        h = _rand_phased_form(rng, d1)
        t = _rand_translation(rng)
        moved = pullback_translation(f, t)
        for form in (f, g, h, moved):
            _assert_canonical(form)
        _assert_matches(f.add(h), d1, _add_reference(f, h))
        _assert_matches(f.add(f.negate()), d1, {})
        _assert_matches(moved.add(h), d1, _add_reference(moved, h))
        factor = Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
        _assert_matches(f.scale(factor), d1, _scale_reference(f, factor))
        _assert_matches(f.negate(), d1, _scale_reference(f, Scalar(-1)))
        for x, y in ((f, g), (moved, g), (g, moved), (f, f)):
            _assert_matches(x.wedge(y), min(x.degree + y.degree, 6),
                            _wedge_reference(x, y))
        coef = moved.terms.get(next(iter(moved.terms), None), {})
        _assert_matches(g.wedge(form_term((), coef)), d2,
                        _scale_coefficient_reference(g, coef))
        for x in (f, moved):
            _assert_matches(ext_d(x), x.degree + 1, _ext_d_reference(x))
            _assert_matches(conjugate_form(x), x.degree,
                            _conjugate_form_reference(x))
            _assert_matches(pullback_translation(x, t), x.degree,
                            _pullback_translation_reference(x, t))
        zeros += f.add(h).is_zero() + f.wedge(g).is_zero()
    assert zeros  # some sums cancel outright


def test_restrict_identity_matches_the_reference_route():
    """f + conj(f) restricts to a real cochain, so both outcomes run."""
    rng = random.Random(97)
    outcomes = collections.Counter()
    for _ in range(150):
        degree = rng.randint(0, 3)
        f = _rand_phased_form(rng, degree, untagged=True)
        summed = f.add(_rand_phased_form(rng, degree, untagged=True))
        for g in (f, summed, f.add(conjugate_form(f))):
            outcomes[_restricts_like_the_reference(g)] += 1
        tagged = pullback_translation(f, _rand_translation(rng))
        try:
            _restrict_identity_reference(tagged)
        except ValueError:
            with pytest.raises(ValueError, match="phase tag"):
                restrict_identity(tagged)
        else:
            outcomes[_restricts_like_the_reference(tagged)] += 1
    assert outcomes[True] >= 150 and outcomes[False]
