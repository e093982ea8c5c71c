"""Invariant 2-forms: J-compatibility, the associated symmetric form,
exact signature, and the Kahler / pseudo-Kahler classification.

Signature is never computed numerically: the Gram matrix is symmetric
with rational entries, so its characteristic polynomial has only real
roots and Descartes' rule counts the positive and negative ones exactly.

sweep_invariant_forms handles the nonexistence question "does ANY closed
J-compatible invariant 2-form have full rank": it solves the linear
constraints exactly, looks for a common kernel vector (if one exists all
members are degenerate at once), and otherwise certifies that the
Pfaffian vanishes identically by evaluating it on an integer grid large
enough for its per-variable degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .cohomology import Cochain, ce_d
from .cxstruct import AlmostComplexStructure, is_integrable
from .errors import BoundTooLarge, NotCompatible, NotIntegrable
from .liealg import LieAlgebra
from .polys import descartes_positive_count
from .scalars import Scalar, exact


class TwoForm(Cochain):
    """Degree-2 cochain with real coefficients."""

    def __init__(self, dim: int, coeffs: Optional[Dict] = None):
        super().__init__(dim, 2, coeffs)
        if any(isinstance(v, Scalar) for v in self.coeffs.values()):
            raise ValueError("TwoForm coefficients must be real")


def _gram(omega: Cochain, j: AlmostComplexStructure) -> List[List[Fraction]]:
    """G[i][k] = omega(e_i, J e_k): the matrix of omega times J."""
    form = omega.matrix()
    if omega.dim != j.dim:
        raise ValueError("dimension mismatch")
    return linalg.mat_mul(form, j.matrix)


def _is_symmetric(m: List[List[Fraction]]) -> bool:
    return all(m[i][k] == m[k][i]
               for i in range(len(m)) for k in range(i + 1, len(m)))


def j_compatible(omega: Cochain, j: AlmostComplexStructure) -> bool:
    """omega(JX, JY) = omega(X, Y), checked exactly.

    Since J^2 = -I this holds exactly when G = omega(., J.) is symmetric:
    G(Y, X) = omega(Y, JX) = -omega(JX, Y), and omega(JX, Y) =
    omega(J^2 X, JY) = -omega(X, JY) for a J-invariant omega, while
    symmetry of G gives omega(JX, JY) = -omega(J^2 X, Y) = omega(X, Y).
    """
    return _is_symmetric(_gram(omega, j))


def metric_from(omega: Cochain, j: AlmostComplexStructure) -> List[List[Fraction]]:
    """Gram matrix g(X_i, X_j) = omega(X_i, J X_j); requires compatibility."""
    gram = _gram(omega, j)
    if not _is_symmetric(gram):
        raise NotCompatible("form is not invariant under J")
    return gram


def signature(gram: Sequence[Sequence[object]]) -> Tuple[int, int]:
    """(positives, negatives) of a symmetric exact matrix, exactly.

    The characteristic polynomial of a real symmetric matrix has only
    real roots, so Descartes' sign-variation count is not just a bound
    but the exact number of positive (resp. negative) eigenvalues.
    """
    m = [[exact(x) for x in row] for row in gram]
    n = len(m)
    for i in range(n):
        for k in range(n):
            if m[i][k] != m[k][i]:
                raise ValueError("matrix is not symmetric")
            if isinstance(m[i][k], Scalar):
                raise ValueError("matrix is not real")
    chi = linalg.char_poly(m)
    pos = descartes_positive_count(chi)
    neg = descartes_positive_count(chi.compose_negate())
    return pos, neg


class ClassifyResult(NamedTuple):
    tag: str  # kahler | pseudo_kahler | degenerate | incompatible | not_closed
    signature: Optional[Tuple[int, int]] = None

    def __str__(self):
        if self.signature is not None:
            return "%s%r" % (self.tag, self.signature)
        return self.tag


def classify(l: LieAlgebra, j: AlmostComplexStructure,
             omega: Cochain) -> ClassifyResult:
    """Closedness, then compatibility, then exact signature and its rank."""
    rep = is_integrable(l, j)
    if not rep.ok:
        raise NotIntegrable("almost complex structure is not integrable: "
                            "witness pair %r" % (rep.witness,))
    if not ce_d(l, omega).is_zero():
        return ClassifyResult("not_closed")
    gram = _gram(omega, j)
    if not _is_symmetric(gram):
        return ClassifyResult("incompatible")
    p, q = signature(gram)
    if p + q < l.dim:
        return ClassifyResult("degenerate")
    return ClassifyResult("kahler" if q == 0 else "pseudo_kahler", (p, q))


# -- nonexistence sweep over all invariant forms ------------------------------


class SweepResult(NamedTuple):
    space_dim: int
    all_degenerate: bool
    method: str                       # "empty" | "common_kernel" | "pfaffian_grid"
    kernel_dim: int = 0
    witness: Optional[Tuple[int, ...]] = None   # grid point with Pf != 0
    grid: Optional[Tuple[int, ...]] = None      # the per-variable grid values


def closed_compatible_space(l: LieAlgebra,
                            j: AlmostComplexStructure) -> List[TwoForm]:
    """Basis of {omega : d omega = 0, omega(J.,J.) = omega}, exact."""
    n = l.dim
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    basis = [Cochain(n, 2, {p: 1}) for p in pairs]
    d_basis = [ce_d(l, f).coeffs for f in basis]
    grams = [_gram(f, j) for f in basis]
    # one closedness row per basis triple (its coefficient in each
    # d(e^a ^ e^b)), one compatibility row per pair (omega(., J.) symmetric)
    rows = [[d.get(t, Fraction(0)) for d in d_basis]
            for t in itertools.combinations(range(n), 3)]
    rows += [[g[a][b] - g[b][a] for g in grams] for a, b in pairs]
    rows = [row for row in rows if any(row)]
    kernel = linalg.nullspace(rows) if rows else linalg.identity(len(pairs))
    forms = []
    for vec in kernel:
        coeffs = {pairs[t]: vec[t] for t in range(len(pairs)) if vec[t]}
        forms.append(TwoForm(n, coeffs))
    return forms


def _pfaffian(m: List[List[Fraction]]) -> Fraction:
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


def sweep_invariant_forms(l: LieAlgebra, j: AlmostComplexStructure,
                          max_points: int = 200000) -> SweepResult:
    """Decide whether every closed J-compatible invariant 2-form is degenerate."""
    basis = closed_compatible_space(l, j)
    r = len(basis)
    if r == 0:
        return SweepResult(0, True, "empty")
    n = l.dim
    mats = [f.matrix() for f in basis]
    # a vector killed by every basis form is killed by every combination
    stacked = []
    for m in mats:
        stacked.extend(m)
    common = linalg.nullspace(stacked)
    if common:
        return SweepResult(r, True, "common_kernel", kernel_dim=len(common))
    # Pf(sum c_i B_i) has degree <= n/2 in each c_i; vanishing on the grid
    # {0..n/2}^r forces the zero polynomial
    grid_vals = tuple(range(n // 2 + 1))
    if len(grid_vals) ** r > max_points:
        raise BoundTooLarge("grid of %d^%d points refused"
                            % (len(grid_vals), r))
    point = [0] * r
    while True:
        if _pfaffian(linalg.mat_comb(point, mats)) != 0:
            return SweepResult(r, False, "pfaffian_grid",
                               witness=tuple(point), grid=grid_vals)
        pos = r - 1
        while pos >= 0 and point[pos] == grid_vals[-1]:
            point[pos] = 0
            pos -= 1
        if pos < 0:
            return SweepResult(r, True, "pfaffian_grid", grid=grid_vals)
        point[pos] += 1
