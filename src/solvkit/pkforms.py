"""Invariant 2-forms: J-compatibility, the associated symmetric form,
exact signature, and the Kahler / pseudo-Kahler classification.

Signature is never computed numerically: the Gram matrix is symmetric
with rational entries, so its characteristic polynomial has only real
roots and Descartes' rule counts the positive and negative ones exactly.

sweep_invariant_forms answers the question "does ANY closed J-compatible
invariant 2-form have full rank". It solves the linear constraints
exactly, looks for a common kernel vector (if one exists, every member is
degenerate at once), then tries one generic member, and otherwise decides
by rank on the points of a simplex (see _sweep_pencil).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .cohomology import Cochain, ce_d
from .cxstruct import AlmostComplexStructure, is_integrable
from .errors import BoundTooLarge, NotIntegrable
from .liealg import LieAlgebra
from .polys import descartes_positive_count
from .scalars import exact


def _gram(omega: Cochain, j: AlmostComplexStructure) -> List[List[Fraction]]:
    """G[i][k] = omega(e_i, J e_k): the matrix of omega times J.

    As J^2 = -I, omega is J-compatible, omega(JX, JY) = omega(X, Y) for
    all X, Y, exactly when G is symmetric: omega(JX, JY) = G(JX, Y) and
    G(Y, JX) = omega(X, Y), so symmetry gives compatibility; compatibility
    gives G(Y, X) = -omega(JX, Y) = -omega(J^2 X, JY) = G(X, Y).
    """
    form = omega.matrix()
    if omega.dim != j.dim:
        raise ValueError("dimension mismatch")
    return linalg.mat_mul(form, j.matrix)


def _is_symmetric(m: List[List[Fraction]]) -> bool:
    return all(m[i][k] == m[k][i]
               for i in range(len(m)) for k in range(i + 1, len(m)))


def signature(gram: Sequence[Sequence[object]]) -> Tuple[int, int]:
    """(positives, negatives) of a symmetric exact matrix, exactly.

    The characteristic polynomial of a real symmetric matrix has only
    real roots, so Descartes' sign-variation count is not just a bound
    but the exact number of positive (resp. negative) eigenvalues.
    """
    m = [[exact(x) for x in row] for row in gram]
    if any(len(row) != len(m) for row in m) or not _is_symmetric(m):
        raise ValueError("matrix is not symmetric")
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

# the largest simplex _sweep_pencil scans; a larger one is refused
MAX_SIMPLEX_POINTS = 200000


class SweepResult(NamedTuple):
    space_dim: int
    all_degenerate: bool
    method: str                       # "empty" | "common_kernel" | "simplex"
    kernel_dim: int = 0
    witness: Optional[Tuple[int, ...]] = None   # c with sum c_i B_i of full rank


def closed_compatible_space(l: LieAlgebra,
                            j: AlmostComplexStructure) -> List[Cochain]:
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
        forms.append(Cochain(n, 2, coeffs))
    return forms


def _sweep_pencil(mats: Sequence[Sequence[Sequence[Fraction]]]) -> SweepResult:
    """Decide whether every member of the pencil sum c_i B_i is degenerate.

    The B_i are r antisymmetric n x n matrices, n = 2d. Pf(sum c_i B_i) is
    homogeneous of degree d in c, since the entries are linear in c. On the
    hyperplane sum c_i = d it is a polynomial of degree at most d in r - 1
    variables, and the points of N^r with sum c_i = d are unisolvent for
    that degree (the principal lattice: Nicolaides, SIAM J. Numer. Anal. 9
    (1972); Chung & Yao, SIAM J. Numer. Anal. 14 (1977)). So the Pfaffian
    vanishes identically exactly when it vanishes at those C(r-1+d, d)
    points, and Pf(M) != 0 exactly when rank M = n.

    The B_i are cleared to ints once, by one common linalg.scaled: a
    positive scale changes no rank, so neither a decision nor a witness.
    In order: a common kernel decides at once; the point (1, 2, ..., r),
    full rank on every catalog entry that has a nondegenerate form, is
    tried next; then the simplex is scanned, or refused with BoundTooLarge
    past MAX_SIMPLEX_POINTS.
    """
    r = len(mats)
    if r == 0:
        return SweepResult(0, True, "empty")
    n = len(mats[0])
    _, rows = linalg.scaled([row for m in mats for row in m])
    common = linalg.nullspace(rows)
    if common:
        return SweepResult(r, True, "common_kernel", kernel_dim=len(common))
    ints = [rows[t * n:(t + 1) * n] for t in range(r)]
    generic = tuple(range(1, r + 1))
    if linalg.rank(linalg.mat_comb(generic, ints)) == n:
        return SweepResult(r, False, "simplex", witness=generic)
    d = n // 2
    if math.comb(r - 1 + d, d) > MAX_SIMPLEX_POINTS:
        raise BoundTooLarge("simplex of C(%d, %d) points refused"
                            % (r - 1 + d, d))
    for picks in itertools.combinations_with_replacement(range(r), d):
        point = tuple(picks.count(t) for t in range(r))
        if linalg.rank(linalg.mat_comb(point, ints)) == n:
            return SweepResult(r, False, "simplex", witness=point)
    return SweepResult(r, True, "simplex")


def sweep_invariant_forms(l: LieAlgebra,
                          j: AlmostComplexStructure) -> SweepResult:
    """Decide whether every closed J-compatible invariant 2-form is degenerate."""
    return _sweep_pencil([f.matrix() for f in closed_compatible_space(l, j)])
