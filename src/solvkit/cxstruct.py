"""Almost complex structures on real Lie algebras and their integrability.

The Nijenhuis tensor N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y]
is bilinear and antisymmetric, so vanishing on basis pairs is vanishing
everywhere; is_integrable checks exactly that, exactly.

An integrable J corresponds to the complex subalgebra
h = span{X + i JX} of the complexification, with g_C = h + sigma(h) a
direct sum. subalgebra_from_j and j_from_subspace walk that
correspondence in both directions, and the round trip is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .errors import InternalCheckFailed, NotIntegrable, NotTransverse
from .liealg import LieAlgebra, ad_combination
from .linalg import Subspace
from .scalars import Scalar, exact


class AlmostComplexStructure:
    """An exact matrix J with J^2 = -I on an even-dimensional real algebra."""

    def __init__(self, matrix: Sequence[Sequence[object]]):
        self.matrix = [[exact(x) for x in row] for row in matrix]
        n = len(self.matrix)
        if n % 2:
            raise ValueError("almost complex structure needs even dimension")
        if any(len(row) != n for row in self.matrix):
            raise ValueError("J must be square")
        if any(isinstance(x, Scalar) for row in self.matrix for x in row):
            raise ValueError("J must have real entries")
        minus_eye = [[-1 if i == j else 0 for j in range(n)] for i in range(n)]
        if not linalg.mat_eq(linalg.mat_mul(self.matrix, self.matrix),
                             minus_eye):
            raise ValueError("J^2 is not -I")

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def apply(self, v: Sequence) -> List[Fraction]:
        return linalg.mat_vec(self.matrix, [exact(x) for x in v])

    def __eq__(self, other):
        return (isinstance(other, AlmostComplexStructure)
                and linalg.mat_eq(self.matrix, other.matrix))

    def __repr__(self):
        return "AlmostComplexStructure(dim=%d)" % self.dim


def j_from_images(dim: int, images: dict) -> AlmostComplexStructure:
    """Build J from a sparse map {basis index: image vector or index pairs}.

    images[j] is the image of e_j, given as {index: coeff} or as a list of
    (index, coeff) pairs. Unspecified columns are zero, which will fail the
    J^2 = -I validation, so every column must be pinned down.
    """
    m = [[0] * dim for _ in range(dim)]
    for j, pairs in images.items():
        items = pairs.items() if isinstance(pairs, dict) else pairs
        for i, c in items:
            m[i][j] = c
    return AlmostComplexStructure(m)


def nijenhuis(l: LieAlgebra, j: AlmostComplexStructure,
              u: Sequence, v: Sequence) -> List[Fraction]:
    ju = j.apply(u)
    jv = j.apply(v)
    term = l.bracket(ju, jv)
    term = linalg.vec_sub(term, j.apply(l.bracket(ju, v)))
    term = linalg.vec_sub(term, j.apply(l.bracket(u, jv)))
    term = linalg.vec_sub(term, l.bracket(u, v))
    return term


@dataclass(frozen=True)
class IntegrabilityReport:
    ok: bool
    witness: Optional[Tuple[int, int]] = None
    value: Optional[List[Fraction]] = None


def is_integrable(l: LieAlgebra, j: AlmostComplexStructure) -> IntegrabilityReport:
    """First basis pair a < b with N(e_a, e_b) != 0, scanned in ints.

    With A_i = s ad(e_i) from _integer_adjoints, Jt = t J for t the lcm of
    J's denominators and A(v) = sum v_i A_i, s t^2 N(e_a, e_b) is
    A(Jt e_a) Jt e_b - Jt (A(Jt e_a) e_b + A_a Jt e_b) - t^2 A_a e_b.
    """
    if j.dim != l.dim:
        raise ValueError("J dimension does not match the algebra")
    n = l.dim
    s, ads = l._integer_adjoints
    t = math.lcm(*(x.denominator for row in j.matrix for x in row))
    jt = [[int(x * t) for x in row] for row in j.matrix]
    jt_cols = list(zip(*jt))
    for a in range(n):
        ad_ja = ad_combination(ads, jt_cols[a])      # A(Jt e_a)
        for b in range(a + 1, n):
            inner = [x + y for x, y in zip(
                (row[b] for row in ad_ja), linalg.mat_vec(ads[a], jt_cols[b]))]
            val = [x - y - t * t * row[b] for x, y, row in zip(
                linalg.mat_vec(ad_ja, jt_cols[b]), linalg.mat_vec(jt, inner),
                ads[a])]
            if any(val):
                return IntegrabilityReport(False, (a, b), [
                    Fraction(x, s * t * t) for x in val])
    return IntegrabilityReport(True)


@dataclass(frozen=True)
class ComplexSubalgebra:
    """A complex subalgebra of a complexification, in real coordinates.

    ambient is complexify(L) for the original algebra L of dimension 2m;
    space is multiplication-by-i invariant of real dimension 2m (complex
    dimension m).
    """
    ambient: LieAlgebra
    basis: Subspace

    @property
    def complex_dim(self) -> int:
        return self.basis.dim // 2


def subalgebra_from_j(l: LieAlgebra, j: AlmostComplexStructure) -> ComplexSubalgebra:
    """span{X + i JX} inside complexify(l), with closure enforced.

    Raises NotIntegrable exactly when the Nijenhuis tensor is nonzero
    (bracket closure of this span is equivalent to integrability).
    """
    rep = is_integrable(l, j)
    if not rep.ok:
        raise NotIntegrable("Nijenhuis tensor nonzero on basis pair %r" % (rep.witness,))
    n = l.dim
    lc = l.complexify()
    vecs = []
    for k in range(n):
        ek = l._e(k)
        jek = j.apply(ek)
        vecs.append(ek + jek)                       # X_k + i J X_k
        vecs.append([-x for x in jek] + ek)          # i (X_k + i J X_k)
    space = Subspace(2 * n, vecs)
    if space.dim != n:
        raise InternalCheckFailed("holomorphic subspace has wrong dimension")
    # direct sum with the conjugate copy
    conj_vecs = [_apply_sigma(lc, v) for v in space.basis]
    if linalg.rank(space.basis + conj_vecs) != 2 * n:
        raise NotTransverse("subspace meets its conjugate nontrivially")
    # bracket closure (equivalent to the vanishing already checked; verified
    # independently so the two roads cross-check each other)
    for a in range(space.dim):
        for b in range(a + 1, space.dim):
            w = lc.bracket(space.basis[a], space.basis[b])
            if not space.contains(w):
                raise InternalCheckFailed(
                    "integrable J produced a non-closed subspace")
    return ComplexSubalgebra(lc, space)


def _apply_sigma(lc: LieAlgebra, v: Sequence) -> List[Fraction]:
    assert lc.sigma is not None
    return linalg.mat_vec(lc.sigma, v)


def j_from_subspace(lc: LieAlgebra, space: Subspace) -> AlmostComplexStructure:
    """Recover J from a complex subalgebra h with g_C = h + sigma(h).

    lc must be a complexification (form "complex" with sigma); space is
    h in real coordinates, invariant under multiplication by i. For each
    basis vector X of the original algebra the unique element of h with
    real part X has imaginary part JX. With R and M the real and imaginary
    halves of h's basis rows, that element is c M for c R = X, so
    J = M^T (R^T)^(-1).
    """
    if lc.form != "complex" or lc.sigma is None:
        raise ValueError("expected a complexification with conjugation")
    n = lc.dim // 2
    if space.ambient != 2 * n:
        raise ValueError("subspace lives in the wrong ambient space")
    mi = lc.mult_i_matrix()
    for v in space.basis:
        if not space.contains(linalg.mat_vec(mi, v)):
            raise NotTransverse("subspace is not invariant under multiplication by i")
    conj_vecs = [_apply_sigma(lc, v) for v in space.basis]
    if space.dim != n or linalg.rank(space.basis + conj_vecs) != 2 * n:
        raise NotTransverse("subspace and its conjugate do not split the space")
    b_re = [row[:n] for row in space.basis]
    b_im = [row[n:] for row in space.basis]
    try:
        re_inv = linalg.inverse(linalg.transpose(b_re))
    except ValueError as exc:
        raise NotTransverse("real parts of the subspace do not span") from exc
    return AlmostComplexStructure(
        linalg.mat_mul(linalg.transpose(b_im), re_inv))


def is_complex_lie_algebra(l: LieAlgebra, j: AlmostComplexStructure) -> bool:
    """True iff J commutes with every adjoint map: J[X, Y] = [JX, Y]."""
    for a in range(l.dim):
        ea = l._e(a)
        jea = j.apply(ea)
        for b in range(l.dim):
            if a == b:
                continue
            eb = l._e(b)
            lhs = j.apply(l.bracket(ea, eb))
            rhs = l.bracket(jea, eb)
            if lhs != rhs:
                return False
    return True


def tautological_j(lc: LieAlgebra) -> AlmostComplexStructure:
    """Multiplication by i on a complex-form algebra, as a structure on it."""
    return AlmostComplexStructure(lc.mult_i_matrix())
