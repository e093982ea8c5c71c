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

from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import InternalCheckFailed, NotIntegrable, NotTransverse
from .liealg import LieAlgebra
from .linalg import Subspace
from .scalars import exact


class AlmostComplexStructure:
    """An exact matrix J with J^2 = -I on an even-dimensional real algebra.

    scaled is (t, t J) for t the lcm of J's denominators, an int matrix
    built once: J^2 = -I is checked as (t J)^2 = -t^2 I in ints, and the
    Nijenhuis scan reads the same pair.
    """

    def __init__(self, matrix: Sequence[Sequence[object]]):
        self.matrix = [[exact(x) for x in row] for row in matrix]
        n = len(self.matrix)
        if n % 2:
            raise ValueError("almost complex structure needs even dimension")
        if any(len(row) != n for row in self.matrix):
            raise ValueError("J must be square")
        t, jt = linalg.scaled(self.matrix)
        minus_t2 = [[-t * t if i == j else 0 for j in range(n)] for i in range(n)]
        if linalg.mat_mul(jt, jt) != minus_t2:
            raise ValueError("J^2 is not -I")
        self.scaled: Tuple[int, List[List[int]]] = (t, jt)

    @property
    def dim(self) -> int:
        return len(self.matrix)

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


class IntegrabilityReport(NamedTuple):
    ok: bool
    witness: Optional[Tuple[int, int]] = None
    value: Optional[List[Fraction]] = None


def is_integrable(l: LieAlgebra, j: AlmostComplexStructure) -> IntegrabilityReport:
    """First basis pair a < b with N(e_a, e_b) != 0, scanned in ints.

    With A_i = s ad(e_i) from _integer_adjoints, (t, Jt = t J) from
    j.scaled and A(v) = sum v_i A_i, s t^2 N(e_a, e_b) is
    A(Jt e_a) Jt e_b - Jt (A(Jt e_a) e_b + A_a Jt e_b) - t^2 A_a e_b.
    """
    if j.dim != l.dim:
        raise ValueError("J dimension does not match the algebra")
    n = l.dim
    s, ads = l._integer_adjoints
    t, jt = j.scaled
    jt_cols = list(zip(*jt))
    for a in range(n):
        ad_ja = linalg.mat_comb(jt_cols[a], ads)     # A(Jt e_a)
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


class ComplexSubalgebra(NamedTuple):
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
    (bracket closure of this span is equivalent to integrability). As
    J^2 = -I, i (X + i JX) = Y + i JY for Y = -JX, and X + i JX =
    Y - i JY forces X = Y = 0: the span is i-invariant and transverse to
    its conjugate for every AlmostComplexStructure.
    """
    rep = is_integrable(l, j)
    if not rep.ok:
        raise NotIntegrable("Nijenhuis tensor nonzero on basis pair %r" % (rep.witness,))
    n = l.dim
    lc = l.complexify()
    t, jt = j.scaled    # rows t (X_k + i J X_k): t e_k, then column k of t J
    rows = [[t * (i == k) for i in range(n)] + [r[k] for r in jt]
            for k in range(n)]
    space = Subspace(2 * n, rows)
    # bracket closure (equivalent to the vanishing already checked; verified
    # independently, on lc's own adjoints, so the two roads cross-check)
    if linalg.rank(rows + lc.bracket_span(space, space).basis) != n:
        raise InternalCheckFailed("integrable J produced a non-closed subspace")
    return ComplexSubalgebra(lc, space)


def j_from_subspace(lc: LieAlgebra, space: Subspace) -> AlmostComplexStructure:
    """Recover J from a complex subalgebra h with g_C = h + sigma(h).

    lc must be a complexification (form "complex" with sigma); space is
    h in real coordinates, invariant under multiplication by i. For each
    basis vector X of the original algebra the unique element of h with
    real part X has imaginary part JX. With R and M the real and imaginary
    halves of h's basis rows, that element is c M for c R = X, so
    J = M^T (R^T)^(-1), read off the scaled rows (their factor cancels).
    """
    if lc.form != "complex" or lc.sigma is None:
        raise ValueError("expected a complexification with conjugation")
    n = lc.dim // 2
    if space.ambient != 2 * n:
        raise ValueError("subspace lives in the wrong ambient space")
    rows = linalg.scaled(space.basis)[1]
    mult_i, sigma = lc._integer_i_and_sigma
    if linalg.rank(rows + linalg.mat_mul(rows, mult_i)) != space.dim:
        raise NotTransverse("subspace is not invariant under multiplication by i")
    if space.dim != n or linalg.rank(rows + linalg.mat_mul(rows, sigma)) != 2 * n:
        raise NotTransverse("subspace and its conjugate do not split the space")
    b_re = [row[:n] for row in rows]
    b_im = [row[n:] for row in rows]
    try:
        re_inv = linalg.inverse(linalg.transpose(b_re))
    except ValueError as exc:
        raise NotTransverse("real parts of the subspace do not span") from exc
    return AlmostComplexStructure(
        linalg.mat_mul(linalg.transpose(b_im), re_inv))


def tautological_j(lc: LieAlgebra) -> AlmostComplexStructure:
    """Multiplication by i on a complex-form algebra, as a structure on it."""
    return AlmostComplexStructure(lc.mult_i_matrix())
