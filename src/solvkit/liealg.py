"""Finite-dimensional Lie algebras with exact rational structure constants.

A LieAlgebra stores the brackets [e_i, e_j] for i < j only; antisymmetry
is structural, never data. The form flag records how the coordinate space
is to be read:

  form = "real":    a real Lie algebra, dim = real dimension.
  form = "complex": the real description of a complex Lie algebra whose
                    complex dimension is dim // 2. The basis convention is
                    (Z_1..Z_m, i Z_1..i Z_m), so multiplication by i is the
                    standard block map (u, v) -> (-v, u), and an optional
                    conjugation sigma is stored as an exact matrix.

Structure constants are real in both cases (a complex algebra realified in
the split basis has real constants).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import InternalCheckFailed, NotSolvable
from .linalg import Subspace
from .polys import all_roots_pure_imaginary, all_roots_real
from .scalars import Scalar, exact, sc

BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]

# Largest dim read from a document or a catalog parameter. On a 2-core
# machine h1 at dim 63-64 took 0.3-0.5 s (abelian, Heisenberg, diagonal)
# and 0.6-1.0 s (rotation blocks; R x_N R^63, growing about as dim^2.8).
MAX_DIM = 64


class JacobiReport(NamedTuple):
    ok: bool
    witness: Optional[Tuple[int, int, int]] = None
    defect: Optional[List[Fraction]] = None


class LieAlgebra:
    def __init__(self, dim: int, brackets: Dict[Tuple[int, int], Dict[int, object]],
                 basis: Optional[Sequence[str]] = None, form: str = "real",
                 sigma: Optional[List[List[object]]] = None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        if form not in ("real", "complex"):
            raise ValueError("form must be 'real' or 'complex'")
        if form == "complex" and dim % 2:
            raise ValueError("complex form needs even dimension")
        self.dim = dim
        self.form = form
        self.basis = list(basis) if basis is not None else [
            "X%d" % (k + 1) for k in range(dim)]
        if len(self.basis) != dim:
            raise ValueError("basis label count does not match dimension")
        table: BracketTable = {}
        for (i, j), out in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError("bracket key (%d, %d) must have 0 <= i < j < dim" % (i, j))
            row: Dict[int, Scalar] = {}
            for k, c in out.items():
                if not 0 <= k < dim:
                    raise ValueError("bracket output index %d out of range" % k)
                v = exact(c)
                if v:
                    row[k] = Scalar(v)
            if row:
                table[(i, j)] = row
        self._table = table
        self.sigma = None
        if sigma is not None:
            self.sigma = [[exact(x) for x in row] for row in sigma]
            if len(self.sigma) != dim or any(len(r) != dim for r in self.sigma):
                raise ValueError("sigma must be a dim x dim matrix")

    # -- bracket --------------------------------------------------------

    def bracket_basis(self, i: int, j: int) -> List[Fraction]:
        out = [Fraction(0)] * self.dim
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self._table.get((i, j), {}).items():
            out[k] = c.re * sign
        return out

    def bracket(self, u: Sequence, v: Sequence) -> List[Fraction]:
        u = [exact(x) for x in u]
        v = [exact(x) for x in v]
        out = [Fraction(0)] * self.dim
        for (i, j), row in self._table.items():
            coef = u[i] * v[j] - u[j] * v[i]
            if coef:
                for k, c in row.items():
                    out[k] = out[k] + coef * c.re
        return out

    def adjoint(self, v: Sequence) -> List[List[Fraction]]:
        """Matrix of ad(v): w -> [v, w] in the stored basis (columns)."""
        cols = [self.bracket(v, self._e(j)) for j in range(self.dim)]
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def _e(self, k: int) -> List[Fraction]:
        v = [Fraction(0)] * self.dim
        v[k] = Fraction(1)
        return v

    # -- structural checks ------------------------------------------------

    def jacobi_check(self) -> JacobiReport:
        """First basis triple i < j < k where the Jacobi identity fails.

        With A_i = s ad(e_i) from _integer_adjoints, the Jacobi sum
        [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] times s^2 is
        -(A_k A_i e_j + A_i A_j e_k + A_j A_k e_i), so the scan runs on
        ints and only a reported defect is divided back. Only the triples
        of _jacobi_triples are visited, and A_a e_p is summed over p.
        """
        s, ads = self._integer_adjoints
        cols = [list(zip(*a)) for a in ads]      # cols[i][j] = A_i e_j
        for i, j, k in self._jacobi_triples():
            acc = [0] * self.dim
            for a, b, c in ((k, i, j), (i, j, k), (j, k, i)):
                for p, x in enumerate(cols[b][c]):
                    if x:
                        acc = [u + x * v for u, v in zip(acc, cols[a][p])]
            if any(acc):
                return JacobiReport(False, (i, j, k), [
                    Fraction(x, -s * s) for x in acc])
        return JacobiReport(True)

    def _jacobi_triples(self) -> List[Tuple[int, int, int]]:
        """Ascending i < j < k with a pair in the table; for any other
        triple the three inner brackets, so the Jacobi sum, are 0.
        """
        return sorted({tuple(sorted((a, b, c))) for a, b in self._table
                       for c in range(self.dim) if c not in (a, b)})

    def derived_subalgebra(self) -> Subspace:
        return self._derived

    @functools.cached_property
    def _derived(self) -> Subspace:
        """[g,g], the span of the table's rows (a Subspace never changes)."""
        return Subspace(self.dim, [self.bracket_basis(i, j) for (i, j) in self._table])

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """[a, b]: the span of A(u) v, a positive multiple of [u, v], for u, v
        in the scaled bases of a, b and A(u) = sum_i u_i A_i, all in ints."""
        ads, vs = self._integer_adjoints[1], linalg.scaled(b.basis)[1]
        # row r of vs A(u)^T is A(u) vs[r]
        products = (linalg.mat_mul(vs, linalg.transpose(linalg.mat_comb(u, ads)))
                    for u in linalg.scaled(a.basis)[1])
        return Subspace(self.dim, [w for rows in products for w in rows if any(w)])

    def _series(self, central: bool) -> List[Subspace]:
        """g, then [g or last, last] until it reaches 0 or stops changing."""
        full = Subspace(self.dim, linalg.identity(self.dim))
        series = [full]
        while series[-1].dim:
            series.append(self.bracket_span(
                full if central else series[-1], series[-1]))
            if series[-1] == series[-2]:
                break
        return series

    def lower_central_series(self) -> List[Subspace]:
        return self._series(central=True)

    def derived_series(self) -> List[Subspace]:
        return self._series(central=False)

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_solvable(self) -> bool:
        return self._solvable

    @functools.cached_property
    def _solvable(self) -> bool:
        return _cartan_solvable(self._integer_adjoints[1])

    def center(self) -> Subspace:
        """The kernel of v -> sum_i v_i A_i, the v with [v, g] = 0."""
        flat = [[x for row in a for x in row] for a in self._integer_adjoints[1]]
        return Subspace(self.dim, linalg.nullspace([list(r) for r in zip(*flat)]))

    def unimodular_check(self) -> bool:
        return not any(map(linalg.mat_trace, self._integer_adjoints[1]))

    # -- nilradical --------------------------------------------------------

    def nilradical_solvable(self) -> Subspace:
        """Nilradical of a solvable algebra: the set {v : ad(v) nilpotent}.

        Over C, Lie's theorem makes ad(g) triangular with weights lambda_k,
        linear forms whose common kernel is the nilradical, and
        tr(ad(x) ad(y)^j) = sum_k lambda_k(x) lambda_k(y)^j. So the trace cut
        S_y = {x : tr(ad(x) ad(y)^j) = 0 for all j >= 0} holds the nilradical
        and, by Vandermonde, equals it when y separates the distinct weights.
        _validate_nilradical checks each basis vector's ad for nilpotency, so
        a y that passes gives the exact answer and one that fails gives way
        to the next. For y_t = sum_k (k+1)^t e_k and weights lambda_a !=
        lambda_b, the real or imaginary part of the exponential sum
        (lambda_a - lambda_b)(y_t) in t has at most n - 1 real zeros, so one
        of the first (n - 1) C(n, 2) + 1 tries separates all C(n, 2) pairs.
        Y = s ad(y) on the integer adjoints scales each trace by s^(j+1) > 0.
        """
        n = self.dim
        ads = self._integer_adjoints[1]
        if not self.is_solvable():
            raise NotSolvable("nilradical computation requires a solvable algebra")
        traces = _trace_columns(ads)
        for t in range(1, (n - 1) * n * (n - 1) // 2 + 2):
            y = linalg.mat_comb([(k + 1) ** t for k in range(n)], ads)
            space = Subspace(n, linalg.nullspace(linalg.mat_mul(_power_basis(y), traces)))
            try:
                self._validate_nilradical(space)
                return space
            except InternalCheckFailed as exc:
                failure = exc
        raise failure

    @functools.cached_property
    def _integer_adjoints(self) -> Tuple[int, List[List[List[int]]]]:
        """(s, [s ad(e_i)]) for s the lcm of the constants' denominators.

        Column j of s ad(e_i) is s [e_i, e_j]. Built once per algebra (the
        table never changes after construction) and read, never written, by
        every structural query: Jacobi, Cartan, center, nilradical, type and
        the Nijenhuis scan.
        """
        n = self.dim
        scale = math.lcm(*(c.re.denominator for row in self._table.values()
                           for c in row.values()))
        ads = [[[0] * n for _ in range(n)] for _ in range(n)]
        for (i, j), row in self._table.items():
            for k, c in row.items():
                ads[i][k][j] = int(c.re * scale)
                ads[j][k][i] = -ads[i][k][j]
        return scale, ads

    def _validate_nilradical(self, space: Subspace) -> None:
        # the ideal test comes first: once [g,g] is inside, it cannot fail
        full = Subspace(self.dim, linalg.identity(self.dim))
        if not self.bracket_span(full, space) <= space:
            raise InternalCheckFailed("nilradical is not an ideal")
        ads = self._integer_adjoints[1]
        _, scaled = linalg.scaled(space.basis)
        if not self.derived_subalgebra() <= space:
            raise InternalCheckFailed("nilradical misses the derived subalgebra")
        for w in scaled:
            if not is_nilpotent_matrix(linalg.mat_comb(w, ads)):
                raise InternalCheckFailed("nilradical element with non-nilpotent ad")

    # -- eigenvalue-type classification -------------------------------------

    def classify_type(self) -> str:
        """One of nilpotent / completely_solvable / rigid / mixed.

        Decided exactly from the n characteristic polynomials of ad(e_i).
        Over C, Lie's theorem puts ad(g) of a solvable g in simultaneous
        triangular form with diagonal weights lambda_k, each real-linear
        on g. So "every lambda_k(e_i) is real" (or imaginary, or zero)
        holds on the basis exactly when it holds on all of g, and any
        sample set containing the basis gives the same answer. Each
        polynomial is taken of A_i = s ad(e_i) from _integer_adjoints;
        s > 0 scales every root without moving it off the real or the
        imaginary axis. Root reality and pure-imaginarity are decided
        exactly (Sturm counts; substitution reducing the imaginary-axis
        test to a real one). Requires a solvable real-form algebra.
        """
        if self.form != "real":
            raise ValueError("type classification is defined for real forms")
        if not self.is_solvable():
            raise NotSolvable("type classification requires a solvable algebra")
        polys = [p for p in map(linalg.char_poly, self._integer_adjoints[1])
                 if any(p[k] for k in range(p.degree))]
        if not polys:
            return "nilpotent"
        nonreal = not all(map(all_roots_real, polys))
        if nonreal and not all(map(all_roots_pure_imaginary, polys)):
            return "mixed"
        return "rigid" if nonreal else "completely_solvable"

    # -- complexification ----------------------------------------------------

    def complexify(self) -> "LieAlgebra":
        """The complexification in the split basis (X_1..X_n, iX_1..iX_n).

        Returns the 2n-dimensional real description with form "complex" and
        the standard conjugation sigma = diag(I, -I) fixing the embedded
        original algebra: the realification of the same constants, read
        as complex ones with imaginary part 0.
        """
        n = self.dim
        sigma = [[Fraction(1 if (i == j and i < n) else (-1 if (i == j) else 0))
                  for j in range(2 * n)] for i in range(2 * n)]
        labels = self.basis + ["i*%s" % b for b in self.basis]
        constants = ((i, j, k, c.re, 0) for (i, j), row in self._table.items()
                     for k, c in row.items())
        return LieAlgebra(2 * n, _split_table(n, constants), basis=labels,
                          form="complex", sigma=sigma)

    def mult_i_matrix(self) -> List[List[Fraction]]:
        """Multiplication by i on a complex-form algebra (split-basis block map)."""
        if self.form != "complex":
            raise ValueError("mult_i is defined on complex-form algebras")
        m = self.dim // 2
        out = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for k in range(m):
            out[m + k][k] = Fraction(1)
            out[k][m + k] = Fraction(-1)
        return out

    @functools.cached_property
    def _integer_i_and_sigma(self) -> Tuple[List[List[int]], List[List[int]]]:
        """(I, S) in ints, with v I and v S positive multiples of i v and
        sigma v for each row v: the transposes of scaled mult_i_matrix()
        and sigma. Built once per complex-form algebra with sigma and read
        by j_from_subspace's i-invariance and transversality checks."""
        return tuple(linalg.transpose(linalg.scaled(m)[1])
                     for m in (self.mult_i_matrix(), self.sigma))

    @property
    def complex_dim(self) -> int:
        if self.form != "complex":
            raise ValueError("complex_dim is defined on complex-form algebras")
        return self.dim // 2

    def __repr__(self):
        return "LieAlgebra(dim=%d, form=%r)" % (self.dim, self.form)


def is_nilpotent_matrix(m: List[List]) -> bool:
    """m^(2^k) = 0 for the least 2^k >= n; a nilpotent n x n m has m^n = 0."""
    k = 1
    while k < len(m):
        m = linalg.mat_mul(m, m)
        k *= 2
    return not any(x for row in m for x in row)


def _cartan_solvable(ads: List[List[List[int]]]) -> bool:
    """Cartan's criterion on A_i = s ad(e_i) (Humphreys, section 4.3).

    In characteristic 0, g is solvable iff tr(ad x ad y) = 0 for every x
    in g and y in [g,g]. With K_pq = tr(A_p A_q) and [g,g] spanned by the
    columns of the A_i, that is K A_i = 0 for every i.
    """
    flat = [[x for row in a for x in row] for a in ads]
    killing = linalg.mat_mul(flat, _trace_columns(ads))
    return not any(x for a in ads for row in linalg.mat_mul(killing, a)
                   for x in row)


def _trace_columns(ads: List[List[List[int]]]) -> List[List[int]]:
    """The n^2 x n matrix T with (flat M) T = [tr(M A_q) for each q].

    Row (j, k) of T holds A_q[k][j] for every q, so a flattened M times
    T is the row of traces tr(M A_q) = sum_jk M[j][k] A_q[k][j].
    """
    n = len(ads)
    return [[a[k][j] for a in ads] for j in range(n) for k in range(n)]


def _power_basis(m: List[List[int]]) -> List[List[int]]:
    """Primitive int rows spanning I, m, m^2, ... flattened: each row is the
    last times m, through linalg.echelon_add, until a power reduces to 0."""
    n = len(m)
    echelon: List[Tuple[int, List[int]]] = []
    row = linalg.echelon_add(echelon, [int(i == j) for i in range(n) for j in range(n)])
    while row is not None:
        prod = linalg.mat_mul([row[i * n:(i + 1) * n] for i in range(n)], m)
        row = linalg.echelon_add(echelon, [x for r in prod for x in r])
    return [r for _, r in echelon]


def realify_complex_brackets(cdim: int, brackets: Dict[Tuple[int, int], Dict[int, object]],
                             basis: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Real description of a complex Lie algebra given by complex constants.

    brackets maps (i, j) with 0 <= i < j < cdim to {k: scalar-like}, where
    scalars may be genuinely complex. The result has dimension 2*cdim, real
    constants, form "complex", and the split-basis convention.
    """
    constants = []
    for (i, j), row in brackets.items():
        for k, raw in row.items():
            c = sc(raw)
            constants.append((i, j, k, c.re, c.im))
    labels = None
    if basis is not None:
        labels = list(basis) + ["i*%s" % b for b in basis]
    return LieAlgebra(2 * cdim, _split_table(cdim, constants), basis=labels,
                      form="complex")


def _split_table(n: int, constants) -> Dict[Tuple[int, int], Dict[int, Fraction]]:
    """The real table of [Z_i, Z_j] = (a + ib) Z_k over the (i, j, k, a, b)
    of constants, extended C-bilinearly to the split basis (Z, iZ)."""
    out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for i, j, k, a, b in constants:
        _put(out, i, j, k, a)
        _put(out, i, j, n + k, b)
        _put(out, i, n + j, n + k, a)
        _put(out, i, n + j, k, -b)
        _put(out, n + i, j, n + k, a)
        _put(out, n + i, j, k, -b)
        _put(out, n + i, n + j, k, -a)
        _put(out, n + i, n + j, n + k, -b)
    return out


def _put(table: Dict[Tuple[int, int], Dict[int, Fraction]],
         i: int, j: int, k: int, c: Fraction) -> None:
    """Add c to the e_k coefficient of [e_i, e_j] in a table keyed i < j."""
    if i == j or not c:
        return
    if i > j:
        i, j, c = j, i, -c
    row = table.setdefault((i, j), {})
    row[k] = row.get(k, 0) + c
