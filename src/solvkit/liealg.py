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
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import InternalCheckFailed, NotSolvable
from .linalg import Subspace
from .polys import all_roots_pure_imaginary, all_roots_real
from .scalars import Scalar, exact, sc

BracketTable = Dict[Tuple[int, int], Dict[int, Scalar]]


@dataclass(frozen=True)
class JacobiReport:
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
                if isinstance(v, Scalar):
                    raise ValueError("structure constants must be real "
                                     "(realify complex algebras first)")
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
        ints and only a reported defect is divided back.
        """
        n = self.dim
        s, ads = self._integer_adjoints
        cols = [list(zip(*a)) for a in ads]      # cols[i][j] = A_i e_j
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc = [a + b + c for a, b, c in zip(
                        linalg.mat_vec(ads[k], cols[i][j]),
                        linalg.mat_vec(ads[i], cols[j][k]),
                        linalg.mat_vec(ads[j], cols[k][i]))]
                    if any(acc):
                        return JacobiReport(False, (i, j, k), [
                            Fraction(x, -s * s) for x in acc])
        return JacobiReport(True)

    def derived_subalgebra(self) -> Subspace:
        return self._derived

    @functools.cached_property
    def _derived(self) -> Subspace:
        """[g,g], the span of the table's rows (a Subspace never changes)."""
        return Subspace(self.dim, [self.bracket_basis(i, j) for (i, j) in self._table])

    def _bracket_spaces(self, a: Subspace, b: Subspace) -> Subspace:
        vecs = [self.bracket(u, v) for u in a.basis for v in b.basis]
        return Subspace(self.dim, vecs)

    def _series(self, central: bool) -> List[Subspace]:
        """g, then [g or last, last] until it reaches 0 or stops changing."""
        full = Subspace(self.dim, linalg.identity(self.dim))
        series = [full]
        while series[-1].dim:
            series.append(self._bracket_spaces(
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

        One trace cut gives it. Let A be the unital associative algebra
        generated by ad(g), and S = {x : tr(M ad(x)) = 0 for all M in A}.
        If ad(x) is nilpotent, Lie's theorem makes A upper triangular over
        C with ad(x) strictly upper triangular, so x is in S. If x is in S,
        taking M = ad(x)^(k-1) gives tr(ad(x)^k) = 0 for every k >= 1, so
        ad(x) is nilpotent by Newton's identities. Scaling every bracket by
        the lcm of the denominators of the structure constants changes
        neither A's span nor S, so the closure, the traces and the checks
        run on int matrices. The result is validated post hoc.
        """
        n = self.dim
        ads = self._integer_adjoints[1]
        if not self.is_solvable():
            raise NotSolvable("nilradical computation requires a solvable algebra")
        # tr(M ad(e_i)) is the dot product of M and ad(e_i)^T, both flattened
        flat_t = [[a[k][j] for j in range(n) for k in range(n)] for a in ads]
        rows = [[sum(map(operator.mul, m, t)) for t in flat_t]
                for m in _unital_closure(ads)]
        space = Subspace(n, linalg.nullspace(rows))
        self._validate_nilradical(space)
        return space

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
        ads = self._integer_adjoints[1]
        scaled = []
        for v in space.basis:
            d = math.lcm(*(x.denominator for x in v))
            scaled.append([int(x * d) for x in v])
        if not all(space.contains(linalg.mat_vec(a, w))
                   for a in ads for w in scaled):
            raise InternalCheckFailed("nilradical is not an ideal")
        if not self.derived_subalgebra() <= space:
            raise InternalCheckFailed("nilradical misses the derived subalgebra")
        for w in scaled:
            if not is_nilpotent_matrix(ad_combination(ads, w)):
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
        original algebra.
        """
        n = self.dim
        brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), row in self._table.items():
            for k, entry in row.items():
                c = entry.re
                _put(brackets, i, j, k, c)            # [X_i, X_j] = c X_k
                _put(brackets, i, n + j, n + k, c)    # [X_i, iX_j] = c iX_k
                _put(brackets, n + i, j, n + k, c)    # [iX_i, X_j] = c iX_k
                _put(brackets, n + i, n + j, k, -c)   # [iX_i, iX_j] = -c X_k
        sigma = [[Fraction(1 if (i == j and i < n) else (-1 if (i == j) else 0))
                  for j in range(2 * n)] for i in range(2 * n)]
        labels = self.basis + ["i*%s" % b for b in self.basis]
        return LieAlgebra(2 * n, brackets, basis=labels, form="complex",
                          sigma=sigma)

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

    @property
    def complex_dim(self) -> int:
        if self.form != "complex":
            raise ValueError("complex_dim is defined on complex-form algebras")
        return self.dim // 2

    def __repr__(self):
        return "LieAlgebra(dim=%d, form=%r)" % (self.dim, self.form)


def ad_combination(ads: List[List[List[int]]], u: Sequence[int]) -> List[List[int]]:
    """sum_i u_i A_i: the dense matrix of s ad(u) for A_i = s ad(e_i)."""
    n = len(ads)
    return [[sum(c * a[r][q] for c, a in zip(u, ads) if c) for q in range(n)]
            for r in range(n)]


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
    n = len(ads)
    flat = [[x for row in a for x in row] for a in ads]
    flat_t = [[a[k][j] for j in range(n) for k in range(n)] for a in ads]
    killing = [[sum(map(operator.mul, p, q)) for q in flat_t] for p in flat]
    return not any(x for a in ads for row in linalg.mat_mul(killing, a)
                   for x in row)


def _unital_closure(gens: List[List[List[int]]]) -> List[List[int]]:
    """Basis of the unital associative algebra generated by int matrices.

    Fraction-free echelon: each element, flattened, is reduced against the
    earlier ones by cross-multiplication and divided by its content, so
    the basis is of primitive int rows. Products are taken of these rows,
    which span the same algebra as the words in the generators.
    """
    n = len(gens[0])
    echelon: List[Tuple[int, List[int]]] = []

    def add(m: List[List[int]]) -> Optional[List[int]]:
        red = [x for row in m for x in row]
        for lead, row in echelon:
            if red[lead]:
                g = math.gcd(row[lead], red[lead])
                a, b = row[lead] // g, red[lead] // g
                red = [a * x - b * y for x, y in zip(red, row)]
        content = math.gcd(*red)
        if not content:
            return None
        red = [x // content for x in red]
        echelon.append((next(c for c, x in enumerate(red) if x), red))
        return red

    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    frontier = [r for r in map(add, [unit] + gens) if r is not None]
    while frontier:
        products = (linalg.mat_mul([r[i * n:(i + 1) * n] for i in range(n)], g)
                    for r in frontier for g in gens)
        frontier = [r for r in map(add, products) if r is not None]
    return [row for _, row in echelon]


def realify_complex_brackets(cdim: int, brackets: Dict[Tuple[int, int], Dict[int, object]],
                             basis: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Real description of a complex Lie algebra given by complex constants.

    brackets maps (i, j) with 0 <= i < j < cdim to {k: scalar-like}, where
    scalars may be genuinely complex. The result has dimension 2*cdim, real
    constants, form "complex", and the split-basis convention.
    """
    n = cdim
    out: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for (i, j), row in brackets.items():
        for k, raw in row.items():
            c = sc(raw)
            a, b = c.re, c.im
            # [Z_i, Z_j] = (a + ib) Z_k, extended C-bilinearly to the split basis
            _put(out, i, j, k, a)
            _put(out, i, j, n + k, b)
            _put(out, i, n + j, n + k, a)
            _put(out, i, n + j, k, -b)
            _put(out, n + i, j, n + k, a)
            _put(out, n + i, j, k, -b)
            _put(out, n + i, n + j, k, -a)
            _put(out, n + i, n + j, n + k, -b)
    labels = None
    if basis is not None:
        labels = list(basis) + ["i*%s" % b for b in basis]
    return LieAlgebra(2 * n, out, basis=labels, form="complex")


def _put(table: Dict[Tuple[int, int], Dict[int, Fraction]],
         i: int, j: int, k: int, c: Fraction) -> None:
    """Add c to the e_k coefficient of [e_i, e_j] in a table keyed i < j."""
    if i == j or not c:
        return
    if i > j:
        i, j, c = j, i, -c
    row = table.setdefault((i, j), {})
    row[k] = row.get(k, 0) + c
