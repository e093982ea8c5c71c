"""Exact dense linear algebra over int or Fraction entries.

Matrices are plain lists of lists; vectors are lists. Entries are read
through scalars.exact, so floats and non-real values are refused. The
eliminations (rref, rank and all that reads them) and min_poly run on the
ints of scaled through the one fraction-free echelon_add; char_poly, and
det as its constant term, run on the same ints. All return exact
Fractions.

This is the one place that multiplies or combines matrices. mat_mul,
mat_vec and mat_comb share one rule: zero entries (zero coefficients for
mat_comb) are skipped after the first product, and that first product
fixes the entry type. Int matrices stay int, and on matrices of one entry
type the result equals the dense sum in value and in type.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .polys import Poly
from .scalars import exact

Vec = List
Mat = List[List]


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    """a b, row i taken as the combination sum_p a[i][p] b[p].

    Zero entries of a are skipped after the first product of each row,
    as in mat_vec, so the first product fixes the entry type.
    """
    k = len(b)
    assert all(len(row) == k for row in a), "shape mismatch"
    out = []
    for row in a:
        acc = [row[0] * y for y in b[0]]
        for p in range(1, k):
            c = row[p]
            if c:
                acc = [x + c * y for x, y in zip(acc, b[p])]
        out.append(acc)
    return out


def mat_comb(coeffs: Sequence, mats: Sequence[Mat]) -> Mat:
    """sum_i c_i M_i, skipping zero c_i after the first term.

    The first term fixes the entry type, as the first product does in
    mat_mul and mat_vec.
    """
    out = [[coeffs[0] * x for x in row] for row in mats[0]]
    for c, m in zip(coeffs[1:], mats[1:]):
        if c:
            out = [[x + c * y for x, y in zip(orow, row)]
                   for orow, row in zip(out, m)]
    return out


def mat_vec(a: Mat, v: Vec) -> Vec:
    """a v, skipping zero entries of a after the first product of each row.

    The first product fixes the entry type, so an all-zero row still gives
    a zero of the type a dense product would.
    """
    out = []
    for row in a:
        acc = row[0] * v[0]
        for p in range(1, len(v)):
            if row[p]:
                acc = acc + row[p] * v[p]
        out.append(acc)
    return out


def vec_scale(c, v: Vec) -> Vec:
    return [c * x for x in v]


def is_zero_vec(v: Vec) -> bool:
    return all(not x for x in v)


def mat_eq(a: Mat, b: Mat) -> bool:
    return len(a) == len(b) and all(
        len(r) == len(s) and all(x == y for x, y in zip(r, s))
        for r, s in zip(a, b))


def mat_trace(a: Mat):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


# -- elimination -------------------------------------------------------------


def scaled(rows: Sequence[Vec]) -> Tuple[int, List[List[int]]]:
    """(s, s rows), s the lcm of the denominators; ValueError if not real."""
    m = [[x if type(x) is int else exact(x) for x in r] for r in rows]
    s = math.lcm(*(x.denominator for r in m for x in r))
    return s, [[x.numerator * (s // x.denominator) for x in r] for r in m]


def echelon_add(echelon: List[Tuple[int, List[int]]],
                row: List[int]) -> Optional[List[int]]:
    """Append an int row, reduced against the (lead, row) pairs; None if 0.

    Cross-multiplied, then divided by its content (Bareiss, Math. Comp. 22
    (1968)), each stored row is primitive and 0 at the earlier leads.
    """
    red = row
    for lead, erow in echelon:
        if red[lead]:
            g = math.gcd(erow[lead], red[lead])
            a, b = erow[lead] // g, red[lead] // g
            red = [a * x - b * y for x, y in zip(red, erow)]
    content = math.gcd(*red)
    if not content:
        return None
    red = [x // content for x in red]
    echelon.append((next(c for c, x in enumerate(red) if x), red))
    return red


def _echelon(rows: Sequence[Vec]) -> List[Tuple[int, List[int]]]:
    """The forward pass: the (lead, row) pairs echelon_add keeps from the
    ints of scaled(rows), one per independent row."""
    echelon: List[Tuple[int, List[int]]] = []
    for row in scaled(rows)[1]:
        if len(echelon) == len(row):
            break
        echelon_add(echelon, row)
    return echelon


def rref(rows: Sequence[Vec]) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    back: List[Tuple[int, List[int]]] = []
    for _, row in sorted(_echelon(rows), reverse=True):    # back-substitution
        echelon_add(back, row)
    return ([[Fraction(x, row[p]) for x in row] for p, row in reversed(back)],
            [p for p, _ in reversed(back)])


def rank(rows: Sequence[Vec]) -> int:
    return len(_echelon(rows))


def nullspace(a: Mat) -> List[Vec]:
    """Basis of the right kernel {v : a v = 0}."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a: Mat, b: Vec) -> Optional[Vec]:
    """One solution of a x = b, or None if inconsistent.

    Free variables are set to zero; use solve_unique when uniqueness matters.
    """
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug)
    ncols = len(a[0]) if a else 0
    if ncols in pivots:
        return None  # pivot in the constant column
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return x


def solve_unique(a: Mat, b: Vec) -> Vec:
    x = solve(a, b)
    if x is None:
        raise ValueError("inconsistent linear system")
    if rank(a) != (len(a[0]) if a else 0):
        raise ValueError("underdetermined linear system")
    return x


def inverse(a: Mat) -> Mat:
    n = len(a)
    aug = [list(row) + list(e) for row, e in zip(a, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


# -- characteristic and minimal polynomials ----------------------------------


def char_poly(a: Mat) -> Poly:
    """det(t I - a) by the Faddeev-LeVerrier recursion, exactly (monic).

    On B = s a from scaled, M_k = B M_(k-1) + c_(k-1) I and c_k =
    -tr(B M_k) / k are integers; det(t I - a) has c_k / s^k at t^(n-k).
    ValueError if a is not square.
    """
    s, b = scaled(a)
    n = len(b)
    if any(len(row) != n for row in b):
        raise ValueError("matrix is not square")
    coeffs = [0] * n + [1]
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = mat_mul(b, mk)
        c, rem = divmod(-mat_trace(mk), k)
        assert not rem, "Faddeev-LeVerrier trace not divisible"
        coeffs[n - k] = Fraction(c, s ** k)
        for i in range(n):
            mk[i][i] += c
    return Poly(coeffs)


def det(a: Mat) -> Fraction:
    """(-1)^n times the constant coefficient of char_poly(a)."""
    return (-1) ** len(a) * char_poly(a)[0]


def min_poly(a: Mat) -> Poly:
    """Monic minimal polynomial: the first linear dependence of I, a, a^2, ...

    For B = s a from scaled, flat(B^d) and e_d go through echelon_add as one
    row until a row ends as (0, e): then sum_k e_k s^k a^k = 0.
    """
    s, b = scaled(a)
    n, echelon = len(b), []
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for d in range(n + 1):      # by Cayley-Hamilton, some d <= n ends it
        red = echelon_add(echelon, [x for row in power for x in row]
                          + [int(k == d) for k in range(n + 1)])
        if not any(red[:n * n]):
            return Poly(x * s ** k for k, x in enumerate(red[n * n:])).monic()
        power = mat_mul(power, b)


# -- subspaces ---------------------------------------------------------------


class Subspace:
    """A linear subspace of the coordinate space, in canonical rref basis.

    Two Subspace objects are equal exactly when they are the same subspace.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, vectors: Sequence[Vec] = ()):
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        self.ambient = ambient
        self.rows, self.pivots = rref(list(vectors))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Mat:
        return [list(r) for r in self.rows]

    def contains(self, v: Vec) -> bool:
        if len(v) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        red = list(v)
        for lead, row in zip(self.pivots, self.rows):
            if red[lead]:
                f = red[lead]
                red = [x - f * y for x, y in zip(red, row)]
        return is_zero_vec(red)

    def __le__(self, other: "Subspace") -> bool:
        return all(other.contains(r) for r in self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient, self.dim)

    def add(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        return Subspace(self.ambient, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        assert self.ambient == other.ambient
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.ambient)
        # x in U cap V: x = a . U_rows = b . V_rows; solve for (a, b)
        stacked = transpose([list(r) for r in self.rows]
                            + [vec_scale(Fraction(-1), list(r)) for r in other.rows])
        coords = [sol[:self.dim] for sol in nullspace(stacked)]
        return Subspace(self.ambient, mat_mul(coords, self.rows))

