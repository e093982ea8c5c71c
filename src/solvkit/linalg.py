"""Exact dense linear algebra over Fraction or Scalar entries.

Matrices are plain lists of lists; vectors are lists. Everything here is
field-generic: it only needs +, -, *, / and truthiness on entries, which
both fractions.Fraction and scalars.Scalar provide. No floats anywhere:
the eliminations (rref, det) and the polynomials (char_poly, min_poly)
read their entries through scalars.exact, so that int input gives exact
Fraction results and float entries are refused.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .polys import Poly
from .scalars import Scalar, exact

Vec = List
Mat = List[List]


def zeros(n: int, m: int) -> Mat:
    return [[Fraction(0)] * m for _ in range(n)]


def identity(n: int) -> Mat:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def transpose(a: Mat) -> Mat:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(row) == k for row in a), "shape mismatch"
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for p in range(1, k):
                acc = acc + a[i][p] * b[p][j]
            row.append(acc)
        out.append(row)
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


def vec_add(u: Vec, v: Vec) -> Vec:
    return [x + y for x, y in zip(u, v)]


def vec_sub(u: Vec, v: Vec) -> Vec:
    return [x - y for x, y in zip(u, v)]


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


def rref(rows: Sequence[Vec]) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [[exact(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[0])


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


def det(a: Mat):
    n = len(a)
    m = [[exact(x) for x in row] for row in a]
    sign = 1
    acc = None
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return m[0][0] - m[0][0]  # zero of the right field
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
        acc = m[c][c] if acc is None else acc * m[c][c]
    return acc * sign


# -- characteristic and minimal polynomials ----------------------------------


def _to_fraction_matrix(a: Mat) -> List[List[Fraction]]:
    out = [[exact(x) for x in row] for row in a]
    for row in out:
        for x in row:
            if isinstance(x, Scalar):
                raise ValueError("expected a real matrix entry, got %s" % (x,))
    return out


def char_poly(a: Mat) -> Poly:
    """det(t I - a) by the Faddeev-LeVerrier recursion, exactly (monic)."""
    m = _to_fraction_matrix(a)
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = identity(n)
    for k in range(1, n + 1):
        mk = mat_mul(m, mk)
        c = -mat_trace(mk) / k
        coeffs[n - k] = c
        for i in range(n):
            mk[i][i] += c
    return Poly(coeffs)


def min_poly(a: Mat) -> Poly:
    """Monic minimal polynomial: the first linear dependence of I, a, a^2, ...

    The columns flat(a^0..a^n) have pivots 0..d-1 before the first free
    column d, so the first kernel vector is (c_0, ..., c_{d-1}, 1, 0, ...).
    """
    m = _to_fraction_matrix(a)
    powers = [identity(len(m))]
    for _ in m:
        powers.append(mat_mul(powers[-1], m))
    flats = [[x for row in p for x in row] for p in powers]
    return Poly(nullspace(transpose(flats))[0])


# -- subspaces ---------------------------------------------------------------


class Subspace:
    """A linear subspace of the coordinate space, in canonical rref basis.

    Two Subspace objects are equal exactly when they are the same subspace.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, vectors: Sequence[Vec] = ()):
        for v in vectors:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        self.ambient = ambient
        self.rows, _ = rref(list(vectors))

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
        for row in self.rows:
            lead = next(c for c in range(self.ambient) if row[c])
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
        vecs = []
        for sol in nullspace(stacked):
            a = sol[:self.dim]
            v = [Fraction(0)] * self.ambient
            for c, row in zip(a, self.rows):
                if c:
                    v = vec_add(v, vec_scale(c, row))
            vecs.append(v)
        return Subspace(self.ambient, vecs)

