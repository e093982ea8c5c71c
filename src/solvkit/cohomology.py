"""Low-degree Chevalley-Eilenberg cochains and first-cohomology counts.

Cochains are alternating forms with exact coefficients, stored sparsely on
strictly increasing index tuples up to degree 3 (enough for d of 1- and
2-forms plus the d^2 checks; nothing in scope needs degree 4).

h1 for a lattice quotient splits as a Lie-algebra part plus the dimension
of the largest subspace of [g,g]/[n,n] on which the holonomy acts
semisimply with only real eigenvalues. The holonomy part is decided
exactly: factor each minimal polynomial over the rationals, keep the
primary components of the factors all of whose roots are real (Sturm
count equals degree), and intersect over the generators. Generators in
scope are semisimple integer matrices whose irreducible factors have
either all roots real or none, so this rational computation yields the
true maximal subspace.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .errors import (BadHolonomy, DegreeTooHigh, InternalCheckFailed,
                     NonCommutingHolonomy, NonSemisimpleGenerator, NotNilpotent,
                     NotSolvable)
from .liealg import LieAlgebra
from .linalg import Subspace
from .polys import (Poly, all_roots_real, count_real_roots, factor_rational,
                    is_squarefree)
from .scalars import exact

MAX_DEGREE = 3


class Cochain:
    """Alternating k-form on an n-dimensional algebra, k <= 3.

    Coefficients are read through scalars.exact, so they are Fractions and
    a non-real value is refused.
    """

    def __init__(self, dim: int, degree: int, coeffs: Optional[Dict] = None):
        if degree < 0 or degree > MAX_DEGREE:
            raise DegreeTooHigh("cochain degree %d not supported" % degree)
        if dim < 1:
            raise ValueError("positive dimension required")
        self.dim = dim
        self.degree = degree
        self.coeffs: Dict[Tuple[int, ...], Fraction] = {}
        for key, val in (coeffs or {}).items():
            key = check_key(key, degree, dim)
            v = exact(val)
            if v:
                self.coeffs[key] = v

    def coefficient(self, *indices: int) -> Fraction:
        """Value on the given basis indices, any order, exact sign handling."""
        if len(indices) != self.degree:
            raise ValueError("expected %d indices" % self.degree)
        merged = sort_sign(indices)
        if merged is None:
            return Fraction(0)
        key, sign = merged
        base = self.coeffs.get(key, Fraction(0))
        return base if sign == 1 else -base

    def is_zero(self) -> bool:
        return not self.coeffs

    def matrix(self) -> List[List[Fraction]]:
        """The antisymmetric matrix (omega(e_i, e_j)) of a 2-form omega."""
        if self.degree != 2:
            raise ValueError("a 2-form is required")
        n = self.dim
        return [[self.coefficient(i, j) for j in range(n)] for i in range(n)]

    def __eq__(self, other):
        return (isinstance(other, Cochain)
                and (self.dim, self.degree) == (other.dim, other.degree)
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return "Cochain(dim=%d, degree=%d, %d terms)" % (
            self.dim, self.degree, len(self.coeffs))


def sort_sign(indices: Sequence[int]) -> Optional[Tuple[Tuple[int, ...], int]]:
    """Sorted key of `indices` and the sign of the sorting permutation.

    This is the exterior-algebra rule e^{i1}^...^e^{ik} = sign e^{key};
    None when an index repeats, because the product is then zero.
    """
    sign = 1
    for a, x in enumerate(indices):
        for y in indices[a + 1:]:
            if x > y:
                sign = -sign
            elif x == y:
                return None
    return tuple(sorted(indices)), sign


def check_key(key: Sequence[int], degree: int, size: int) -> Tuple[int, ...]:
    """`key` as a tuple, after checking it is a strictly increasing
    `degree`-tuple of indices below `size`; ValueError otherwise."""
    key = tuple(key)
    if len(key) != degree:
        raise ValueError("key %r does not match degree %d" % (key, degree))
    if any(not 0 <= i < size for i in key):
        raise ValueError("index out of range in %r" % (key,))
    if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
        raise ValueError("indices must be strictly increasing: %r" % (key,))
    return key


def ce_d(l: LieAlgebra, c: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential, exact, degrees 0 through 2.

    (dc)(e_a, e_b, rest) = -c([e_a, e_b], rest) summed over the stored
    brackets a < b and the increasing tuples rest; sort_sign places each
    term on its increasing key, so only the table's pairs are visited.
    """
    if c.dim != l.dim:
        raise ValueError("cochain does not live on this algebra")
    if c.degree > 2:
        raise DegreeTooHigh("d only implemented up to degree 2 input")
    n = l.dim
    if c.degree == 0:
        return Cochain(n, 1)
    out: Dict[Tuple[int, ...], object] = {}
    for (a, b), row in l._table.items():
        for rest in combinations(range(n), c.degree - 1):
            placed = sort_sign((a, b) + rest)
            if placed is not None:
                key, sign = placed
                val = -sign * sum(coef.re * c.coefficient(m, *rest)
                                  for m, coef in row.items())
                out[key] = out.get(key, 0) + val
    return Cochain(n, c.degree + 1, dict(sorted(out.items())))


def h1_lie(l: LieAlgebra) -> int:
    """dim g - dim [g,g]; complex dimension for complex-form algebras."""
    drop = 2 if l.form == "complex" else 1
    value = l.dim - l.derived_subalgebra().dim
    if value % drop:
        raise ValueError("derived subalgebra is not i-invariant")
    return value // drop


class HolonomyAction:
    """Commuting exact semisimple matrices acting on [g,g]/[n,n]."""

    def __init__(self, generators: Sequence[Sequence[Sequence[object]]]):
        self.generators: List[List[List[Fraction]]] = []
        for t, g in enumerate(generators):
            mat = [[exact(x) for x in row] for row in g]
            where = "generators[%d]" % t
            if not mat:
                raise BadHolonomy("%s: matrix must be nonempty" % where)
            if any(len(row) != len(mat) for row in mat):
                raise BadHolonomy("%s: matrix must be square" % where)
            if self.generators and len(mat) != len(self.generators[0]):
                raise BadHolonomy("%s has size %d but generators[0] has size %d"
                                  % (where, len(mat), len(self.generators[0])))
            if linalg.det(mat) == 0:
                raise BadHolonomy("%s: matrix is singular" % where)
            self.generators.append(mat)
        self.size = len(self.generators[0]) if self.generators else 0
        for g in self.generators:
            if not is_squarefree(linalg.min_poly(g)):
                raise NonSemisimpleGenerator(
                    "generator has a repeated minimal-polynomial factor")
        for a in range(len(self.generators)):
            for b in range(a + 1, len(self.generators)):
                ga, gb = self.generators[a], self.generators[b]
                if linalg.mat_mul(ga, gb) != linalg.mat_mul(gb, ga):
                    raise NonCommutingHolonomy(
                        "generators %d and %d do not commute" % (a, b))

    def __len__(self):
        return len(self.generators)


def real_part_subspace(g: List[List[Fraction]]) -> Subspace:
    """Sum of the primary components whose irreducible factor is totally real.

    For a semisimple matrix this is the largest rational invariant subspace
    on which the action is diagonalizable over R, provided every
    irreducible factor has all roots real or none (Sturm count 0 or full).
    The minimal polynomial is factored only when it has some real roots but
    not deg(m) of them: with none, no factor is totally real; with deg(m)
    distinct real roots, m is squarefree and every factor is totally real.
    """
    n = len(g)
    m = linalg.min_poly(g)
    real_roots = count_real_roots(m)
    if real_roots == 0:
        return Subspace(n)
    if real_roots == m.degree:
        return Subspace(n, linalg.identity(n))
    out_vectors: List[List[Fraction]] = []
    for factor, _mult in factor_rational(m):
        if all_roots_real(factor):
            out_vectors.extend(linalg.nullspace(_poly_apply(factor, g)))
    return Subspace(n, out_vectors)


def _poly_apply(p: Poly, g: List[List[Fraction]]) -> List[List[Fraction]]:
    """p(g) = sum_k c_k g^k."""
    powers = [linalg.identity(len(g))]
    while len(powers) < len(p.coeffs):
        powers.append(linalg.mat_mul(powers[-1], g))
    return linalg.mat_comb(p.coeffs, powers)


def quotient_dim(l: LieAlgebra) -> int:
    """Real dimension of [g,g]/[n,n] for a solvable algebra."""
    derived = l.derived_subalgebra()
    nil = l.nilradical_solvable()
    nn = l.bracket_span(nil, nil)
    if not (nn <= derived):
        raise InternalCheckFailed("[n,n] escaped the derived subalgebra")
    return derived.dim - nn.dim


def winkelmann_h1(l: LieAlgebra, h: HolonomyAction) -> Dict[str, int]:
    """h1 of the quotient: h1_lie plus the real-semisimple holonomy part.

    Returns {"h1": total, "h1_lie": base, "dimW": extra} with dimensions
    complex whenever the algebra carries the complex-form marker.
    """
    if not l.is_solvable():
        raise NotSolvable("Winkelmann count needs a solvable algebra")
    base = h1_lie(l)
    q_dim = quotient_dim(l)
    if h.generators and h.size != q_dim:
        raise BadHolonomy(
            "generators[0] has size %d but [g,g]/[n,n] has dimension %d"
            % (h.size, q_dim))
    if q_dim == 0:
        dim_w_real = 0
    else:
        w = Subspace(q_dim, linalg.identity(q_dim))
        for g in h.generators:
            w = w.intersect(real_part_subspace(g))
        dim_w_real = w.dim
    drop = 2 if l.form == "complex" else 1
    if dim_w_real % drop:
        raise ValueError("holonomy subspace has odd real dimension")
    dim_w = dim_w_real // drop
    return {"h1": base + dim_w, "h1_lie": base, "dimW": dim_w}


def closed_holomorphic_1forms(lc: LieAlgebra) -> int:
    """Count of independent closed holomorphic 1-forms on a nilpotent quotient.

    Exactly the complex codimension of the derived subalgebra; equals the
    complex dimension only in the abelian (torus) case.
    """
    if lc.form != "complex":
        raise ValueError("complex-form algebra required")
    if not lc.is_nilpotent():
        raise NotNilpotent("closed-1-form count is only valid for nilpotent algebras")
    return h1_lie(lc)


def pseudo_kahler_obstruction(n: int, h1: int) -> str:
    """Necessary condition h1 >= n; 'obstructed' when it fails."""
    if n < 1:
        raise ValueError("complex dimension must be positive")
    return "obstructed" if h1 < n else "passes"
