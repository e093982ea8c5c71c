"""Integer-matrix lattice constructions for the 3-dim complex solvmanifolds.

All discrete verdicts (real-root counts, unit-modulus roots, semisimplicity,
commutation, palindromicity) are exact. Eigenvector coordinates are the one
place floating point enters: eigenvalues such as log-irrational ratios have
no exact representation, so builders emit numeric witnesses together with
the residuals of the defining matrix relations (bound 1e-9) and the
R-linear-independence margin (bound 1e-6). Verification of a built spec
re-checks those bounds from scratch rather than trusting the builder.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .errors import (BoundTooLarge, DegenerateEigenvectors, NoNonRealEigenvalue,
                     NotReciprocal, NotSemisimple, NotSpecialLinear,
                     NotSquarefree, TraceTooSmall)
from .polys import Poly, all_roots_real, is_squarefree, real_and_unit_roots

RESIDUAL_TOL = 1e-9
INDEPENDENCE_MARGIN = 1e-6

IntMatrix = List[List[int]]


def _check_int_matrix(a: Sequence[Sequence[object]], size: int) -> IntMatrix:
    if len(a) != size or any(len(row) != size for row in a):
        raise ValueError("expected a %dx%d matrix" % (size, size))
    out = []
    for row in a:
        new = []
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError("integer entries required, got %r" % (x,))
            new.append(x)
        out.append(new)
    return out


def _int_det(a: IntMatrix) -> int:
    d = linalg.det(a)
    assert d.denominator == 1
    return int(d)


def char_poly(a: Sequence[Sequence[int]]) -> Poly:
    """Exact monic characteristic polynomial of an integer matrix."""
    return linalg.char_poly(a)


class EigenReport(NamedTuple):
    real_roots: int
    all_real: bool
    unit_modulus_root: bool


def classify_eigen(p: Poly) -> EigenReport:
    """Exact real-root count and unit-modulus test for a squarefree poly."""
    if p.degree < 1:
        raise ValueError("need a nonconstant polynomial")
    found = real_and_unit_roots(p)
    if found is None:
        raise NotSquarefree("polynomial has a repeated root: %r" % (p,))
    return EigenReport(found[0], found[0] == p.degree, found[1])


def semisimple_commuting_check(a: Sequence[Sequence[int]],
                               b: Sequence[Sequence[int]]) -> bool:
    if len(a) != len(b):
        raise ValueError("matrices must share a size")
    n = len(a)
    am = _check_int_matrix(a, n)
    bm = _check_int_matrix(b, n)
    if linalg.mat_mul(am, bm) != linalg.mat_mul(bm, am):
        return False
    return all(is_squarefree(linalg.min_poly(m)) for m in (am, bm))


class LatticeSpec(NamedTuple):
    kind: str                                   # "nilpotent" | "non_nilpotent"
    a_matrix: IntMatrix
    b_matrix: Optional[IntMatrix]
    k: Optional[int]
    delta_generators: List[Tuple[complex, complex]]
    lambda_generators: List[complex]
    classification: str                         # "3a" | "3b" | "n/a"
    residual: float
    independence_margin: float
    char_polynomial: Optional[Poly] = None

    def holonomy_generators(self) -> List[IntMatrix]:
        """Exact matrices of the holonomy on the 4-dim quotient space."""
        if self.kind == "nilpotent":
            return []
        gens = [self.a_matrix]
        if self.b_matrix is not None:
            gens.append(self.b_matrix)
        elif self.k is not None:
            sign = -1 if self.k % 2 else 1
            gens.append([[sign if i == j else 0 for j in range(4)]
                         for i in range(4)])
        return gens


def _independence_margin(vectors: List[Tuple[complex, complex]]) -> float:
    import numpy as np
    rows = [[v[0].real, v[0].imag, v[1].real, v[1].imag] for v in vectors]
    return abs(float(np.linalg.det(np.array(rows, dtype=float))))


def _residual_eig(a: IntMatrix, vec: np.ndarray, value: complex) -> float:
    import numpy as np
    av = np.array(a, dtype=complex) @ vec
    return float(np.max(np.abs(av - value * vec)))


def build_lattice_nilpotent(a: Sequence[Sequence[int]],
                            betas: Tuple[complex, complex] = (0j, 0j),
                            alphas: Optional[Tuple[complex, complex]] = None,
                            ) -> LatticeSpec:
    """Lattice data for the nilpotent type from A in GL(2,Z), non-real λ.

    Passing alphas=(0, 0) explicitly selects the degenerate branch of the
    Iwasawa configuration: the generic recipe's generators (0, alpha_i)
    collapse there, and the lattice is the standard Gaussian-integer one
    built from the betas instead.
    """
    import numpy as np
    am = _check_int_matrix(a, 2)
    if _int_det(am) not in (1, -1):
        raise NotSpecialLinear("matrix is not in GL(2, Z)")
    cp = char_poly(am)
    if all_roots_real(cp):
        raise NoNonRealEigenvalue("all eigenvalues are real")
    tr = am[0][0] + am[1][1]
    det = _int_det(am)
    disc = tr * tr - 4 * det
    assert disc < 0
    lam = complex(tr / 2.0, (abs(disc) ** 0.5) / 2.0)
    if alphas == (0, 0) or alphas == (0j, 0j):
        b1, b2 = complex(betas[0]), complex(betas[1])
        if abs(b1.real * b2.imag - b1.imag * b2.real) <= INDEPENDENCE_MARGIN:
            raise DegenerateEigenvectors("betas are R-linearly dependent")
        delta = [(b1, 0j), (b2, 0j), (0j, b1), (0j, b2)]
        margin = _independence_margin(delta)
        return LatticeSpec("nilpotent", am, None, None, delta, [1 + 0j, lam],
                           "n/a", 0.0, margin, cp)
    if am[0][1] != 0:
        alpha = np.array([am[0][1], lam - am[0][0]], dtype=complex)
    else:
        alpha = np.array([lam - am[1][1], am[1][0]], dtype=complex)
    residual = _residual_eig(am, alpha, lam)
    if residual > RESIDUAL_TOL:
        raise DegenerateEigenvectors("eigenvector residual %.3g too large"
                                     % residual)
    a1, a2 = complex(alpha[0]), complex(alpha[1])
    b1, b2 = complex(betas[0]), complex(betas[1])
    delta = [(a1, b1), (a2, b2), (0j, a1), (0j, a2)]
    margin = _independence_margin(delta)
    if margin <= INDEPENDENCE_MARGIN:
        raise DegenerateEigenvectors(
            "lattice generators not independent over R (margin %.3g)" % margin)
    return LatticeSpec("nilpotent", am, None, None, delta, [1 + 0j, lam],
                       "n/a", residual, margin, cp)


def _eigen_pair_vectors(a: IntMatrix, value: complex) -> List[np.ndarray]:
    """Numeric basis of the eigenspace of a for the given eigenvalue."""
    import numpy as np
    n = len(a)
    vals, vecs = np.linalg.eig(np.array(a, dtype=float))
    cols = [t for t in range(n) if abs(vals[t] - value) < 1e-7]
    return [np.array(vecs[:, t], dtype=complex) for t in cols]


def build_lattice_nonnilpotent(a: Sequence[Sequence[int]],
                               b: Optional[Sequence[Sequence[int]]] = None,
                               k: Optional[int] = None) -> LatticeSpec:
    """Lattice data for the non-nilpotent type from commuting SL(4,Z) data.

    Either a second matrix b or an integer phase k (mu = k pi i) must be
    supplied for the second lattice direction.
    """
    import numpy as np
    am = _check_int_matrix(a, 4)
    if _int_det(am) != 1:
        raise NotSpecialLinear("A must have determinant +1")
    mp = linalg.min_poly(am)
    if not is_squarefree(mp):
        raise NotSemisimple("A is not semisimple")
    cp = char_poly(am)
    if not cp.is_palindromic():
        raise NotReciprocal("characteristic polynomial is not palindromic")
    bm: Optional[IntMatrix] = None
    if b is not None:
        bm = _check_int_matrix(b, 4)
        if _int_det(bm) != 1:
            raise NotSpecialLinear("B must have determinant +1")
        if not semisimple_commuting_check(am, bm):
            raise NotSemisimple("A, B must be commuting semisimple matrices")
    elif k is None:
        raise ValueError("supply either b or the integer phase k")

    eigvals = np.linalg.eigvals(np.array(am, dtype=float))
    off_circle = [v for v in eigvals if abs(abs(v) - 1.0) > 1e-9]
    if not off_circle:
        raise NotReciprocal("every eigenvalue has modulus 1; lambda and mu "
                            "would be R-linearly dependent")
    # deterministic choice: largest modulus, then largest imaginary part
    gamma = max(off_circle, key=lambda v: (abs(v), v.imag, v.real))
    gamma = complex(gamma)
    gamma_inv = 1.0 / gamma

    if abs(gamma.imag) > 1e-9:
        alpha_list = _eigen_pair_vectors(am, gamma_inv)
        beta_list = _eigen_pair_vectors(am, gamma)
        if not alpha_list or not beta_list:
            raise DegenerateEigenvectors("missing eigenvector for gamma")
        alpha, beta = alpha_list[0], beta_list[0]
    else:
        # real gamma: the lattice needs non-real eigenvectors, which exist
        # only when the eigenspaces have dimension at least 2
        alpha_list = _eigen_pair_vectors(am, gamma_inv)
        beta_list = _eigen_pair_vectors(am, gamma)
        if len(alpha_list) < 2 or len(beta_list) < 2:
            raise DegenerateEigenvectors(
                "real eigenvalue with a 1-dim eigenspace admits no non-real "
                "eigenvector")
        alpha = alpha_list[0] + 1j * alpha_list[1]
        beta = beta_list[0] + 1j * beta_list[1]

    residuals = [_residual_eig(am, alpha, gamma_inv),
                 _residual_eig(am, beta, gamma)]

    if bm is not None:
        ref = max(range(4), key=lambda t: abs(alpha[t]))
        delta_inv = complex((np.array(bm, dtype=complex) @ alpha)[ref] / alpha[ref])
        residuals.append(_residual_eig(bm, alpha, delta_inv))
        refb = max(range(4), key=lambda t: abs(beta[t]))
        delta = complex((np.array(bm, dtype=complex) @ beta)[refb] / beta[refb])
        residuals.append(_residual_eig(bm, beta, delta))
        mu = cmath.log(delta)
        b_real = all_roots_real(char_poly(bm))
    else:
        assert k is not None
        mu = complex(0.0, k * cmath.pi)
        b_real = True  # (-1)^k I has real spectrum

    residual = max(residuals)
    if residual > RESIDUAL_TOL:
        raise DegenerateEigenvectors("eigen-relation residual %.3g too large"
                                     % residual)
    delta_gens = [(complex(alpha[i]), complex(beta[i])) for i in range(4)]
    margin = _independence_margin(delta_gens)
    if margin <= INDEPENDENCE_MARGIN:
        raise DegenerateEigenvectors(
            "generators not independent over R (margin %.3g)" % margin)
    classification = "3a" if (all_roots_real(cp) and b_real) else "3b"
    lam = cmath.log(gamma)
    return LatticeSpec("non_nilpotent", am, bm, k, delta_gens, [lam, mu],
                       classification, residual, margin, cp)


def nakamura_lattice(a2: Sequence[Sequence[int]], eps_im: Fraction,
                     k: int) -> LatticeSpec:
    """Completely solvable 3a data from A in SL(2,Z) with |trace| > 2."""
    import numpy as np
    am = _check_int_matrix(a2, 2)
    if _int_det(am) != 1:
        raise NotSpecialLinear("matrix is not in SL(2, Z)")
    tr = am[0][0] + am[1][1]
    if abs(tr) <= 2:
        raise TraceTooSmall("|trace| must exceed 2 for two real eigenvalues "
                            "away from the unit circle")
    eps_im = Fraction(eps_im)
    if eps_im == 0:
        raise ValueError("eps_im must be nonzero")
    disc = tr * tr - 4
    root = disc ** 0.5
    gamma = (tr + root) / 2.0 if tr > 0 else (tr - root) / 2.0  # |gamma| > 1
    gamma_inv = 1.0 / gamma

    def real_eigvec(value: float) -> np.ndarray:
        if am[0][1] != 0:
            return np.array([am[0][1], value - am[0][0]], dtype=complex)
        if am[1][0] != 0:
            return np.array([value - am[1][1], am[1][0]], dtype=complex)
        return np.array([1.0, 0.0], dtype=complex) if abs(am[0][0] - value) < 1e-9 \
            else np.array([0.0, 1.0], dtype=complex)

    avec = real_eigvec(gamma_inv)
    bvec = real_eigvec(gamma)
    try:
        eps = complex(0.0, float(eps_im))
    except OverflowError as exc:
        raise DegenerateEigenvectors("eps_im is too large for a float") from exc
    a4 = [[am[0][0], am[0][1], 0, 0],
          [am[1][0], am[1][1], 0, 0],
          [0, 0, am[0][0], am[0][1]],
          [0, 0, am[1][0], am[1][1]]]
    alpha = np.array([avec[0], avec[1], avec[0] * eps, avec[1] * eps])
    beta = np.array([bvec[0], bvec[1], bvec[0] * eps, bvec[1] * eps])
    residual = max(_residual_eig(a4, alpha, gamma_inv),
                   _residual_eig(a4, beta, gamma))
    if residual > RESIDUAL_TOL:
        raise DegenerateEigenvectors("eigen residual %.3g too large" % residual)
    delta_gens = [(complex(alpha[i]), complex(beta[i])) for i in range(4)]
    margin = _independence_margin(delta_gens)
    if margin <= INDEPENDENCE_MARGIN:
        raise DegenerateEigenvectors(
            "generators not independent over R (margin %.3g)" % margin)
    lam = cmath.log(complex(gamma))
    mu = complex(0.0, k * cmath.pi)
    return LatticeSpec("non_nilpotent", a4, None, k, delta_gens, [lam, mu],
                       "3a", residual, margin, char_poly(a4))


def companion_palindromic(p: int, q: int) -> IntMatrix:
    """Companion matrix of t^4 + p t^3 + q t^2 + p t + 1."""
    return [[0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [-1, -p, -q, -p]]


class SearchEntry(NamedTuple):
    p: int
    q: int
    classification: str        # "3a" | "3b" | "excluded"
    reason: str

    @property
    def coeffs(self) -> Tuple[int, ...]:
        return (1, self.p, self.q, self.p, 1)

    @property
    def polynomial(self) -> Poly:
        return Poly(self.coeffs)

    @property
    def companion(self) -> IntMatrix:
        return companion_palindromic(self.p, self.q)


def classify_palindromic(p: int, q: int) -> Tuple[str, str]:
    """Tag and reason for t^4 + p t^3 + q t^2 + p t + 1, in integers only.

    With u = t + 1/t the quartic is t^2 Q(u), Q(u) = u^2 + p u + (q - 2).
    A root u gives the roots of t^2 - u t + 1: two non-real ones off the
    unit circle when u is not real, two distinct real ones when u is real
    with |u| > 2, a double root t = +-1 when u = +-2, and a conjugate pair
    on the unit circle when u is real in (-2, 2). Hence, from
    disc = p^2 - 4(q - 2) and the signs of Q(2) and Q(-2):

    - not squarefree iff disc = 0 (double u) or Q(2) = 0 or Q(-2) = 0;
    - 3b iff disc < 0;
    - 3a iff both u lie outside [-2, 2]: Q(2), Q(-2) < 0 (one u on each
      side), or Q(2), Q(-2) > 0 with the vertex -p/2 outside [-2, 2];
    - otherwise some u lies in (-2, 2): a unit-modulus root.
    """
    disc = p * p - 4 * (q - 2)
    q_plus = 2 + 2 * p + q
    q_minus = 2 - 2 * p + q
    if disc == 0 or q_plus == 0 or q_minus == 0:
        return "excluded", "not_squarefree"
    if disc < 0:
        return "3b", "no_real_roots"
    if (q_plus < 0 and q_minus < 0) or \
            (q_plus > 0 and q_minus > 0 and abs(p) > 4):
        return "3a", "all_roots_real"
    return "excluded", "unit_modulus_root"


def search_palindromic(bound: int) -> List[SearchEntry]:
    """Scan t^4 + p t^3 + q t^2 + p t + 1 over |p|, |q| <= bound.

    Every pair is reported: squarefree polynomials without unit-modulus
    roots are tagged 3a (four real roots) or 3b (no real roots); anything
    else is excluded with the reason recorded. Deterministic order.

    Each pair is tagged by `classify_palindromic`, an integer rule on
    disc = p^2 - 4(q - 2) and the signs of Q(+-2), Q(u) = u^2 + pu + q - 2,
    which agrees with the general exact route (`is_squarefree`, then
    `classify_eigen`) on every pair. A squarefree quartic with no
    unit-modulus root has either four real roots or none: a real u inside
    [-2, 2] always yields a unit-modulus root, so no mixed real count is
    possible and no tag exists for one.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > 50:
        raise BoundTooLarge("bound %d exceeds the supported desk scale" % bound)
    r = range(-bound, bound + 1)
    return [SearchEntry(p, q, *classify_palindromic(p, q))
            for p in r for q in r]
