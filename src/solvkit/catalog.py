"""Built-in algebra/J/group-law table and the numeric cross-check bridge.

Every entry couples an exact Lie algebra (and usually a complex structure)
with, where available, the explicit group multiplication law of the
corresponding simply connected group. The bridge brackets_from_group_law
differentiates the commutator map of the law numerically and compares
basis-free invariants against the stored exact algebra; it never compares
raw structure constants, because the law coordinates need not match the
stored basis (and for the rotation laws they differ by a scaling of the
rotor direction).
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from fractions import Fraction
from types import MappingProxyType
from typing import (Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from .cxstruct import AlmostComplexStructure, j_from_images, tautological_j
from .errors import NoGroupLaw, ParamOutOfRange, UnknownName
from .liealg import MAX_DIM, LieAlgebra, realify_complex_brackets

Point = Tuple[complex, ...]

ETA_CHOICES = (Fraction(1), Fraction(2, 3), Fraction(1, 2), Fraction(1, 3))


class GroupLaw:
    """Explicit multiplication on C^c x R^r with hand-coded inverse.

    to_real/from_real fix the identification with the coordinates used by
    the finite-difference bridge; the packing is per-entry because split
    and interleaved real bases both occur.
    """

    def __init__(self, n_complex: int, n_real: int,
                 mul: Callable[[Point, Point], Point],
                 inv: Callable[[Point], Point],
                 to_real: Callable[[Point], Tuple[float, ...]],
                 from_real: Callable[[Sequence[float]], Point]):
        self.n_complex = n_complex
        self.n_real = n_real
        self.mul = mul
        self.inv = inv
        self.to_real = to_real
        self.from_real = from_real

    @property
    def n_points(self) -> int:
        return self.n_complex + self.n_real

    @property
    def real_dim(self) -> int:
        return 2 * self.n_complex + self.n_real

    def identity(self) -> Point:
        return tuple(0j for _ in range(self.n_points))

    def check_point(self, p: Sequence) -> Point:
        if len(p) != self.n_points:
            raise ValueError("point needs %d coordinates, got %d"
                             % (self.n_points, len(p)))
        out = []
        for t, x in enumerate(p):
            z = complex(x)
            if t >= self.n_complex and abs(z.imag) > 1e-12:
                raise ValueError("coordinate %d must be real" % t)
            out.append(z)
        return tuple(out)


class CatalogEntry(NamedTuple):
    name: str
    params: Dict[str, object]
    algebra: LieAlgebra
    j: Optional[AlmostComplexStructure]
    group_law: Optional[GroupLaw]
    metadata: Mapping[str, object] = MappingProxyType({})


def _standard_j(dim: int) -> AlmostComplexStructure:
    images = {}
    for t in range(0, dim, 2):
        images[t] = {t + 1: 1}
        images[t + 1] = {t: -1}
    return j_from_images(dim, images)


def _interleave(point: Point) -> Tuple[float, ...]:
    out: List[float] = []
    for z in point:
        out.extend((z.real, z.imag))
    return tuple(out)


def _deinterleave(vec: Sequence[float]) -> Point:
    return tuple(complex(vec[t], vec[t + 1]) for t in range(0, len(vec), 2))


def _split_pack(point: Point) -> Tuple[float, ...]:
    return tuple(z.real for z in point) + tuple(z.imag for z in point)


def _split_unpack(vec: Sequence[float]) -> Point:
    m = len(vec) // 2
    return tuple(complex(vec[t], vec[m + t]) for t in range(m))


def _abelian_law(n_complex: int) -> GroupLaw:
    def mul(p: Point, q: Point) -> Point:
        return tuple(a + b for a, b in zip(p, q))

    def inv(p: Point) -> Point:
        return tuple(-a for a in p)

    return GroupLaw(n_complex, 0, mul, inv, _interleave, _deinterleave)


def _abelian_split_law(n_complex: int) -> GroupLaw:
    law = _abelian_law(n_complex)
    return GroupLaw(n_complex, 0, law.mul, law.inv, _split_pack, _split_unpack)


def _rotation_law(eta_pi: Fraction) -> GroupLaw:
    """(w1, w2)(z1, z2) = (w1 + e^{i eta t} z1, w2 + z2) with t = Re w2."""
    eta = float(eta_pi) * math.pi

    def mul(p: Point, q: Point) -> Point:
        phase = cmath.exp(1j * eta * p[1].real)
        return (p[0] + phase * q[0], p[1] + q[1])

    def inv(p: Point) -> Point:
        phase = cmath.exp(-1j * eta * p[1].real)
        return (-phase * p[0], -p[1])

    return GroupLaw(2, 0, mul, inv, _interleave, _deinterleave)


def _kodaira_law() -> GroupLaw:
    """(w1, w2)(z1, z2) = (w1 + z1, w2 - i conj(w1) z1 + z2)."""

    def mul(p: Point, q: Point) -> Point:
        return (p[0] + q[0], p[1] - 1j * p[0].conjugate() * q[0] + q[1])

    def inv(p: Point) -> Point:
        return (-p[0], -p[1] - 1j * abs(p[0]) ** 2)

    return GroupLaw(2, 0, mul, inv, _interleave, _deinterleave)


def _shear_law() -> GroupLaw:
    """(x, y, z)(x', y', z') = (x + x', y + y', z + z' + x y')."""

    def mul(p: Point, q: Point) -> Point:
        return (p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])

    def inv(p: Point) -> Point:
        return (-p[0], -p[1], -p[2] + p[0] * p[1])

    return GroupLaw(3, 0, mul, inv, _split_pack, _split_unpack)


def _exp_law() -> GroupLaw:
    """(x, y, z)(x', y', z') = (x + x', y + e^x y', z + e^{-x} z')."""

    def mul(p: Point, q: Point) -> Point:
        return (p[0] + q[0],
                p[1] + cmath.exp(p[0]) * q[1],
                p[2] + cmath.exp(-p[0]) * q[2])

    def inv(p: Point) -> Point:
        return (-p[0], -cmath.exp(-p[0]) * p[1], -cmath.exp(p[0]) * p[2])

    return GroupLaw(3, 0, mul, inv, _split_pack, _split_unpack)


def _example3_law(l: int, k: int, orders: Sequence[int]) -> GroupLaw:
    """C^l x| R^{2k}: each t_i rotates every z_j by the s_i-th root of unity."""
    angles = [2.0 * math.pi / s for s in orders]

    def phase(t_part: Sequence[complex]) -> complex:
        total = sum(angles[i] * t_part[i].real for i in range(2 * k))
        return cmath.exp(1j * total)

    def mul(p: Point, q: Point) -> Point:
        ph = phase(p[l:])
        return tuple(p[t] + ph * q[t] for t in range(l)) + \
            tuple(p[l + t] + q[l + t] for t in range(2 * k))

    def inv(p: Point) -> Point:
        ph = phase(tuple(-x for x in p[l:]))
        return tuple(-ph * p[t] for t in range(l)) + \
            tuple(-p[l + t] for t in range(2 * k))

    def to_real(point: Point) -> Tuple[float, ...]:
        out: List[float] = []
        for z in point[:l]:
            out.extend((z.real, z.imag))
        out.extend(x.real for x in point[l:])
        return tuple(out)

    def from_real(vec: Sequence[float]) -> Point:
        zs = tuple(complex(vec[t], vec[t + 1]) for t in range(0, 2 * l, 2))
        ts = tuple(complex(x, 0.0) for x in vec[2 * l:])
        return zs + ts

    return GroupLaw(l, 2 * k, mul, inv, to_real, from_real)


# ---------------------------------------------------------------------------
# entry builders

def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParamOutOfRange(msg)


def _frac(value, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ParamOutOfRange("%s must be rational, got %r" % (name, value))


def _build_abelian(params: Dict[str, object]) -> CatalogEntry:
    dim = params.get("dim", 4)
    _require(isinstance(dim, int) and dim >= 2 and dim % 2 == 0,
             "dim must be a positive even integer")
    _require(dim <= MAX_DIM, "dim must be at most %d" % MAX_DIM)
    l = LieAlgebra(dim, {})
    return CatalogEntry("abelian", {"dim": dim}, l, _standard_j(dim),
                        _abelian_law(dim // 2),
                        {"tags": ("nilpotent", "kahler"), "b1": dim})


def _build_hyperelliptic(params: Dict[str, object]) -> CatalogEntry:
    eta = _frac(params.get("eta", Fraction(1, 2)), "eta")
    _require(eta in ETA_CHOICES, "eta must be one of 1, 2/3, 1/2, 1/3 "
             "(as a fraction of pi)")
    brackets = {(0, 3): {1: 1}, (1, 3): {0: -1}}
    l = LieAlgebra(4, brackets)
    return CatalogEntry("hyperelliptic", {"eta": eta}, l, _standard_j(4),
                        _rotation_law(eta),
                        {"tags": ("rigid", "kahler"), "b1": 2})


def _build_inoue_s0(params: Dict[str, object]) -> CatalogEntry:
    a = _frac(params.get("a", 1), "a")
    b = _frac(params.get("b", 1), "b")
    _require(a != 0 and b != 0, "a and b must be nonzero")
    brackets = {(0, 3): {0: -a, 1: b},
                (1, 3): {0: -b, 1: -a},
                (2, 3): {2: 2 * a}}
    l = LieAlgebra(4, brackets)
    return CatalogEntry("inoue-s0", {"a": a, "b": b}, l, _standard_j(4), None,
                        {"tags": ("mixed",), "b1": 1})


def _build_primary_kodaira(params: Dict[str, object]) -> CatalogEntry:
    l = LieAlgebra(4, {(0, 1): {2: -1}})
    return CatalogEntry("primary-kodaira", {}, l, _standard_j(4),
                        _kodaira_law(), {"tags": ("nilpotent",), "b1": 3})


def _build_secondary_kodaira(params: Dict[str, object]) -> CatalogEntry:
    brackets = {(0, 1): {2: -1}, (0, 3): {1: 1}, (1, 3): {0: -1}}
    l = LieAlgebra(4, brackets)
    return CatalogEntry("secondary-kodaira", {}, l, _standard_j(4), None,
                        {"tags": ("rigid",), "b1": 1})


def _build_inoue_spm(params: Dict[str, object]) -> CatalogEntry:
    q = _frac(params.get("q", Fraction(1, 2)), "q")
    brackets = {(1, 2): {0: -1}, (1, 3): {1: -1}, (2, 3): {2: 1}}
    l = LieAlgebra(4, brackets)
    j = j_from_images(4, {0: {1: 1},
                          1: {0: -1},
                          2: {3: 1, 1: -q},
                          3: {2: -1, 0: -q}})
    return CatalogEntry("inoue-spm", {"q": q}, l, j, None,
                        {"tags": ("completely_solvable",), "b1": 1})


def _build_example3(params: Dict[str, object]) -> CatalogEntry:
    l = params.get("l", 1)
    k = params.get("k", 1)
    _require(isinstance(l, int) and l >= 1, "l must be a positive integer")
    _require(isinstance(k, int) and k >= 1, "k must be a positive integer")
    _require(2 * l + 2 * k <= MAX_DIM, "dim = 2l + 2k must be at most %d" % MAX_DIM)
    orders = params.get("s", 4)
    if isinstance(orders, int):
        orders = [orders] * (2 * k)
    orders = list(orders)
    _require(len(orders) == 2 * k, "need one root order per torus direction")
    _require(all(isinstance(s, int) and s >= 1 for s in orders),
             "root orders must be positive integers")
    dim = 2 * l + 2 * k
    brackets: Dict[Tuple[int, int], Dict[int, object]] = {}
    for i in range(1, k + 1):
        col = 2 * l + 2 * i - 1
        for j in range(1, l + 1):
            brackets[(2 * j - 2, col)] = {2 * j - 1: 1}
            brackets[(2 * j - 1, col)] = {2 * j - 2: -1}
    alg = LieAlgebra(dim, brackets)
    return CatalogEntry("example3", {"l": l, "k": k, "s": tuple(orders)},
                        alg, _standard_j(dim), _example3_law(l, k, orders),
                        {"tags": ("rigid", "kahler"), "b1": dim - 2 * l})


def _build_abelian3(params: Dict[str, object]) -> CatalogEntry:
    alg = realify_complex_brackets(3, {}, basis=["X", "Y", "Z"])
    return CatalogEntry("abelian3", {}, alg, tautological_j(alg),
                        _abelian_split_law(3),
                        {"tags": ("nilpotent", "kahler"), "h1": 3})


def _build_nilpotent3(params: Dict[str, object]) -> CatalogEntry:
    alg = realify_complex_brackets(3, {(0, 1): {2: 1}}, basis=["X", "Y", "Z"])
    return CatalogEntry("nilpotent3", {}, alg, tautological_j(alg),
                        _shear_law(), {"tags": ("nilpotent",), "h1": 2})


def _build_nonnilpotent3(params: Dict[str, object]) -> CatalogEntry:
    alg = realify_complex_brackets(3, {(0, 1): {1: -1}, (0, 2): {2: 1}},
                                   basis=["X", "Y", "Z"])
    return CatalogEntry("nonnilpotent3", {}, alg, tautological_j(alg),
                        _exp_law(), {"tags": ("completely_solvable",)})


_BUILDERS: Dict[str, Callable[[Dict[str, object]], CatalogEntry]] = {
    "abelian": _build_abelian,
    "hyperelliptic": _build_hyperelliptic,
    "inoue-s0": _build_inoue_s0,
    "primary-kodaira": _build_primary_kodaira,
    "secondary-kodaira": _build_secondary_kodaira,
    "inoue-spm": _build_inoue_spm,
    "example3": _build_example3,
    "abelian3": _build_abelian3,
    "nilpotent3": _build_nilpotent3,
    "nonnilpotent3": _build_nonnilpotent3,
}

SURFACE_FAMILIES = ("abelian", "hyperelliptic", "inoue-s0", "primary-kodaira",
                    "secondary-kodaira", "inoue-spm")


def list_names() -> List[str]:
    return sorted(_BUILDERS)


def get(name: str, **params) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownName("no catalog entry named %r" % name)
    return _BUILDERS[name](params)


def group_law_eval(entry: CatalogEntry, p: Sequence, q: Sequence) -> Point:
    if entry.group_law is None:
        raise NoGroupLaw("entry %r carries no group law" % entry.name)
    law = entry.group_law
    return law.mul(law.check_point(p), law.check_point(q))


# ---------------------------------------------------------------------------
# finite-difference bridge

class GroupLawReport(NamedTuple):
    constants: List[List[List[float]]]
    invariants: Dict[str, object]
    expected: Dict[str, object]
    invariants_match: bool
    assoc_residual: float

    @property
    def ok(self) -> bool:
        """C8's pass rule: exact invariants agree, associativity holds."""
        return self.invariants_match and self.assoc_residual <= 1e-9


def _numeric_span_dims(rows: np.ndarray, tol: float) -> int:
    import numpy as np
    return int(np.sum(np.linalg.svd(rows, compute_uv=False) > tol))


def _orthobasis(rows: np.ndarray, tol: float) -> np.ndarray:
    import numpy as np
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    keep = s > tol
    return vt[keep]


def _exact_invariants(l: LieAlgebra) -> Dict[str, object]:
    return {
        "derived_dim": l.derived_subalgebra().dim,
        "center_dim": l.center().dim,
        "lower_central_dims": tuple(s.dim for s in l.lower_central_series()),
        "derived_series_dims": tuple(s.dim for s in l.derived_series()),
    }


def _numeric_invariants(tensor: np.ndarray, tol: float) -> Dict[str, object]:
    import numpy as np
    n = tensor.shape[0]

    def bracket_span(a_basis: np.ndarray, b_basis: np.ndarray) -> np.ndarray:
        rows = []
        for u in a_basis:
            for v in b_basis:
                rows.append(np.einsum("a,b,abk->k", u, v, tensor))
        return _orthobasis(np.array(rows), tol) if rows else \
            np.zeros((0, n))

    full = np.eye(n)

    def series_dims(step: Callable[[np.ndarray], np.ndarray]) -> Tuple[int, ...]:
        dims = [n]
        cur = full
        while dims[-1]:
            nxt = step(cur)
            dims.append(nxt.shape[0])
            if nxt.shape[0] == cur.shape[0]:
                break
            cur = nxt
        return tuple(dims)

    # v central iff the slice tensor[:, v, :] vanishes
    stacked = tensor.transpose(1, 0, 2).reshape(n, n * n)
    center_dim = n - _numeric_span_dims(stacked.T, tol)

    return {
        "derived_dim": int(bracket_span(full, full).shape[0]),
        "center_dim": int(center_dim),
        "lower_central_dims": series_dims(lambda cur: bracket_span(full, cur)),
        "derived_series_dims": series_dims(lambda cur: bracket_span(cur, cur)),
    }


def brackets_from_group_law(entry: CatalogEntry, step: float = 1e-4,
                            rank_tol: float = 1e-6) -> GroupLawReport:
    """Differentiate the commutator map and compare basis-free invariants.

    The associativity residual is the largest over 100 triples of points
    drawn from random.Random(0), so it is the same on every run.
    """
    import numpy as np
    if entry.group_law is None:
        raise NoGroupLaw("entry %r carries no group law" % entry.name)
    law = entry.group_law
    n = law.real_dim
    if n != entry.algebra.dim:
        raise NoGroupLaw("law coordinates do not match the algebra dimension")

    def commutator(u: Sequence[float], v: Sequence[float]) -> np.ndarray:
        p = law.from_real(u)
        q = law.from_real(v)
        r = law.mul(law.mul(law.mul(p, q), law.inv(p)), law.inv(q))
        return np.array(law.to_real(r))

    h = step
    tensor = np.zeros((n, n, n))
    eye = np.eye(n)
    try:
        with np.errstate(all="ignore"):     # a non-finite tensor is refused
            for a, b in itertools.permutations(range(n), 2):
                ea, eb = eye[a], eye[b]
                val = (commutator(h * ea, h * eb)
                       - commutator(h * ea, -h * eb)
                       - commutator(-h * ea, h * eb)
                       + commutator(-h * ea, -h * eb))
                tensor[a, b, :] = val / (4.0 * h * h)
    except (OverflowError, ValueError):     # the law overflowed at this step
        tensor.fill(np.nan)
    if not np.isfinite(tensor).all():
        raise ParamOutOfRange("step %r gives a non-finite difference tensor"
                              % step)

    expected = _exact_invariants(entry.algebra)
    got = _numeric_invariants(tensor, rank_tol)

    rng = random.Random(0)
    resid = 0.0
    for _ in range(100):
        pts = []
        for _ in range(3):
            vec = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            pts.append(law.from_real(vec))
        p, q, r = pts
        left = law.mul(law.mul(p, q), r)
        right = law.mul(p, law.mul(q, r))
        resid = max(resid, max(abs(x - y) for x, y in zip(left, right)))

    return GroupLawReport(
        constants=tensor.tolist(),
        invariants=got,
        expected=expected,
        invariants_match=(got == expected),
        assoc_residual=resid,
    )
