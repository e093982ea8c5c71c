"""JSON loading and dumping for algebras, J matrices, forms, and lattice data.

The document format:

    { "dim": 4,
      "basis": ["X1", "X2", "X3", "X4"],
      "field": "real" | "complex",
      "brackets": [ {"i": 1, "j": 2, "out": {"3": "-1"}}, ... ],
      "sigma": [["1", "0", ...], ...],          # optional, complex field
      "J": [["0", "-1", ...], ...] }            # optional

Indices in documents are 1-based with i < j; scalars are exact real
literals ("p/q", plain ints allowed; "p/q+0*i" reads as p/q, and a nonzero
imaginary part is refused). Schema violations raise SchemaError with a
JSON-path diagnostic; Jacobi failures raise SchemaError carrying the
witness triple.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, TextIO, Tuple

from .cohomology import Cochain
from .cxstruct import AlmostComplexStructure
from .errors import SchemaError
from .liealg import MAX_DIM, LieAlgebra
from .scalars import format_scalar, parse_real


def _read_json(path: str):
    """The JSON value in the file at `path`; SchemaError if it cannot be read."""
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise SchemaError("%s is not valid JSON: %s" % (path, e))


def load_document(path: str) -> dict:
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("%s: top level must be a JSON object" % path)
    return doc


def _real_at(raw, where: str) -> Fraction:
    """The real value of the literal `raw`; SchemaError at `where` if it is
    malformed or not real."""
    try:
        return parse_real(raw)
    except ValueError as e:
        raise SchemaError("%s: %s" % (where, e))


def _matrix_at(raw, dim: int, where: str) -> List[List[Fraction]]:
    if not isinstance(raw, list) or len(raw) != dim or \
            any(not isinstance(row, list) or len(row) != dim for row in raw):
        raise SchemaError("%s: expected a %dx%d matrix" % (where, dim, dim))
    return [[_real_at(x, "%s[%d][%d]" % (where, r, c))
             for c, x in enumerate(row)] for r, row in enumerate(raw)]


def _j_at(raw, dim: int) -> AlmostComplexStructure:
    """The J of the dim x dim matrix `raw`; SchemaError if it is malformed
    or not an almost complex structure."""
    m = _matrix_at(raw, dim, "J")
    try:
        return AlmostComplexStructure(m)
    except ValueError as e:
        raise SchemaError("J: %s" % e)


def algebra_from_document(doc: dict, validate: bool = True) -> LieAlgebra:
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError("dim: positive integer required")
    if dim > MAX_DIM:
        raise SchemaError("dim: at most %d supported, got %d" % (MAX_DIM, dim))
    field = doc.get("field", "real")
    if field not in ("real", "complex"):
        raise SchemaError('field: must be "real" or "complex"')
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim or \
                any(not isinstance(b, str) for b in basis):
            raise SchemaError("basis: need %d label strings" % dim)
    raw_brackets = doc.get("brackets", [])
    if not isinstance(raw_brackets, list):
        raise SchemaError("brackets: expected a list")
    table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    for t, item in enumerate(raw_brackets):
        where = "brackets[%d]" % t
        if not isinstance(item, dict):
            raise SchemaError("%s: expected an object" % where)
        i = item.get("i")
        j = item.get("j")
        for label, val in (("i", i), ("j", j)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise SchemaError("%s.%s: integer required" % (where, label))
        if i == j:
            raise SchemaError("%s: diagonal bracket i == j == %d is not "
                              "allowed (antisymmetry)" % (where, i))
        if not (1 <= i < j <= dim):
            raise SchemaError("%s: need 1 <= i < j <= dim, got i=%d j=%d"
                              % (where, i, j))
        out = item.get("out")
        if not isinstance(out, dict):
            raise SchemaError("%s.out: expected an object" % where)
        row: Dict[int, Fraction] = {}
        for key, val in out.items():
            try:
                k = int(key)
            except (TypeError, ValueError):
                raise SchemaError("%s.out: bad index %r" % (where, key))
            if not 1 <= k <= dim:
                raise SchemaError("%s.out: index %d out of range" % (where, k))
            row[k - 1] = _real_at(val, "%s.out[%r]" % (where, key))
        if (i - 1, j - 1) in table:
            raise SchemaError("%s: duplicate bracket (%d, %d)" % (where, i, j))
        table[(i - 1, j - 1)] = row
    sigma = None
    if "sigma" in doc:
        sigma = _matrix_at(doc["sigma"], dim, "sigma")
    try:
        l = LieAlgebra(dim, table, basis=basis, form=field, sigma=sigma)
    except ValueError as e:
        raise SchemaError(str(e))
    if validate:
        report = l.jacobi_check()
        if not report.ok:
            i, j, k = report.witness
            err = SchemaError("brackets violate the Jacobi identity at basis "
                              "triple (%d, %d, %d)" % (i + 1, j + 1, k + 1))
            err.witness = (i + 1, j + 1, k + 1)
            raise err
    return l


def load_algebra(path: str, validate: bool = True) -> LieAlgebra:
    return algebra_from_document(load_document(path), validate=validate)


def j_from_document(doc: dict) -> Optional[AlmostComplexStructure]:
    if "J" not in doc:
        return None
    dim = doc.get("dim")
    if not isinstance(dim, int):
        raise SchemaError("dim: positive integer required")
    return _j_at(doc["J"], dim)


def load_j_matrix(path: str, dim: int) -> AlmostComplexStructure:
    """Read a J stored either bare ([[...]]) or under a "J" key."""
    doc = _read_json(path)
    return _j_at(doc.get("J") if isinstance(doc, dict) else doc, dim)


def load_holonomy(path: str) -> List[List[List[Fraction]]]:
    """Read holonomy generators: a list of square matrices with exact entries.

    Accepts either a bare list or {"generators": [...]}.
    """
    doc = _read_json(path)
    raw = doc.get("generators") if isinstance(doc, dict) else doc
    if not isinstance(raw, list):
        raise SchemaError("holonomy: expected a list of matrices")
    out = []
    for g, mat in enumerate(raw):
        where = "generators[%d]" % g
        if not isinstance(mat, list) or not mat:
            raise SchemaError("%s: expected a nonempty matrix" % where)
        n = len(mat)
        if any(not isinstance(row, list) or len(row) != n for row in mat):
            raise SchemaError("%s: matrix must be square" % where)
        out.append([[_real_at(x, "%s[%d][%d]" % (where, r, c))
                     for c, x in enumerate(row)] for r, row in enumerate(mat)])
    return out


def load_two_form(path: str, dim: int) -> Cochain:
    """Read a 2-form given as entries {"i": 1, "j": 4, "coeff": "2"} (1-based)."""
    doc = _read_json(path)
    raw = doc.get("terms") if isinstance(doc, dict) else doc
    if not isinstance(raw, list):
        raise SchemaError("omega: expected a list of {i, j, coeff} entries")
    coeffs: Dict[Tuple[int, int], Fraction] = {}
    for t, item in enumerate(raw):
        where = "omega[%d]" % t
        if not isinstance(item, dict):
            raise SchemaError("%s: expected an object" % where)
        i = item.get("i")
        j = item.get("j")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in (i, j)):
            raise SchemaError("%s: integer i, j required" % where)
        if i == j:
            raise SchemaError("%s: i == j is not allowed" % where)
        if not (1 <= i < j <= dim):
            raise SchemaError("%s: need 1 <= i < j <= %d" % (where, dim))
        if (i - 1, j - 1) in coeffs:
            raise SchemaError("%s: duplicate entry (%d, %d)" % (where, i, j))
        coeffs[(i - 1, j - 1)] = _real_at(item.get("coeff"),
                                          "%s.coeff" % where)
    return Cochain(dim, 2, coeffs)


def load_int_matrix(path: str, size: int) -> List[List[int]]:
    """Read a size x size integer matrix, bare or under a "matrix" key."""
    doc = _read_json(path)
    raw = doc.get("matrix") if isinstance(doc, dict) else doc
    if not isinstance(raw, list) or len(raw) != size or \
            any(not isinstance(row, list) or len(row) != size for row in raw):
        raise SchemaError("%s: expected a %dx%d matrix" % (path, size, size))
    for row in raw:
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise SchemaError("%s: integer entries required" % path)
    return raw


# ---------------------------------------------------------------------------
# dumping

def dump_algebra(l: LieAlgebra, j: Optional[AlmostComplexStructure] = None) -> dict:
    brackets = []
    for (i, jj) in sorted(l._table):
        out = {str(k + 1): format_scalar(c)
               for k, c in sorted(l._table[(i, jj)].items())}
        brackets.append({"i": i + 1, "j": jj + 1, "out": out})
    doc = {"dim": l.dim, "basis": list(l.basis), "field": l.form,
           "brackets": brackets}
    if l.sigma is not None:
        doc["sigma"] = [[format_scalar(x) for x in row] for row in l.sigma]
    if j is not None:
        doc["J"] = [[format_scalar(x) for x in row] for row in j.matrix]
    return doc


def _complex_pair(z: complex) -> List[float]:
    return [float(z.real), float(z.imag)]


def dump_lattice_spec(spec) -> dict:
    doc = {
        "kind": spec.kind,
        "classification": spec.classification,
        "A": spec.a_matrix,
        "B": spec.b_matrix,
        "k": spec.k,
        "char_poly": [str(c) for c in spec.char_polynomial.coeffs]
        if spec.char_polynomial is not None else None,
        "delta_generators": [[_complex_pair(a), _complex_pair(b)]
                             for a, b in spec.delta_generators],
        "lambda_generators": [_complex_pair(z)
                              for z in spec.lambda_generators],
        "residual": spec.residual,
        "independence_margin": spec.independence_margin,
    }
    return doc


# One entry as dumps_canonical lays it out in "entries", by the same encoder;
# "#d"/"#s" become %-fields: p q, coeffs p q p, row -p -q -p, tag, reason.
_SEARCH_ENTRY = "\n".join("    " + line for line in json.dumps({
    "p": "#d", "q": "#d", "coeffs": ["1", "%d", "%d", "%d", "1"],
    "companion": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                  [-1, "#d", "#d", "#d"]],
    "classification": "#s", "reason": "#s"}, indent=2).split("\n")
).replace('"#d"', "%d").replace('"#s"', "%s")


def dump_search_entries(head: dict, entries, fh: TextIO) -> None:
    """Stream dumps_canonical(dict(head, entries=...)) + "\n" to fh, one
    lattices.SearchEntry (a nonempty list of them) at a time, each unpacked
    as the tuple (p, q, classification, reason)."""
    fh.write(dumps_canonical(head)[:-2] + ',\n  "entries": [\n')
    for t, (p, q, tag, reason) in enumerate(entries):
        fh.write((",\n" if t else "") + _SEARCH_ENTRY % (
            p, q, p, q, p, -p, -q, -p, encode_basestring_ascii(tag),
            encode_basestring_ascii(reason)))
    fh.write("\n  ]\n}\n")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: fixed key order as constructed, 2-space indent."""
    return json.dumps(obj, indent=2, allow_nan=False)
