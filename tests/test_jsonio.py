"""Document schema: loading, validation diagnostics, and round trips."""

import io
import json

import pytest

from solvkit import jsonio
from solvkit.catalog import get
from solvkit.errors import SchemaError
from solvkit.jsonio import (algebra_from_document, dump_algebra,
                            dump_lattice_spec, dump_search_entries,
                            dumps_canonical, j_from_document, load_algebra,
                            load_document, load_holonomy, load_j_matrix,
                            load_two_form)
from solvkit.lattices import nakamura_lattice, search_palindromic
from solvkit.liealg import MAX_DIM
from solvkit.scalars import Scalar

HEIS_DOC = {
    "dim": 3,
    "field": "real",
    "brackets": [{"i": 1, "j": 2, "out": {"3": "1"}}],
}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


def test_load_document_errors(tmp_path):
    with pytest.raises(SchemaError):
        load_document(str(tmp_path / "missing.json"))
    with pytest.raises(SchemaError):
        load_document(write(tmp_path, "bad.json", "{not json"))
    with pytest.raises(SchemaError):
        load_document(write(tmp_path, "list.json", [1, 2]))


LOADERS = {
    "document": load_document,
    "j_matrix": lambda path: load_j_matrix(path, 4),
    "holonomy": load_holonomy,
    "two_form": lambda path: load_two_form(path, 4),
    "int_matrix": lambda path: jsonio.load_int_matrix(path, 2),
}


@pytest.mark.parametrize("loader", LOADERS.values(), ids=LOADERS.keys())
def test_loaders_refuse_unreadable_files(unreadable_files, loader):
    for path, message in unreadable_files:
        with pytest.raises(SchemaError) as info:
            loader(path)
        assert str(info.value) == message


def test_algebra_happy_path(tmp_path):
    l = load_algebra(write(tmp_path, "heis.json", HEIS_DOC))
    assert l.dim == 3
    assert l.bracket_basis(0, 1)[2] == Scalar(1)


def test_dim_bound():
    assert algebra_from_document({"dim": MAX_DIM}).dim == MAX_DIM
    with pytest.raises(SchemaError, match="^dim: at most %d" % MAX_DIM):
        algebra_from_document({"dim": MAX_DIM + 1})


def test_algebra_schema_errors():
    with pytest.raises(SchemaError):
        algebra_from_document({"dim": 0})
    with pytest.raises(SchemaError):
        algebra_from_document({"dim": True})
    with pytest.raises(SchemaError):
        algebra_from_document({"dim": 3, "field": "quaternionic"})
    with pytest.raises(SchemaError):
        algebra_from_document({"dim": 3, "basis": ["a", "b"]})
    with pytest.raises(SchemaError):
        algebra_from_document({"dim": 3, "brackets": {"i": 1}})
    bad = dict(HEIS_DOC)
    bad["brackets"] = [{"i": 2, "j": 2, "out": {"3": "1"}}]
    with pytest.raises(SchemaError, match="diagonal"):
        algebra_from_document(bad)
    bad["brackets"] = [{"i": 2, "j": 1, "out": {"3": "1"}}]
    with pytest.raises(SchemaError, match="i < j"):
        algebra_from_document(bad)
    bad["brackets"] = [{"i": 1, "j": 2, "out": {"9": "1"}}]
    with pytest.raises(SchemaError, match="out of range"):
        algebra_from_document(bad)
    bad["brackets"] = [{"i": 1, "j": 2, "out": {"x": "1"}}]
    with pytest.raises(SchemaError, match="bad index"):
        algebra_from_document(bad)
    bad["brackets"] = [{"i": 1, "j": 2, "out": {"3": "1"}},
                       {"i": 1, "j": 2, "out": {"3": "2"}}]
    with pytest.raises(SchemaError, match="duplicate"):
        algebra_from_document(bad)
    bad["brackets"] = [{"i": 1, "j": 2, "out": {"3": "1.5"}}]
    with pytest.raises(SchemaError):
        algebra_from_document(bad)


def test_jacobi_witness_is_one_based():
    doc = {
        "dim": 3,
        "brackets": [{"i": 1, "j": 2, "out": {"2": "1"}},
                     {"i": 2, "j": 3, "out": {"1": "1"}}],
    }
    with pytest.raises(SchemaError) as info:
        algebra_from_document(doc)
    assert info.value.witness == (1, 2, 3)
    # validate=False lets a broken table through for inspection
    l = algebra_from_document(doc, validate=False)
    assert not l.jacobi_check().ok


def test_dump_load_round_trip():
    for name in ("hyperelliptic", "nonnilpotent3"):
        entry = get(name)
        doc = dump_algebra(entry.algebra, entry.j)
        back = algebra_from_document(doc)
        assert back.dim == entry.algebra.dim
        assert back.form == entry.algebra.form
        for i in range(back.dim):
            for j in range(i + 1, back.dim):
                assert back.bracket_basis(i, j) == \
                    entry.algebra.bracket_basis(i, j)
        j_back = j_from_document(doc)
        assert j_back is not None
        assert j_back.matrix == entry.j.matrix
    assert j_from_document({"dim": 2}) is None


def test_sigma_round_trip():
    entry = get("nonnilpotent3")
    doc = dump_algebra(entry.algebra)
    if entry.algebra.sigma is not None:
        back = algebra_from_document(doc)
        assert back.sigma == entry.algebra.sigma


def test_load_j_matrix(tmp_path):
    bare = [["0", "-1"], ["1", "0"]]
    j = load_j_matrix(write(tmp_path, "bare.json", bare), 2)
    assert j.matrix[0][1] == Scalar(-1)
    j2 = load_j_matrix(write(tmp_path, "keyed.json", {"J": bare}), 2)
    assert j2.matrix == j.matrix
    with pytest.raises(SchemaError):
        load_j_matrix(write(tmp_path, "shape.json", [["0"]]), 2)
    with pytest.raises(SchemaError):
        load_j_matrix(write(tmp_path, "notj.json",
                            [["1", "0"], ["0", "1"]]), 2)


def test_load_holonomy(tmp_path):
    mats = [[[2, 1], [1, 1]]]
    got = load_holonomy(write(tmp_path, "bare.json", mats))
    assert got == [[[2, 1], [1, 1]]]
    got2 = load_holonomy(write(tmp_path, "keyed.json", {"generators": mats}))
    assert got2 == got
    assert load_holonomy(write(tmp_path, "empty.json", [])) == []
    with pytest.raises(SchemaError, match="real"):
        load_holonomy(write(tmp_path, "cx.json", [[["i", "0"], ["0", "1"]]]))
    with pytest.raises(SchemaError, match="square"):
        load_holonomy(write(tmp_path, "rect.json", [[[1, 2, 3], [4, 5, 6]]]))


def test_load_two_form(tmp_path):
    terms = [{"i": 1, "j": 4, "coeff": "2"}, {"i": 2, "j": 3, "coeff": "2"}]
    w = load_two_form(write(tmp_path, "w.json", terms), 4)
    assert w.coefficient(0, 3) == Scalar(2)
    w2 = load_two_form(write(tmp_path, "keyed.json", {"terms": terms}), 4)
    assert w2.coefficient(1, 2) == w.coefficient(1, 2)
    with pytest.raises(SchemaError, match="duplicate"):
        load_two_form(write(tmp_path, "dup.json", terms + [terms[0]]), 4)
    with pytest.raises(SchemaError):
        load_two_form(write(tmp_path, "diag.json",
                            [{"i": 2, "j": 2, "coeff": "1"}]), 4)
    with pytest.raises(SchemaError):
        load_two_form(write(tmp_path, "range.json",
                            [{"i": 1, "j": 9, "coeff": "1"}]), 4)


def test_dump_lattice_and_search_shapes():
    spec = nakamura_lattice([[2, 1], [1, 1]], 1, 1)
    doc = dump_lattice_spec(spec)
    assert doc["classification"] == "3a"
    assert all(len(pair) == 2 for pair in doc["lambda_generators"])
    json.dumps(doc)    # must already be JSON-serializable
    out = io.StringIO()
    dump_search_entries({"bound": 1}, search_palindromic(1), out)
    doc = json.loads(out.getvalue())
    assert list(doc) == ["bound", "entries"]
    entries = doc["entries"]
    assert len(entries) == 9
    assert {e["classification"] for e in entries} <= {"3a", "3b", "excluded"}
    assert entries[0] == {
        "p": -1, "q": -1, "coeffs": ["1", "-1", "-1", "-1", "1"],
        "companion": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                      [-1, 1, 1, 1]],
        "classification": "excluded", "reason": "unit_modulus_root"}


def test_dumps_canonical_is_deterministic():
    doc = dump_algebra(get("inoue-s0").algebra)
    assert dumps_canonical(doc) == dumps_canonical(doc)
    assert dumps_canonical(doc).count("\n") > 3
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})
