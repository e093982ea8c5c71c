"""Command line surface: exit codes and JSON payloads."""

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import solvkit
from solvkit import catalog, jsonio, report
from solvkit.catalog import get
from solvkit.cli import main
from solvkit.lattices import search_palindromic
from solvkit.liealg import MAX_DIM
from solvkit.report import pair_swap_j


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    return code, (json.loads(out) if out.strip() else None), err


def dump_entry(tmp_path, name, with_j=True, **params):
    entry = get(name, **params)
    doc = jsonio.dump_algebra(entry.algebra, entry.j if with_j else None)
    p = tmp_path / ("%s.json" % name)
    p.write_text(json.dumps(doc))
    return str(p)


def test_catalog_list(capsys):
    code, doc, _ = run_json(capsys, ["catalog", "list"])
    assert code == 0
    assert doc["names"] == sorted(doc["names"])
    assert len(doc["names"]) == 10


def test_catalog_show_with_params(capsys):
    code, doc, _ = run_json(capsys, ["catalog", "show", "example3",
                                     "--params", "l=2", "--params", "k=1"])
    assert code == 0
    assert doc["dim"] == 6
    assert "J" in doc


def test_catalog_unknown_name(capsys):
    code, out, err = run(capsys, ["catalog", "show", "enoki"])
    assert code == 2
    assert not out and "error" in err
    # a zero denominator in --params is a usage error too, not a traceback
    for name, key, value in (("inoue-s0", "a", "1/0"),
                             ("hyperelliptic", "eta", "1/0"),
                             ("inoue-spm", "q", "2/0")):
        argv = ["catalog", "show", name, "--params", "%s=%s" % (key, value)]
        assert run(capsys, argv) == (
            2, "", "error: %s must be rational, got '%s'\n" % (key, value))


def _refuse_any_algebra(*args, **kwargs):
    raise AssertionError("an algebra was built before the size check")


@pytest.mark.parametrize("argv, code, message", [
    (["h1", "DOC"], 3, "input error: dim: at most %d supported, got 10000\n"),
    (["verify-integrable", "DOC"], 3,
     "input error: dim: at most %d supported, got 10000\n"),
    (["catalog", "show", "abelian", "--params", "dim=10000"], 2,
     "error: dim must be at most %d\n"),
    (["catalog", "show", "example3", "--params", "l=10000"], 2,
     "error: dim = 2l + 2k must be at most %d\n"),
    (["catalog", "show", "example3", "--params", "k=10000"], 2,
     "error: dim = 2l + 2k must be at most %d\n"),
], ids=["h1", "verify-integrable", "abelian-dim", "example3-l",
        "example3-k"])
def test_oversized_dim_is_refused_before_allocation(
        capsys, tmp_path, monkeypatch, argv, code, message):
    """A dim far above MAX_DIM is refused before any algebra is built.

    With the check gone, no structure of size 10000 would be built
    either: the patched LieAlgebra fails first (example3 builds lists of
    length 2k and 2lk before it).
    """
    for module in (jsonio, catalog):
        monkeypatch.setattr(module, "LieAlgebra", _refuse_any_algebra)
    doc = tmp_path / "big.json"
    doc.write_text(json.dumps({"dim": 10000, "J": None}))
    argv = [str(doc) if a == "DOC" else a for a in argv]
    assert run(capsys, argv) == (code, "", message % MAX_DIM)


def test_catalog_crosscheck(capsys):
    code, doc, _ = run_json(capsys, ["catalog", "crosscheck", "nilpotent3"])
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["invariants_match"] is True
    assert doc["assoc_residual"] <= 1e-9


def test_catalog_crosscheck_without_a_group_law_is_a_usage_error(capsys):
    assert run(capsys, ["catalog", "crosscheck", "inoue-s0"]) == (
        2, "", "error: entry 'inoue-s0' carries no group law\n")


STEP = "argument --step: expected 1e-12 <= |step| <= 1e-1, got '%s'"
RANK_TOL = "argument --rank-tol: expected a finite number >= 0, got '%s'"


@pytest.mark.parametrize("option, value, message", [
    ("--step", "0", STEP % "0"), ("--step", "inf", STEP % "inf"),
    ("--step", "nan", STEP % "nan"), ("--step", "abc", STEP % "abc"),
    ("--step", "1e-300", STEP % "1e-300"), ("--step", "1e300", STEP % "1e300"),
    # finite steps at which the central difference reads a valid algebra
    # as failing: nonnilpotent3 below 1e-16, the periodic laws at 2 and 10
    ("--step", "1e-17", STEP % "1e-17"), ("--step", "2", STEP % "2"),
    ("--rank-tol", "nan", RANK_TOL % "nan"),
    ("--rank-tol", "inf", RANK_TOL % "inf"),
    ("--rank-tol", "-1", RANK_TOL % "-1"),
])
def test_catalog_crosscheck_degenerate_options_exit_2(capsys, option, value,
                                                      message):
    try:
        code = main(["catalog", "crosscheck", "primary-kodaira",
                     "%s=%s" % (option, value)])
    except SystemExit as e:  # argparse refuses a bad option value
        code = e.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.endswith(message + "\n")
    assert "Traceback" not in out.err


@pytest.mark.parametrize("name, step", [("nonnilpotent3", "1e-12"),
                                        ("example3", "-1e-1")])
def test_catalog_crosscheck_step_range_ends_pass(capsys, name, step):
    code, doc, _ = run_json(capsys, ["catalog", "crosscheck", name,
                                     "--step=" + step])
    assert (code, doc["status"]) == (0, "pass")


def test_catalog_crosscheck_negative_step_takes_the_equals_form(capsys):
    """argparse reads a bare -1e-4 as an option (its negative-number pattern
    has no exponent), so a negative step is written --step=-1e-4."""
    code, doc, _ = run_json(capsys, ["catalog", "crosscheck", "primary-kodaira",
                                     "--step=-1e-4"])
    assert (code, doc["status"]) == (0, "pass")
    try:
        code = main(["catalog", "crosscheck", "primary-kodaira", "--step", "-1e-4"])
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert out.err.endswith("argument --step: expected one argument\n")
    assert "Traceback" not in out.err


def test_verify_integrable_pass(capsys, tmp_path):
    path = dump_entry(tmp_path, "hyperelliptic")
    code, doc, _ = run_json(capsys, ["verify-integrable", path])
    assert code == 0
    assert doc["integrable"] is True


def test_verify_integrable_fail_reports_witness(capsys, tmp_path):
    entry = get("hyperelliptic")
    doc = jsonio.dump_algebra(entry.algebra, pair_swap_j(4))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, got, _ = run_json(capsys, ["verify-integrable", str(p)])
    assert code == 1
    assert got["integrable"] is False
    assert got["witness_pair"] == [1, 2]


# R x_D R^3 with fractional D, and the [e3, e4] = 1/2 e2 that breaks Jacobi
_FRACTIONAL_BRACKETS = [
    {"i": 1, "j": 2, "out": {"2": "1/2"}},
    {"i": 1, "j": 3, "out": {"3": "-2/3", "4": "3/4"}},
    {"i": 1, "j": 4, "out": {"4": "-2/3"}},
]
_NON_JACOBI_BRACKETS = [
    {"i": 1, "j": 2, "out": {"2": "1/2"}},
    {"i": 1, "j": 3, "out": {"3": "-2/3", "4": "1"}},
    {"i": 1, "j": 4, "out": {"4": "3/4"}},
    {"i": 3, "j": 4, "out": {"2": "1/2"}},
]


def test_verify_integrable_fractional_witness_pinned(capsys, tmp_path):
    # J = P J0 P^-1 with fractional P and P e1 = e1, so N(e1, e2) = 0
    p = tmp_path / "frac.json"
    p.write_text(json.dumps({"dim": 4, "brackets": _FRACTIONAL_BRACKETS, "J": [
        ["0", "-2", "-4/3", "5/2"], ["1/2", "0", "3/4", "5/48"],
        ["0", "0", "3/4", "-25/16"], ["0", "0", "1", "-3/4"]]}))
    code, got, _ = run_json(capsys, ["verify-integrable", str(p)])
    assert code == 1
    assert got == {
        "command": "verify-integrable",
        "input_digest": hashlib.sha256(p.read_bytes()).hexdigest(),
        "integrable": False,
        "witness_pair": [1, 3],
        "nijenhuis_value": ["11/32", "1657/2304", "225/256", "-21/64"],
    }


@pytest.mark.parametrize("command", ["h1", "verify-integrable"])
def test_fractional_jacobi_failure_pinned(capsys, tmp_path, command):
    # triples (1, 2, 3) and (1, 2, 4) hold; (1, 3, 4) is the first to fail
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"dim": 4, "brackets": _NON_JACOBI_BRACKETS}))
    code, out, err = run(capsys, [command, str(p)])
    assert code == 3 and not out
    assert err == ("input error: brackets violate the Jacobi identity at "
                   "basis triple (1, 3, 4)\n")


def test_verify_integrable_needs_j(capsys, tmp_path):
    path = dump_entry(tmp_path, "hyperelliptic", with_j=False)
    code, out, err = run(capsys, ["verify-integrable", path])
    assert code == 3
    assert "input error" in err


@pytest.mark.parametrize("bad_j", [
    None,
    [["0", "-1", "0", "0"], ["1", "0"], ["0"] * 4, ["0"] * 4],
    [["1" if r == c else "0" for c in range(4)] for r in range(4)],
], ids=["null", "ragged", "j-squared-not-minus-one"])
def test_a_command_validates_only_the_fields_it_reads(capsys, tmp_path, bad_j):
    good = dump_entry(tmp_path, "inoue-s0")
    doc = json.loads(open(good).read())
    doc["J"] = bad_j
    bad = tmp_path / "bad-j.json"
    bad.write_text(json.dumps(doc))
    # h1 never reads "J": the same answer as with a valid one
    got = run(capsys, ["h1", str(bad)])
    assert got[0] == 0 and got == run(capsys, ["h1", good])
    code, out, err = run(capsys, ["verify-integrable", str(bad)])
    assert (code, out) == (3, "")
    assert err.startswith("input error: J: ")


@pytest.mark.parametrize("command, builds", [
    ("h1", {"adjoints": 1, "cartan": 1}),
    ("verify-integrable", {"adjoints": 1}),
    ("classify-form", {"adjoints": 1}),
])
def test_one_request_builds_the_integer_adjoints_once(
        capsys, tmp_path, structural_builds, command, builds):
    # the Jacobi check at load time and the command's own scans share them
    path = dump_entry(tmp_path, "hyperelliptic")
    argv = [command, path]
    if command == "classify-form":
        entry = get("hyperelliptic")
        jfile, om = tmp_path / "J.json", tmp_path / "omega.json"
        jfile.write_text(json.dumps(jsonio.dump_algebra(entry.algebra,
                                                        entry.j)["J"]))
        om.write_text(json.dumps([{"i": 1, "j": 2, "coeff": "1"}]))
        argv += ["--J", str(jfile), "--omega", str(om)]
    assert run(capsys, argv)[0] == 0
    assert structural_builds == builds


def test_h1_plain(capsys, tmp_path):
    path = dump_entry(tmp_path, "nilpotent3", with_j=False)
    code, doc, _ = run_json(capsys, ["h1", path])
    assert code == 0
    assert (doc["h1"], doc["h1_lie"], doc["dimW"]) == (2, 2, 0)


def test_h1_with_holonomy(capsys, tmp_path):
    from solvkit.lattices import nakamura_lattice
    path = dump_entry(tmp_path, "nonnilpotent3", with_j=False)
    spec = nakamura_lattice([[2, 1], [1, 1]], 1, 1)
    hol = tmp_path / "hol.json"
    hol.write_text(json.dumps(spec.holonomy_generators()))
    code, doc, _ = run_json(capsys, ["h1", path, "--holonomy", str(hol)])
    assert code == 0
    assert (doc["h1"], doc["h1_lie"], doc["dimW"]) == (3, 1, 2)


@pytest.mark.parametrize("generators", [
    [[[0, 0], [0, 0]]],                   # singular
    [[[1]], [[1, 0], [0, 1]]],            # two sizes
    [[[1, 0], [0, 1]]],                   # [g,g]/[n,n] has dimension 4
], ids=["singular", "mixed-sizes", "wrong-size"])
def test_h1_holonomy_shape_errors(capsys, tmp_path, generators):
    path = dump_entry(tmp_path, "nonnilpotent3", with_j=False)
    hol = tmp_path / "hol.json"
    hol.write_text(json.dumps(generators))
    code, out, err = run(capsys, ["h1", path, "--holonomy", str(hol)])
    assert code == 3
    assert not out and "input error" in err and "generators[" in err


@pytest.mark.parametrize("where, message", [
    ("bracket", "brackets[0].out['3']"),
    ("J", "J[0][1]"),
    ("sigma", "sigma[1][1]"),
    ("holonomy", "generators[0][0][0]"),
    ("omega", "omega[0].coeff"),
], ids=["bracket", "J", "sigma", "holonomy", "omega"])
def test_h1_holonomy_refuses_non_real_entry(capsys, tmp_path, where, message):
    """Every entry a command reads must be real: a complex literal in any of
    them exits 3 with the entry's path."""
    entry = get("abelian")
    doc = jsonio.dump_algebra(entry.algebra, entry.j)
    omega = [{"i": 1, "j": 2, "coeff": "1"}]
    holonomy = []
    if where == "bracket":
        doc["brackets"] = [{"i": 1, "j": 2, "out": {"3": "1+1*i"}}]
    elif where == "J":
        doc["J"][0][1] = "i"
    elif where == "sigma":
        doc = {"dim": 2, "field": "complex", "sigma": [["1", "0"], ["0", "i"]]}
    elif where == "holonomy":
        doc = jsonio.dump_algebra(get("nonnilpotent3").algebra)
        holonomy = [[["1+1*i"]]]
    else:
        omega[0]["coeff"] = "1-2*i"
    files = {"alg": doc, "J": doc.get("J"), "omega": omega, "hol": holonomy}
    for name, value in files.items():
        (tmp_path / ("%s.json" % name)).write_text(json.dumps(value))
    path = {name: str(tmp_path / ("%s.json" % name)) for name in files}
    argv = {"J": ["verify-integrable", path["alg"]],
            "omega": ["classify-form", path["alg"], "--J", path["J"],
                      "--omega", path["omega"]]}.get(
        where, ["h1", path["alg"], "--holonomy", path["hol"]])
    assert run(capsys, argv) == (
        3, "", "input error: %s: real entry required\n" % message)


SCALAR_TRUE = "scalar literal must be a string or int, got True"


@pytest.mark.parametrize("where, message", [
    ("bracket", "brackets[0].out['3']: " + SCALAR_TRUE),
    ("J", "J[0][1]: " + SCALAR_TRUE),
    ("holonomy", "generators[0][0][0]: " + SCALAR_TRUE),
    ("omega-coeff", "omega[0].coeff: " + SCALAR_TRUE),
    ("omega-index", "omega[0]: integer i, j required"),
], ids=["bracket", "J", "holonomy", "omega-coeff", "omega-index"])
def test_json_true_is_refused_not_read_as_one(capsys, tmp_path, where,
                                              message):
    entry = get("abelian")
    doc = jsonio.dump_algebra(entry.algebra, entry.j)
    jm = [row[:] for row in doc["J"]]
    omega = [{"i": 1, "j": 2, "coeff": "1"}]
    holonomy = [[["1"]]]
    if where == "bracket":
        doc["brackets"] = [{"i": 1, "j": 2, "out": {"3": True}}]
    elif where == "J":
        jm[0][1] = True
    elif where == "holonomy":
        holonomy = [[[True]]]
    elif where == "omega-coeff":
        omega[0]["coeff"] = True
    else:
        omega[0]["i"] = True
    files = {"alg": doc, "J": jm, "omega": omega, "hol": holonomy}
    for name, value in files.items():
        (tmp_path / ("%s.json" % name)).write_text(json.dumps(value))
    path = {name: str(tmp_path / ("%s.json" % name)) for name in files}
    argv = (["h1", path["alg"], "--holonomy", path["hol"]]
            if where in ("bracket", "holonomy") else
            ["classify-form", path["alg"], "--J", path["J"],
             "--omega", path["omega"]])
    assert run(capsys, argv) == (3, "", "input error: %s\n" % message)


def test_classify_form_kahler(capsys, tmp_path):
    path = dump_entry(tmp_path, "abelian")
    entry = get("abelian")
    jfile = tmp_path / "J.json"
    jfile.write_text(json.dumps(
        [[str(x) for x in row] for row in
         jsonio.dump_algebra(entry.algebra, entry.j)["J"]]))
    om = tmp_path / "omega.json"
    om.write_text(json.dumps([{"i": 1, "j": 2, "coeff": "1"},
                              {"i": 3, "j": 4, "coeff": "1"}]))
    code, doc, _ = run_json(capsys, ["classify-form", path,
                                     "--J", str(jfile), "--omega", str(om)])
    assert code == 0
    assert doc["tag"] == "kahler"
    assert doc["signature"] == [4, 0]


def test_classify_form_not_integrable(capsys, tmp_path):
    path = dump_entry(tmp_path, "hyperelliptic", with_j=False)
    jfile = tmp_path / "J.json"
    jfile.write_text(json.dumps(
        [[str(x) for x in row] for row in pair_swap_j(4).matrix]))
    om = tmp_path / "omega.json"
    om.write_text(json.dumps([{"i": 1, "j": 2, "coeff": "1"}]))
    code, doc, _ = run_json(capsys, ["classify-form", path,
                                     "--J", str(jfile), "--omega", str(om)])
    assert code == 1
    assert doc["tag"] == "not_integrable"


def test_verify_theorem9(capsys):
    code, out, _ = run(capsys, ["verify-theorem9"])
    assert code == 0
    doc = json.loads(out)
    assert [v["status"] for v in doc["verdicts"]] == ["pass"] * 4
    assert [v["check_id"] for v in doc["verdicts"]] == [
        "presentations_equal", "d_omega_zero", "invariance_k1",
        "negative_half_integer"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "cee0b7ca07a196be25925b443f4d1ce43ac01e7e506450c206d87bedbaeebd96"


def test_lattice_search(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code, doc, _ = run_json(capsys, ["lattice", "search", "--bound", "2",
                                     "--out", str(out_file)])
    assert code == 0
    assert doc["counts"] == {"3a": 0, "3b": 0, "excluded": 25}
    stored = json.loads(out_file.read_text())
    assert len(stored["entries"]) == 25


def test_lattice_search_bad_bounds(capsys):
    code, _, err = run(capsys, ["lattice", "search", "--bound", "51"])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, ["lattice", "search", "--bound", "-3"])
    assert code == 2 and "error" in err


def _search_document_reference(bound):
    """The search table as built before the streamed writer: a dict per
    entry, then json.dumps(indent=2) of the whole document."""
    entries = search_palindromic(bound)
    counts = {"3a": 0, "3b": 0, "excluded": 0}
    for e in entries:
        counts[e.classification] += 1
    return json.dumps({
        "command": "lattice search", "bound": bound, "counts": counts,
        "entries": [{
            "p": e.p,
            "q": e.q,
            "coeffs": [str(c) for c in e.polynomial.coeffs],
            "companion": [list(row) for row in e.companion],
            "classification": e.classification,
            "reason": e.reason,
        } for e in entries]}, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("bound", range(6))
def test_lattice_search_writer_matches_reference(capsys, tmp_path, bound):
    want = _search_document_reference(bound)
    out_file = tmp_path / "table.json"
    code, _, _ = run(capsys, ["lattice", "search", "--bound", str(bound),
                              "--out", str(out_file)])
    assert code == 0 and out_file.read_bytes() == want.encode()
    assert run(capsys, ["lattice", "search", "--bound", str(bound)]) == \
        (0, want, "")


def test_lattice_search_bound50_file_pinned(capsys, tmp_path):
    out_file = tmp_path / "table.json"
    code, doc, _ = run_json(capsys, ["lattice", "search", "--bound", "50",
                                     "--out", str(out_file)])
    assert (code, doc) == (0, {
        "command": "lattice search", "bound": 50,
        "counts": {"3a": 1596, "3b": 890, "excluded": 7715},
        "out": str(out_file)})
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == \
        "e47c330fb4314986301c2d3c59974dfacbf03d542b92418f7e1444bfc1ecbc81"


@pytest.mark.parametrize("argv", [["lattice", "search", "--bound", "1"],
                                  ["paper-report"]],
                         ids=["lattice-search", "paper-report"])
def test_unwritable_out_exits_3(capsys, tmp_path, monkeypatch, argv):
    # paper-report refuses the path before any check runs
    def run_all(seconds):
        pytest.fail("paper-report ran its checks before opening --out")

    monkeypatch.setattr(report, "run_all", run_all)
    missing = str(tmp_path / "no-dir" / "x.json")
    for path, reason in ((missing, "No such file or directory"),
                         (str(tmp_path), "Is a directory")):
        assert run(capsys, argv + ["--out", path]) == (
            3, "", "input error: cannot write %s: %s\n" % (path, reason))


def test_lattice_build_three_kinds(capsys, tmp_path):
    m1 = tmp_path / "rot.json"
    m1.write_text("[[0, -1], [1, 0]]")
    code, doc, _ = run_json(capsys, ["lattice", "build", "--kind",
                                     "nilpotent", "--matrix", str(m1)])
    assert code == 0 and doc["kind"] == "nilpotent"

    m2 = tmp_path / "e6.json"
    m2.write_text(json.dumps([[0, 1, 0, 0], [0, 0, 1, 0],
                              [0, 0, 0, 1], [-1, 1, -3, 1]]))
    code, doc, _ = run_json(capsys, ["lattice", "build", "--kind",
                                     "nonnilpotent", "--matrix", str(m2),
                                     "--k", "1"])
    assert code == 0 and doc["classification"] == "3b"

    m3 = tmp_path / "nak.json"
    m3.write_text("[[2, 1], [1, 1]]")
    code, doc, _ = run_json(capsys, ["lattice", "build", "--kind", "nakamura",
                                     "--matrix", str(m3), "--k", "1"])
    assert code == 0 and doc["classification"] == "3a"

    code, _, err = run(capsys, ["lattice", "build", "--kind", "nonnilpotent",
                                "--matrix", str(m2)])
    assert code == 3 and "input error" in err


def test_lattice_build_rejects_bad_matrix(capsys, tmp_path):
    m = tmp_path / "sl2.json"
    m.write_text("[[2, 1], [1, 1]]")
    code, _, err = run(capsys, ["lattice", "build", "--kind", "nilpotent",
                                "--matrix", str(m)])
    assert code == 3 and "input error" in err
    bad = tmp_path / "broken.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, ["lattice", "build", "--kind", "nilpotent",
                                "--matrix", str(bad)])
    assert code == 3


BUILD_MATRICES = {
    "shear": [[1, 1], [0, 1]],
    "minus_one": [[-1, 0], [0, -1]],
    "nak": [[2, 1], [1, 1]],
    "e6": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 1, -3, 1]],
}


@pytest.mark.parametrize("argv, code, message", [
    (["--kind", "nilpotent", "--matrix", "{shear}"], 3,
     "input error: all eigenvalues are real\n"),
    (["--kind", "nilpotent", "--matrix", "{minus_one}"], 3,
     "input error: all eigenvalues are real\n"),
    (["--kind", "nilpotent", "--matrix", "{e6}"], 3,
     "input error: {e6}: expected a 2x2 matrix\n"),
    (["--kind", "nonnilpotent", "--matrix", "{shear}", "--k", "1"], 3,
     "input error: {shear}: expected a 4x4 matrix\n"),
    (["--kind", "nonnilpotent", "--matrix", "{e6}", "--b", "{shear}"], 3,
     "input error: {shear}: expected a 4x4 matrix\n"),
    (["--kind", "nakamura", "--matrix", "{nak}", "--k", "1", "--eps-im", "0"],
     2, "argument --eps-im: expected a nonzero rational, got '0'\n"),
    (["--kind", "nakamura", "--matrix", "{nak}", "--k", "1",
      "--eps-im", "abc"], 2,
     "argument --eps-im: expected a nonzero rational, got 'abc'\n"),
    (["--kind", "nakamura", "--matrix", "{nak}", "--k", "1",
      "--eps-im", "1/0"], 2,
     "argument --eps-im: expected a nonzero rational, got '1/0'\n"),
    # a valid rational past the float range: refused, not an OverflowError
    (["--kind", "nakamura", "--matrix", "{nak}", "--k", "1",
      "--eps-im", "1e400"], 3, "input error: eps_im is too large for a float\n"),
], ids=["double-eigenvalue", "minus-identity", "matrix-size", "matrix-size-4",
        "b-size", "eps-im-zero", "eps-im-text", "eps-im-division",
        "eps-im-overflow"])
def test_lattice_build_input_errors(capsys, tmp_path, argv, code, message):
    files = {}
    for name, m in BUILD_MATRICES.items():
        files[name] = str(tmp_path / ("%s.json" % name))
        (tmp_path / ("%s.json" % name)).write_text(json.dumps(m))
    try:
        got = main(["lattice", "build"] + [a.format(**files) for a in argv])
    except SystemExit as e:  # argparse refuses a bad option value
        got = e.code
    out = capsys.readouterr()
    assert (got, out.out) == (code, "")
    assert out.err.endswith(message.format(**files))


@pytest.mark.parametrize("argv", [
    ["verify-integrable", "{bad}"],
    ["h1", "{alg}", "--holonomy", "{bad}"],
    ["classify-form", "{alg}", "--J", "{bad}", "--omega", "{omega}"],
    ["classify-form", "{alg}", "--J", "{j}", "--omega", "{bad}"],
    ["lattice", "build", "--kind", "nilpotent", "--matrix", "{bad}"],
], ids=["document", "holonomy", "j-matrix", "two-form", "int-matrix"])
def test_unreadable_input_files_exit_3(capsys, tmp_path, unreadable_files,
                                      argv):
    files = {"alg": dump_entry(tmp_path, "abelian"),
             "j": str(tmp_path / "J.json"), "omega": str(tmp_path / "om.json")}
    (tmp_path / "J.json").write_text(json.dumps(
        jsonio.dump_algebra(get("abelian").algebra, get("abelian").j)["J"]))
    (tmp_path / "om.json").write_text('[{"i": 1, "j": 2, "coeff": "1"}]')
    for bad, message in unreadable_files:
        code, out, err = run(capsys, [a.format(bad=bad, **files) for a in argv])
        assert (code, out, err) == (3, "", "input error: %s\n" % message)


def test_exact_commands_never_import_numpy(tmp_path):
    """Only the float-gated lattice builders and group-law checks use numpy."""
    entry = get("hyperelliptic")
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(jsonio.dump_algebra(entry.algebra, entry.j)))
    jfile = tmp_path / "J.json"
    jfile.write_text(json.dumps(json.loads(alg.read_text())["J"]))
    om = tmp_path / "omega.json"
    om.write_text(json.dumps([{"i": 1, "j": 2, "coeff": "1"},
                              {"i": 3, "j": 4, "coeff": "1"}]))
    commands = [["verify-integrable", str(alg)], ["h1", str(alg)],
                ["classify-form", str(alg), "--J", str(jfile),
                 "--omega", str(om)],
                ["lattice", "search", "--bound", "5"]]
    code = ("import io, sys\n"
            "from contextlib import redirect_stdout\n"
            "from solvkit.cli import main\n"
            "for argv in %r:\n"
            "    with redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) in (0, 1), argv\n"
            "print('numpy' in sys.modules)\n" % (commands,))
    src = os.path.dirname(os.path.dirname(solvkit.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


@pytest.fixture(scope="module")
def paper_report(tmp_path_factory):
    """One paper-report run, the slowest command, shared by the tests below."""
    out_file = tmp_path_factory.mktemp("report") / "report.json"
    printed = io.StringIO()
    with redirect_stdout(printed):
        code = main(["paper-report", "--out", str(out_file)])
    return code, json.loads(printed.getvalue()), \
        json.loads(out_file.read_text())


def test_paper_report(paper_report):
    code, doc, stored = paper_report
    assert code == 1    # one documented red check
    by_id = {v["check_id"]: v["status"] for v in doc["verdicts"]}
    assert len(by_id) == 10
    assert by_id["C4-theorem9-pipeline"] == "fail"
    passing = [k for k, v in by_id.items() if v == "pass"]
    assert len(passing) == 9
    assert stored == doc


GOLDEN_VERDICTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "golden",
    "paper-report-verdicts.json")


def test_paper_report_verdicts_equal_the_golden_file(paper_report):
    _, doc, _ = paper_report
    with open(GOLDEN_VERDICTS, "rb") as fh:
        golden = fh.read()
    assert (jsonio.dumps_canonical(doc["verdicts"]) + "\n").encode() == golden


def test_paper_report_timings_per_check(paper_report):
    _, doc, _ = paper_report
    checks = doc["timings"]["checks"]
    assert sorted(checks) == sorted(v["check_id"] for v in doc["verdicts"])
    assert len(checks) == 10
    for seconds in checks.values():
        assert isinstance(seconds, float) and seconds >= 0.0
    assert isinstance(doc["timings"]["total_seconds"], float)


def test_paper_report_c10_compares_the_reports_own_core(paper_report):
    _, doc, _ = paper_report
    core, c10 = doc["verdicts"][:9], doc["verdicts"][9]
    assert c10["check_id"] == "C10-determinism"
    assert c10["detail"]["bytes"] == len(json.dumps(core, allow_nan=False))
