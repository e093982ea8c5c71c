"""Acceptance gate: one test per shipped correctness criterion.

Each test invokes the corresponding report check, prints a single
verdict line, and asserts the stated expectation as-is.  Criterion 4
is a known red: the identity-restriction fixture is compatible with
signature (4, 2) but is not closed on the target algebra, so the
expected pseudo_kahler classification is not reached.  The check is
asserted at face value rather than weakened; the detail payload below
documents the measured values.
"""

from solvkit import report


def _run(fn, label):
    verdict = fn()
    status = verdict["status"].upper()
    print("%s %s: %s" % (label, verdict["check_id"], status))
    if status != "PASS":
        print("  detail: %r" % (verdict["detail"],))
    assert verdict["status"] == "pass", verdict.get("witness", verdict["detail"])


def test_criterion_1_catalog_families():
    """Six families: Jacobi, J^2 = -I, vanishing Nijenhuis, all exact."""
    _run(report.check_theorem4_catalog, "C1")


def test_criterion_2_winkelmann_first_invariants():
    """h1 = 3, 2, 3, 1 split as lie-part plus holonomy-invariant part."""
    _run(report.check_winkelmann_table, "C2")


def test_criterion_3_quartic_lattice_numerics():
    """Char poly t^4 - t^3 + 3t^2 - t + 1: no real roots, residuals small."""
    _run(report.check_example6, "C3")


def test_criterion_4_coordinate_form_pipeline():
    """Closed invariant form, restriction fixture, classify verdict."""
    _run(report.check_theorem9_pipeline, "C4")


def test_criterion_5_obstruction_and_rank():
    """h1 = 2 < 3 obstructed; rank matches h1; abelian reaches n."""
    _run(report.check_obstruction_and_r, "C5")


def test_criterion_6_subalgebra_round_trip():
    """J to subalgebra and back is the identity; negatives rejected."""
    _run(report.check_round_trip, "C6")


def test_criterion_7_palindromic_search():
    """(p, q) = (-1, 3) tagged 3b; bound-5 table matches numerics."""
    _run(report.check_lattice_search, "C7")


def test_criterion_8_group_law_crosscheck():
    """Differentiated group laws reproduce invariants; associativity holds."""
    _run(report.check_group_laws, "C8")


def test_criterion_9_parametric_kahler_family():
    """l=1, k=1 entry classifies kahler (4, 0) and carries the rigid tag."""
    _run(report.check_example3, "C9")


def test_criterion_10_deterministic_report():
    """Two full report runs agree byte for byte, timings excluded."""
    _run(lambda: report.check_determinism(report._core_payload({})), "C10")
