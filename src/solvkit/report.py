"""The executable acceptance suite: ten named checks shared by the CLI
paper-report subcommand and the test suite.

Each check_* function returns a plain dict {check_id, status, detail,
witness?} with JSON-safe values only, in a deterministic field order, so
two runs of run_all(...) serialize byte-identically. Timings are deliberately
kept out of these payloads; the CLI attaches them one level up.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Dict, List

from . import catalog, cohomology, cxstruct, expforms, lattices, pkforms
from .cxstruct import j_from_images
from .errors import NotIntegrable
from .polys import Poly

EXAMPLE6_MATRIX = [[0, 1, 0, 0],
                   [0, 0, 1, 0],
                   [0, 0, 0, 1],
                   [-1, 1, -3, 1]]

NAKAMURA_MATRIX = [[2, 1], [1, 1]]

# frozen output of the signed-basis-permutation scan: J's that fail
# integrability on the named entries, with the failing basis pair
NEGATIVE_CONTROLS = (
    ("hyperelliptic", (0, 1)),
    ("inoue-s0", (0, 1)),
    ("primary-kodaira", (0, 1)),
)


def pair_swap_j(dim: int) -> cxstruct.AlmostComplexStructure:
    """The signed permutation e0 <-> e2, e1 <-> e3 (and so on in blocks)."""
    images = {}
    for base in range(0, dim, 4):
        images[base] = {base + 2: 1}
        images[base + 2] = {base: -1}
        images[base + 1] = {base + 3: 1}
        images[base + 3] = {base + 1: -1}
    return j_from_images(dim, images)


def _verdict(check_id: str, detail: dict, witness) -> dict:
    """A passing verdict exactly when there is no witness of failure."""
    if witness is None:
        return {"check_id": check_id, "status": "pass", "detail": detail}
    return {"check_id": check_id, "status": "fail", "detail": detail,
            "witness": witness}


def check_theorem4_catalog() -> dict:
    detail = {}
    witness = None
    for name in catalog.SURFACE_FAMILIES:
        entry = catalog.get(name)
        jac = entry.algebra.jacobi_check()
        integ = cxstruct.is_integrable(entry.algebra, entry.j)
        detail[name] = {"jacobi": jac.ok, "integrable": integ.ok}
        if not jac.ok and witness is None:
            witness = {"family": name, "jacobi_triple": list(jac.witness)}
        if not integ.ok and witness is None:
            witness = {"family": name, "nijenhuis_pair": list(integ.witness)}
    return _verdict("C1-catalog-validity", detail, witness)


def _three_dim_fixtures():
    nakamura = lattices.nakamura_lattice(NAKAMURA_MATRIX, Fraction(1), 1)
    example6 = lattices.build_lattice_nonnilpotent(EXAMPLE6_MATRIX, k=1)
    return [
        ("abelian", catalog.get("abelian3").algebra, []),
        ("nilpotent", catalog.get("nilpotent3").algebra, []),
        ("non_nilpotent_3a", catalog.get("nonnilpotent3").algebra,
         nakamura.holonomy_generators()),
        ("non_nilpotent_3b", catalog.get("nonnilpotent3").algebra,
         example6.holonomy_generators()),
    ]


def check_winkelmann_table() -> dict:
    expected = {
        "abelian": (3, 3, 0),
        "nilpotent": (2, 2, 0),
        "non_nilpotent_3a": (3, 1, 2),
        "non_nilpotent_3b": (1, 1, 0),
    }
    detail = {}
    witness = None
    for label, alg, gens in _three_dim_fixtures():
        h = cohomology.HolonomyAction(gens)
        got = cohomology.winkelmann_h1(alg, h)
        trip = (got["h1"], got["h1_lie"], got["dimW"])
        detail[label] = {"h1": trip[0], "h1_lie": trip[1], "dimW": trip[2]}
        if trip != expected[label] and witness is None:
            witness = {"fixture": label, "got": list(trip),
                       "expected": list(expected[label])}
    return _verdict("C2-winkelmann-table", detail, witness)


def check_example6() -> dict:
    cp = lattices.char_poly(EXAMPLE6_MATRIX)
    want = Poly([1, -1, 3, -1, 1])
    report = lattices.classify_eigen(cp)
    spec = lattices.build_lattice_nonnilpotent(EXAMPLE6_MATRIX, k=1)
    detail = {
        "char_poly": [str(c) for c in cp.coeffs],
        "real_roots": report.real_roots,
        "unit_modulus_root": report.unit_modulus_root,
        "residual": spec.residual,
        "classification": spec.classification,
    }
    ok = (cp == want and report.real_roots == 0
          and not report.unit_modulus_root
          and spec.residual <= lattices.RESIDUAL_TOL
          and spec.classification == "3b")
    return _verdict("C3-example6-lattice", detail, None if ok else detail)


def check_theorem9_pipeline() -> dict:
    detail = expforms.theorem9_checks()
    fixture = cohomology.Cochain(6, 2, {(0, 3): 2, (1, 2): 2, (4, 5): 2})
    restricted = expforms.restrict_identity(expforms.omega_coordinate())
    restriction_matches = (restricted.degree == 2
                           and dict(restricted.coeffs) == dict(fixture.coeffs))

    alg = catalog.get("nonnilpotent3").algebra
    j = catalog.get("nonnilpotent3").j
    verdict = pkforms.classify(alg, j, fixture)
    oracle_signature = (4, 2)
    classify_ok = (verdict.tag == "pseudo_kahler"
                   and verdict.signature == oracle_signature)

    detail.update({
        "restriction_matches_fixture": restriction_matches,
        "classify_tag": verdict.tag,
        "classify_signature": list(verdict.signature) if verdict.signature
        else None,
        "expected_tag": "pseudo_kahler",
        "expected_signature": list(oracle_signature),
    })
    ok = (detail["presentations_equal"] and detail["d_omega_zero"]
          and all(detail["invariance"].values())
          and detail["negative_half_integer"] and restriction_matches
          and classify_ok)
    witness = None if ok else {
        k: v for k, v in detail.items()
        if v is False or k in ("classify_tag", "classify_signature")}
    return _verdict("C4-theorem9-pipeline", detail, witness)


def check_obstruction_and_r() -> dict:
    nilp = catalog.get("nilpotent3").algebra
    abel = catalog.get("abelian3").algebra
    h_nilp = cohomology.winkelmann_h1(nilp, cohomology.HolonomyAction([]))
    n = nilp.complex_dim
    obstruction = cohomology.pseudo_kahler_obstruction(n, h_nilp["h1"])
    r_nilp = cohomology.closed_holomorphic_1forms(nilp)
    r_abel = cohomology.closed_holomorphic_1forms(abel)
    detail = {
        "nilpotent_h1": h_nilp["h1"],
        "nilpotent_n": n,
        "obstruction": obstruction,
        "r_nilpotent": r_nilp,
        "r_abelian": r_abel,
        "n_abelian": abel.complex_dim,
    }
    ok = (h_nilp["h1"] == 2 and n == 3 and obstruction == "obstructed"
          and r_nilp == 2 and r_nilp == h_nilp["h1"]
          and r_abel == 3 and r_abel == abel.complex_dim)
    return _verdict("C5-obstruction-consistency", detail,
                    None if ok else detail)


def _integrable_catalog_pairs():
    for name in catalog.list_names():
        entry = catalog.get(name)
        if entry.j is None:
            continue
        yield name, entry


def check_round_trip() -> dict:
    detail = {}
    witness = None
    for name, entry in _integrable_catalog_pairs():
        sub = cxstruct.subalgebra_from_j(entry.algebra, entry.j)
        back = cxstruct.j_from_subspace(sub.ambient, sub.basis)
        ok = back == entry.j
        detail[name] = ok
        if not ok and witness is None:
            witness = {"entry": name, "stage": "round-trip mismatch"}
    negatives = {}
    for name, pair in NEGATIVE_CONTROLS:
        entry = catalog.get(name)
        bad_j = pair_swap_j(entry.algebra.dim)
        try:
            cxstruct.subalgebra_from_j(entry.algebra, bad_j)
            negatives[name] = False
            if witness is None:
                witness = {"entry": name,
                           "stage": "negative control did not raise"}
        except NotIntegrable:
            report = cxstruct.is_integrable(entry.algebra, bad_j)
            negatives[name] = (not report.ok and report.witness == pair)
            if not negatives[name] and witness is None:
                witness = {"entry": name, "stage": "unexpected witness",
                           "got": list(report.witness or ())}
    detail["negative_controls"] = negatives
    return _verdict("C6-lemma-round-trip", detail, witness)


def _numeric_eigen_classification(p: int, q: int) -> str:
    import numpy as np
    roots = np.roots([1.0, p, q, p, 1.0])
    reals = sum(1 for r in roots if abs(r.imag) < 1e-7)
    unit = any(abs(abs(r) - 1.0) < 1e-7 for r in roots)
    # repeated root <-> two numeric roots closer than tolerance
    sorted_roots = sorted(roots, key=lambda z: (z.real, z.imag))
    repeated = any(abs(sorted_roots[t] - sorted_roots[t + 1]) < 1e-6
                   for t in range(len(sorted_roots) - 1))
    if repeated:
        return "excluded"
    if unit:
        return "excluded"
    if reals == 4:
        return "3a"
    if reals == 0:
        return "3b"
    return "excluded"


def check_lattice_search() -> dict:
    table3 = lattices.search_palindromic(3)
    hit = next((e for e in table3 if (e.p, e.q) == (-1, 3)), None)
    has_3b = hit is not None and hit.classification == "3b"

    table5 = lattices.search_palindromic(5)
    disagreements = []
    for e in table5:
        numeric = _numeric_eigen_classification(e.p, e.q)
        if numeric != e.classification:
            disagreements.append({"p": e.p, "q": e.q, "exact": e.classification,
                                  "numeric": numeric, "reason": e.reason})
    detail = {
        "minus1_3_classification": hit.classification if hit else None,
        "bound5_entries": len(table5),
        "disagreements": disagreements,
    }
    witness = None if has_3b and not disagreements else {
        "disagreements": disagreements[:5],
        "minus1_3": detail["minus1_3_classification"]}
    return _verdict("C7-lattice-search", detail, witness)


def check_group_laws() -> dict:
    names = ("hyperelliptic", "primary-kodaira", "nilpotent3", "nonnilpotent3")
    detail = {}
    witness = None
    for name in names:
        entry = catalog.get(name)
        rep = catalog.brackets_from_group_law(entry)
        detail[name] = {
            "invariants_match": rep.invariants_match,
            "assoc_residual": rep.assoc_residual,
        }
        if not rep.ok and witness is None:
            witness = {"entry": name, "invariants": rep.invariants,
                       "expected": rep.expected,
                       "assoc_residual": rep.assoc_residual}
    return _verdict("C8-group-law-crosscheck", detail, _jsonable(witness))


def check_example3() -> dict:
    entry = catalog.get("example3", l=1, k=1)
    integ = cxstruct.is_integrable(entry.algebra, entry.j)
    omega = cohomology.Cochain(4, 2, {(0, 1): 1, (2, 3): 1})
    verdict = pkforms.classify(entry.algebra, entry.j, omega)
    tag = entry.algebra.classify_type()
    detail = {
        "integrable": integ.ok,
        "classify_tag": verdict.tag,
        "signature": list(verdict.signature) if verdict.signature else None,
        # old key name kept: verdicts match perfbench/golden/paper-report-verdicts.json
        "type_samples": tag,
    }
    ok = (integ.ok and verdict.tag == "kahler"
          and verdict.signature == (4, 0) and tag == "rigid")
    return _verdict("C9-example3-kahler", detail, None if ok else detail)


def _timed(check, seconds: Dict[str, float]) -> dict:
    started = time.perf_counter()
    verdict = check()
    seconds[verdict["check_id"]] = time.perf_counter() - started
    return verdict


def _core_payload(seconds: Dict[str, float]) -> List[dict]:
    return [_timed(check, seconds) for check in (
        check_theorem4_catalog,
        check_winkelmann_table,
        check_example6,
        check_theorem9_pipeline,
        check_obstruction_and_r,
        check_round_trip,
        check_lattice_search,
        check_group_laws,
        check_example3,
    )]


def check_determinism(core: List[dict]) -> dict:
    """Compare `core`, one pass of the nine core checks, with a fresh pass."""
    first = json.dumps(core, allow_nan=False)
    second = json.dumps(_core_payload({}), allow_nan=False)
    detail = {"identical": first == second, "bytes": len(first)}
    return _verdict("C10-determinism", detail, None if first == second
                    else {"lengths": [len(first), len(second)]})


def run_all(seconds: Dict[str, float]) -> List[dict]:
    """The ten verdicts in order.

    `seconds` receives each check's `perf_counter` time keyed by check id;
    C10's time is the one fresh core pass it compares with the first nine.
    """
    verdicts = _core_payload(seconds)
    verdicts.append(_timed(lambda: check_determinism(verdicts), seconds))
    return verdicts


def _jsonable(obj):
    import numpy as np
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj
