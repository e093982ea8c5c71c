"""Command-line interface.

Exit codes: 0 all checks pass, 1 failed checks, 2 usage error,
3 unusable input (malformed file or data violating a documented
precondition). Reports are JSON on stdout with deterministic field order;
only the "timings" block varies between runs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, TextIO

from . import catalog, cohomology, cxstruct, expforms, jsonio, lattices, report
from .errors import (BoundTooLarge, NoGroupLaw, NotIntegrable, ParamOutOfRange,
                     SchemaError, SolvkitError, UnknownName)
from .pkforms import classify

USAGE_ERROR = 2
INPUT_ERROR = 3


def _print(doc) -> None:
    sys.stdout.write(jsonio.dumps_canonical(doc) + "\n")


def _write_out(path: str, write: Callable[[TextIO], object]) -> None:
    """write(fh) on the --out file `path`; exit 3 if it cannot be written."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as e:
        raise SchemaError("cannot write %s: %s" % (path, e.strerror or e))


def _sha256(data: bytes) -> str:
    import hashlib      # loaded only for verify-integrable's file digest
    return hashlib.sha256(data).hexdigest()


def _parse_param_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return text


def _nonzero_rational(text: str) -> Fraction:
    try:
        if Fraction(text):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError("expected a nonzero rational, got %r"
                                     % text)


def _finite_float(ok: Callable[[float], bool],
                  what: str) -> Callable[[str], float]:
    """argparse type: a finite float x with ok(x), else exit 2."""
    def parse(text: str) -> float:
        try:
            x = float(text)
        except ValueError:
            x = math.nan
        if math.isfinite(x) and ok(x):
            return x
        raise argparse.ArgumentTypeError("expected %s, got %r" % (what, text))
    return parse


def _collect_params(pairs: Optional[List[str]]) -> dict:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SchemaError("--params expects key=value, got %r" % pair)
        key, _, val = pair.partition("=")
        out[key.strip()] = _parse_param_value(val.strip())
    return out


def cmd_catalog(args) -> int:
    if args.action == "list":
        _print({"command": "catalog list", "names": catalog.list_names()})
        return 0
    entry = catalog.get(args.name, **_collect_params(args.params))
    if args.action == "show":
        _print(jsonio.dump_algebra(entry.algebra, entry.j))
        return 0
    # crosscheck
    rep = catalog.brackets_from_group_law(entry, step=args.step,
                                          rank_tol=args.rank_tol)
    _print({
        "command": "catalog crosscheck",
        "entry": entry.name,
        "invariants": rep.invariants,
        "expected": rep.expected,
        "invariants_match": rep.invariants_match,
        "assoc_residual": rep.assoc_residual,
        "status": "pass" if rep.ok else "fail",
    })
    return 0 if rep.ok else 1


def cmd_verify_integrable(args) -> int:
    doc = jsonio.load_document(args.file)
    alg = jsonio.algebra_from_document(doc, validate=not args.no_validate)
    j = jsonio.j_from_document(doc)
    if j is None:
        raise SchemaError("%s: no \"J\" matrix in the document" % args.file)
    rep = cxstruct.is_integrable(alg, j)
    with open(args.file, "rb") as fh:
        digest = _sha256(fh.read())
    out = {
        "command": "verify-integrable",
        "input_digest": digest,
        "integrable": rep.ok,
    }
    if not rep.ok:
        out["witness_pair"] = [rep.witness[0] + 1, rep.witness[1] + 1]
        out["nijenhuis_value"] = [str(x) for x in rep.value]
    _print(out)
    return 0 if rep.ok else 1


def cmd_h1(args) -> int:
    alg = jsonio.load_algebra(args.file, validate=not args.no_validate)
    gens = jsonio.load_holonomy(args.holonomy) if args.holonomy else []
    action = cohomology.HolonomyAction(gens)
    result = cohomology.winkelmann_h1(alg, action)
    _print({"h1": result["h1"], "h1_lie": result["h1_lie"],
            "dimW": result["dimW"]})
    return 0


def cmd_classify_form(args) -> int:
    alg = jsonio.load_algebra(args.file, validate=not args.no_validate)
    j = jsonio.load_j_matrix(args.j_file, alg.dim)
    omega = jsonio.load_two_form(args.omega, alg.dim)
    try:
        verdict = classify(alg, j, omega)
    except NotIntegrable as e:
        _print({"command": "classify-form", "tag": "not_integrable",
                "error": str(e)})
        return 1
    _print({
        "command": "classify-form",
        "tag": verdict.tag,
        "signature": list(verdict.signature) if verdict.signature else None,
    })
    return 0


def cmd_verify_theorem9(args) -> int:
    found = expforms.theorem9_checks()
    checks = {
        "presentations_equal": found["presentations_equal"],
        "d_omega_zero": found["d_omega_zero"],
        "invariance_k1": all(found["invariance"].values()),
        "negative_half_integer": found["negative_half_integer"],
    }
    ok = all(checks.values())
    _print({
        "command": "verify-theorem9",
        "verdicts": [{"check_id": name, "status": "pass" if val else "fail"}
                     for name, val in checks.items()],
    })
    return 0 if ok else 1


def cmd_lattice(args) -> int:
    if args.action == "search":
        if args.bound < 0:
            raise ParamOutOfRange("bound must be nonnegative")
        entries = lattices.search_palindromic(args.bound)
        counts = {"3a": 0, "3b": 0, "excluded": 0}
        for e in entries:
            counts[e.classification] += 1
        head = {"command": "lattice search", "bound": args.bound,
                "counts": counts}
        if args.out:
            _write_out(args.out, lambda fh: jsonio.dump_search_entries(
                head, entries, fh))
            _print(dict(head, out=args.out))
        else:
            jsonio.dump_search_entries(head, entries, sys.stdout)
        return 0
    # build
    size = 4 if args.kind == "nonnilpotent" else 2
    matrix = jsonio.load_int_matrix(args.matrix, size)
    if args.kind == "nilpotent":
        spec = lattices.build_lattice_nilpotent(matrix)
    elif args.kind == "nonnilpotent":
        b = jsonio.load_int_matrix(args.b, size) if args.b else None
        if b is None and args.k is None:
            raise SchemaError("nonnilpotent build needs --b or --k")
        spec = lattices.build_lattice_nonnilpotent(matrix, b=b, k=args.k)
    else:
        if args.k is None:
            raise SchemaError("nakamura build needs --k")
        spec = lattices.nakamura_lattice(matrix, args.eps_im, args.k)
    _print(jsonio.dump_lattice_spec(spec))
    return 0


# sha256 of json.dumps(catalog.list_names()): the names are fixed in the
# code, and hashing them here would load OpenSSL into paper-report
INPUTS_DIGEST = \
    "178681017e1c63d150552aa76c972c0fdc4f88160130a95bbab8fff2390ce22a"


def cmd_paper_report(args) -> int:
    if args.out:    # an unwritable --out is refused before any check runs
        _write_out(args.out, lambda fh: None)
    seconds: Dict[str, float] = {}
    started = time.perf_counter()
    verdicts = report.run_all(seconds)
    elapsed = time.perf_counter() - started
    out = {
        "command": "paper-report",
        "inputs_digest": INPUTS_DIGEST,
        "verdicts": verdicts,
        "timings": {"total_seconds": elapsed, "checks": seconds},
    }
    if args.out:
        _write_out(args.out,
                   lambda fh: fh.write(jsonio.dumps_canonical(out) + "\n"))
    _print(out)
    return 0 if all(v["status"] == "pass" for v in verdicts) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solvkit",
        description="Exact toolkit for invariant complex and pseudo-Kahler "
                    "structures on low-dimensional solvable Lie algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("catalog", help="built-in algebra table")
    pcs = pc.add_subparsers(dest="action", required=True)
    pcs.add_parser("list")
    show = pcs.add_parser("show")
    show.add_argument("name")
    show.add_argument("--params", action="append", metavar="KEY=VALUE")
    cross = pcs.add_parser("crosscheck")
    cross.add_argument("name")
    cross.add_argument("--params", action="append", metavar="KEY=VALUE")
    # the central difference is trusted only near the default step
    cross.add_argument("--step", default=1e-4, type=_finite_float(
        lambda x: 1e-12 <= abs(x) <= 1e-1, "1e-12 <= |step| <= 1e-1"))
    cross.add_argument("--rank-tol", default=1e-6, type=_finite_float(
        lambda x: x >= 0, "a finite number >= 0"))
    pc.set_defaults(func=cmd_catalog)

    vi = sub.add_parser("verify-integrable",
                        help="Nijenhuis check of the J stored in a file")
    vi.add_argument("file")
    vi.add_argument("--no-validate", action="store_true")
    vi.set_defaults(func=cmd_verify_integrable)

    h1p = sub.add_parser("h1", help="first cohomology via the h1 formula")
    h1p.add_argument("file")
    h1p.add_argument("--holonomy")
    h1p.add_argument("--no-validate", action="store_true")
    h1p.set_defaults(func=cmd_h1)

    cf = sub.add_parser("classify-form",
                        help="classify an invariant 2-form against a J")
    cf.add_argument("file")
    cf.add_argument("--J", dest="j_file", required=True)
    cf.add_argument("--omega", required=True)
    cf.add_argument("--no-validate", action="store_true")
    cf.set_defaults(func=cmd_classify_form)

    t9 = sub.add_parser("verify-theorem9",
                        help="coordinate-calculus pipeline checks")
    t9.set_defaults(func=cmd_verify_theorem9)

    lat = sub.add_parser("lattice", help="lattice search and builders")
    lats = lat.add_subparsers(dest="action", required=True)
    search = lats.add_parser("search")
    search.add_argument("--bound", type=int, required=True)
    search.add_argument("--out")
    build = lats.add_parser("build")
    build.add_argument("--kind", required=True,
                       choices=["nilpotent", "nonnilpotent", "nakamura"])
    build.add_argument("--matrix", required=True)
    build.add_argument("--b")
    build.add_argument("--k", type=int)
    build.add_argument("--eps-im", type=_nonzero_rational, default="1")
    lat.set_defaults(func=cmd_lattice)

    pr = sub.add_parser("paper-report",
                        help="run the full acceptance suite")
    pr.add_argument("--out")
    pr.set_defaults(func=cmd_paper_report)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    # OpenBLAS reads it as numpy loads; its idle worker would spin ~60 ms
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownName, ParamOutOfRange, BoundTooLarge, NoGroupLaw) as e:
        sys.stderr.write("error: %s\n" % e)
        return USAGE_ERROR
    except SolvkitError as e:
        sys.stderr.write("input error: %s\n" % e)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
