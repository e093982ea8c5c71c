"""solvkit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a solvkit checkout; the program is imported from
./src. Workloads (see perfbench/README.md for why each was chosen):

  paper-report       one `solvkit paper-report --out FILE` process
  lattice-search-50  one `solvkit lattice search --bound 50 --out FILE` process
  algebra-batch      a seeded stream of CLI requests on generated algebras,
                     fed through solvkit.cli.main in one worker process

Every answer is checked against a reference that does not come from solvkit.
The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. With --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones of a traced run plus the tracing overhead.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("paper-report", "lattice-search-50", "algebra-batch")
SETUP_SAMPLES = 11
LATTICE_BOUND = 50
# algebra-batch: its unit of work (wall_s, cpu_s) is the first 100 timed
# requests, and a run makes at least 100 so that req_p90_ms has at least 10
# samples beyond it
UNIT_REQUESTS = 100
# every child is killed once the run has lasted this long
RUN_LIMIT_S = 170.0
GOLDEN = os.path.join(HERE, "golden", "paper-report-verdicts.json")
ENV = dict(os.environ, PYTHONPATH=SRC)


class Run:
    """Work directory, deadline, and the failures found by the checks."""

    def __init__(self, seed, seconds, corrupt):
        self.started = time.perf_counter()
        self.seed = seed
        self.seconds = seconds
        self.corrupt = corrupt
        self.attempted = 0
        self.failures = []
        self.keep = os.path.join(ROOT, ".perfbench")
        self.work = os.path.join(self.keep, "run-%d" % os.getpid())
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def path(self, name):
        return os.path.join(self.work, name)

    def check(self, what, problems):
        """Count one operation; it failed if `problems` is not empty."""
        self.attempted += 1
        if problems:
            self.failures.append("%s: %s" % (what, "; ".join(problems[:3])))

    def corrupt_once(self):
        """True the first time it is asked when --corrupt is given."""
        hit, self.corrupt = self.corrupt, False
        return hit

    def spawn(self, argv, name):
        """Run a child to completion; return (exit code, wall s, cpu s, peak RSS MB).

        stdout and stderr go to files NAME.out / NAME.err in the work dir.
        """
        limit = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(self.path(name + ".out"), "wb") as out, \
                open(self.path(name + ".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=ENV, cwd=ROOT, stdout=out,
                                    stderr=err)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
                ru.ru_maxrss / 1024.0)

    def worker(self, job, name):
        job = dict(job, src=SRC)
        path = self.path(name + ".job.json")
        with open(path, "w") as fh:
            json.dump(job, fh)
        return self.spawn([sys.executable, os.path.join(HERE, "worker.py"),
                           path], name)

    def read(self, name):
        with open(self.path(name)) as fh:
            return fh.read()


def percentile(values, q):
    """Nearest-rank percentile: at least (1 - q) * n samples lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- set-up -------------------------------------------------------------------


def measure_setup(run):
    """Median wall time of fresh interpreters that import solvkit.cli."""
    times = []
    for t in range(SETUP_SAMPLES):
        code, wall, _, _ = run.spawn(
            [sys.executable, "-c", "import solvkit.cli"], "setup%d" % t)
        run.check("import solvkit.cli", [] if code == 0 else
                  ["exit %s: %s" % (code, run.read("setup%d.err" % t)[-200:])])
        times.append(wall)
    return statistics.median(times)


# -- checks -------------------------------------------------------------------


def check_paper_report(run, name, code, report_path):
    problems = []
    if code != 1:
        problems.append("exit code %s, expected 1 (only C4 red)" % code)
    try:
        with open(report_path) as fh:
            doc = json.load(fh)
        printed = json.loads(run.read(name + ".out"))
    except (OSError, ValueError) as e:
        run.check("paper-report", problems + ["unreadable output: %s" % e])
        return
    verdicts = json.dumps(doc.get("verdicts"), indent=2) + "\n"
    if run.corrupt_once():
        verdicts = verdicts.replace('"pass"', '"fail"', 1)
    with open(GOLDEN) as fh:
        if verdicts != fh.read():
            problems.append("verdicts differ from the golden file")
    if printed != doc:
        problems.append("stdout report differs from the --out file")
    run.check("paper-report", problems)


def check_lattice(run, name, code, out_path):
    problems = [] if code == 0 else ["exit code %s, expected 0" % code]
    try:
        with open(out_path) as fh:
            doc = json.load(fh)
        printed = json.loads(run.read(name + ".out"))
    except (OSError, ValueError) as e:
        run.check("lattice search", problems + ["unreadable output: %s" % e])
        return
    entries = doc.get("entries") or []
    if entries and run.corrupt_once():
        entries[0]["classification"] = "3b"
    counts = {"3a": 0, "3b": 0, "excluded": 0}
    want = []
    r = range(-LATTICE_BOUND, LATTICE_BOUND + 1)
    for p in r:
        for q in r:
            cls, reason = oracle.lattice_rule(p, q)
            counts[cls] += 1
            want.append({
                "p": p, "q": q, "coeffs": [str(c) for c in (1, p, q, p, 1)],
                "companion": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
                              [-1, -p, -q, -p]],
                "classification": cls, "reason": reason})
    if len(entries) != len(want):
        problems.append("%d entries, expected %d" % (len(entries), len(want)))
    bad = [(w["p"], w["q"]) for e, w in zip(entries, want) if e != w]
    if bad:
        problems.append("%d entries differ from the integer rule, first "
                        "(p, q) = %s" % (len(bad), bad[0]))
    head = {"command": "lattice search", "bound": LATTICE_BOUND,
            "counts": counts}
    if {k: doc.get(k) for k in head} != head:
        problems.append("header or counts differ: %s" % doc.get("counts"))
    if printed != dict(head, out=out_path):
        problems.append("stdout summary differs")
    run.check("lattice search", problems)


def check_request(run, res):
    expect = res["expect"]
    problems = []
    if res["code"] != expect["code"]:
        problems.append("exit code %s, expected %s" % (res["code"],
                                                       expect["code"]))
    try:
        got = json.loads(res["stdout"])
    except ValueError:
        got = None
    if got is not None and run.corrupt_once():
        got[next(iter(got))] = "corrupted"
    if got != expect["out"]:
        problems.append("answer %s, expected %s" % (got, expect["out"]))
    if problems and res["stderr"]:
        problems.append("stderr: %s" % res["stderr"][-300:])
    run.check("%s %s" % (res["kind"], os.path.basename(res["argv"][1])),
              problems)


# -- workloads ----------------------------------------------------------------


def unit_metrics(units):
    """End-to-end metrics of workloads whose request is one CLI process."""
    walls = [u[1] for u in units]
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(u[2] for u in units),
        "peak_rss_mb": statistics.median(u[3] for u in units),
        "req_per_s": len(walls) / sum(walls),
        "req_p50_ms": 1000 * statistics.median(walls),
        "req_p90_ms": 1000 * percentile(walls, 0.9),
        "samples": len(walls),
    }


def process_workload(run, cli_argv, out_name, check, traced):
    """Run CLI processes back to back while the next one fits in --seconds."""
    out_path = run.path(out_name)
    units = []
    t0 = time.perf_counter()
    while True:
        name = "unit%d" % len(units)
        argv = cli_argv + ["--out", out_path]
        unit = run.spawn([sys.executable, "-m", "solvkit.cli"] + argv, name)
        check(run, name, unit[0], out_path)
        units.append(unit)
        elapsed = time.perf_counter() - t0
        if traced or elapsed + unit[1] > run.seconds:
            break
    metrics = unit_metrics(units)
    if traced:
        spans = run.path("spans.jsonl")
        unit = run.worker({"mode": "cli", "argv": argv, "spans": spans},
                          "traced")
        check(run, "traced", unit[0], out_path)
        metrics["traced_wall_s"] = unit[1]
        metrics["spans"] = spans
    return metrics


def algebra_batch(run, traced):
    name = "batch"
    job = {"mode": "batch", "seed": run.seed, "seconds": run.seconds,
           "min_requests": UNIT_REQUESTS, "max_requests": 10 ** 6,
           "workdir": run.path("docs"), "results": run.path("results.json")}
    code, _, _, rss = run.worker(job, name)
    results = _batch_results(run, name, code, job["results"])
    timed = [r for r in results if not r["warmup"]]
    lat = [r["latency"] for r in timed]
    unit = timed[:UNIT_REQUESTS]
    metrics = {
        "wall_s": sum(r["latency"] for r in unit),
        "cpu_s": sum(r["cpu"] for r in unit),
        "peak_rss_mb": rss,
        "req_per_s": len(lat) / sum(lat),
        "req_p50_ms": 1000 * statistics.median(lat),
        "req_p90_ms": 1000 * percentile(lat, 0.9),
        "samples": len(lat),
    }
    if traced:
        # the same first UNIT_REQUESTS requests, so counts repeat exactly
        spans = run.path("spans.jsonl")
        job = dict(job, max_requests=UNIT_REQUESTS, spans=spans,
                   workdir=run.path("docs-traced"),
                   results=run.path("results-traced.json"))
        code = run.worker(job, "traced")[0]
        results = _batch_results(run, "traced", code, job["results"])
        metrics["traced_wall_s"] = sum(r["latency"] for r in results
                                       if not r["warmup"])
        metrics["spans"] = spans
    return metrics


def _batch_results(run, name, code, path):
    if code != 0:
        run.check("algebra-batch worker", ["exit %s: %s" % (
            code, run.read(name + ".err")[-300:])])
        return []
    with open(path) as fh:
        results = json.load(fh)
    for res in results:
        check_request(run, res)
    return results


WORKLOAD_RUNNERS = {
    "paper-report": lambda run, traced: process_workload(
        run, ["paper-report"], "report.json", check_paper_report, traced),
    "lattice-search-50": lambda run, traced: process_workload(
        run, ["lattice", "search", "--bound", str(LATTICE_BOUND)],
        "lattice.json", check_lattice, traced),
    "algebra-batch": algebra_batch,
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
             "setup_s": "s", "req_per_s": "1/s", "req_p50_ms": "ms",
             "req_p90_ms": "ms"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="self-check: corrupt the first answer the run "
                         "checks; it must be counted as failed")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "solvkit", "cli.py")):
        sys.stderr.write("error: no solvkit sources under %s\n" % SRC)
        return 2

    run = Run(args.seed, args.seconds, args.corrupt)
    try:
        setup_s = measure_setup(run)
        m = WORKLOAD_RUNNERS[args.workload](run, bool(args.trace))
        if args.trace:
            layer = tracer.summarize(*tracer.load(m["spans"]))
            kept = os.path.join(run.keep, "spans-%s-%d.jsonl"
                                % (args.workload, args.seed))
            shutil.copyfile(m["spans"], kept)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    m["setup_s"] = setup_s
    failed = len(run.failures)
    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for name, unit in E2E_UNITS.items():
        print("  %-12s %14.6f %s" % (name, m[name], unit))
    print("  requests timed: %d (req_p90_ms has %d samples above it)"
          % (m["samples"], m["samples"] - math.ceil(0.9 * m["samples"])))
    print("  failed_frac  %d / %d = %.6f"
          % (failed, run.attempted, failed / run.attempted))
    for f in run.failures[:10]:
        print("  FAILED " + f)
    if args.trace:
        layer["tracing_overhead_s"] = (m["traced_wall_s"] - m["wall_s"], "s")
        print("  traced wall_s %.6f s; spans kept in %s"
              % (m["traced_wall_s"], os.path.relpath(kept, ROOT)))
        for name, (value, unit) in layer.items():
            print("  %-44s %16.6f %s" % (name, value, unit))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": m[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
