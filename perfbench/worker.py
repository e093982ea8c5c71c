"""Child process of the benchmark: runs solvkit in-process, optionally traced.

    python3 perfbench/worker.py JOB.json

JOB is written by run.py. Mode "cli" runs one `solvkit.cli.main(argv)` and
exits with its code. Mode "batch" runs the algebra-batch stream closed loop
with one client and writes every request's exit code, stdout, latency and
CPU time to JOB["results"]. With JOB["spans"] set, the tracer is installed
before anything runs and its spans are written there at the end.
"""

import contextlib
import io
import json
import os
import sys
import time
import traceback

import batch
import tracer


def _import_solvkit(src):
    import solvkit.cli
    here = os.path.dirname(os.path.abspath(solvkit.cli.__file__))
    if os.path.dirname(here) != os.path.abspath(src):
        raise SystemExit("solvkit was imported from %s, not from %s"
                         % (here, src))
    return solvkit.cli


def _run_request(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    except Exception:
        code = None
        err.write(traceback.format_exc())
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "latency": latency, "cpu": cpu}


def run_batch(cli, job, trace):
    requests = batch.stream(job["seed"], job["workdir"])
    done = []
    for _ in batch.KINDS:
        req = next(requests)
        done.append(dict(_run_request(cli, req["argv"]), warmup=True, **req))
    if trace is not None:
        trace.reset()
    busy = 0.0
    timed = 0

    def finished():
        return timed >= job["max_requests"] or (
            timed >= job["min_requests"] and busy >= job["seconds"])

    while not finished():
        # a whole block is generated before any of it is timed
        for req in [next(requests) for _ in batch.BLOCK]:
            if trace is not None:
                trace.request = timed + 1
            res = _run_request(cli, req["argv"])
            done.append(dict(res, warmup=False, **req))
            busy += res["latency"]
            timed += 1
            if finished():
                break
    with open(job["results"], "w") as fh:
        json.dump(done, fh)
    return 0


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    cli = _import_solvkit(job["src"])
    trace = None
    if job.get("spans"):
        trace = tracer.Tracer()
        trace.install()
    try:
        if job["mode"] == "cli":
            return cli.main(job["argv"])
        return run_batch(cli, job, trace)
    finally:
        if trace is not None:
            trace.dump(job["spans"])


if __name__ == "__main__":
    sys.exit(main())
