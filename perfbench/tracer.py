"""An in-memory span tracer installed around solvkit from the outside.

`install()` replaces each traced function by a wrapper in every solvkit
module that binds it (a `from .polys import count_real_roots` makes a second
binding that patching `polys` alone would miss) and patches methods on their
class. solvkit's sources are not touched. Each call records a span
(name, request id, parent span, start, end); the spans stay in memory until
`dump()` writes them out.
"""

import collections
import functools
import json
import sys
import time

# layer -> functions, as "name" or "Class.method"
TRACED = {
    "linalg": ["mat_mul", "rref", "nullspace", "det", "rank", "char_poly",
               "min_poly", "solve_unique"],
    "liealg": ["LieAlgebra.nilradical_solvable", "LieAlgebra.bracket",
               "LieAlgebra.adjoint", "LieAlgebra.jacobi_check"],
    "cxstruct": ["is_integrable", "subalgebra_from_j", "j_from_subspace"],
    "cohomology": ["winkelmann_h1", "quotient_dim", "real_part_subspace",
                   "ce_d"],
    "pkforms": ["classify", "signature"],
    "expforms": ["ext_d", "pullback_translation"],
    "polys": ["is_squarefree", "count_real_roots", "has_unit_modulus_root",
              "factor_rational", "poly_gcd"],
    "lattices": ["search_palindromic", "classify_eigen",
                 "build_lattice_nonnilpotent", "nakamura_lattice"],
    "catalog": ["get", "brackets_from_group_law"],
    "jsonio": ["algebra_from_document", "dump_search_entries",
               "dumps_canonical"],
    "cli": ["main"],
}

# report checks, traced under their check number
REPORT_CHECKS = {
    "check_theorem4_catalog": "C1", "check_winkelmann_table": "C2",
    "check_example6": "C3", "check_theorem9_pipeline": "C4",
    "check_obstruction_and_r": "C5", "check_round_trip": "C6",
    "check_lattice_search": "C7", "check_group_laws": "C8",
    "check_example3": "C9", "check_determinism": "C10", "run_all": "run_all",
}

# Scalar operator methods counted (not spanned) as scalars.arith.calls
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def span_names():
    names = ["%s.%s" % (layer, f.split(".")[-1])
             for layer, fs in TRACED.items() for f in fs]
    return names + ["report.%s" % c for c in REPORT_CHECKS.values()]


def _algebra_key(alg):
    # structure constants identify the input of nilradical_solvable
    return (alg.dim, alg.form, tuple(
        (ij, tuple((k, c.re, c.im) for k, c in sorted(row.items())))
        for ij, row in sorted(alg._table.items())))


class Tracer:
    def __init__(self):
        self.spans = []          # [name, request, parent index, start, end]
        self.request = 0
        self._stack = []
        self.counters = collections.Counter()
        self.inputs = collections.defaultdict(set)

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self.inputs.clear()

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            rec = [name, self.request, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result
        return traced

    def _hooks(self, name):
        counters, inputs = self.counters, self.inputs
        if name == "linalg.mat_mul":
            def before(args, kwargs):
                a, b = args
                counters["linalg.mat_mul.mults"] += \
                    len(a) * len(b) * (len(b[0]) if b else 0)
            return before, None
        if name == "liealg.nilradical_solvable":
            return (lambda args, kwargs:
                    inputs[name].add(_algebra_key(args[0]))), None
        if name == "catalog.get":
            return (lambda args, kwargs: inputs[name].add(
                (args[0], tuple(sorted(kwargs.items()))))), None
        if name == "jsonio.dumps_canonical":
            def after(result):
                counters["jsonio.dump.bytes"] += len(result.encode())
            return None, after
        return None, None

    def install(self):
        """Wrap every traced function in every solvkit module binding it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "solvkit" or n.startswith("solvkit.")]
        targets = []
        for layer, fs in TRACED.items():
            for f in fs:
                targets.append((layer, f, "%s.%s" % (layer, f.split(".")[-1])))
        targets += [("report", f, "report.%s" % c)
                    for f, c in REPORT_CHECKS.items()]
        originals = {}
        for layer, f, name in targets:
            module = sys.modules["solvkit." + layer]
            if "." in f:
                cls_name, meth = f.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, *self._hooks(name)))
                continue
            orig = getattr(module, f)
            originals[id(orig)] = self.wrap(name, orig, *self._hooks(name))
        for m in modules:
            for attr, val in list(vars(m).items()):
                if id(val) in originals:
                    setattr(m, attr, originals[id(val)])
        self._count_scalar_ops(sys.modules["solvkit.scalars"].Scalar)

    def _count_scalar_ops(self, cls):
        counters = self.counters
        wrapped = {}
        for op in SCALAR_OPS:
            fn = cls.__dict__[op]
            if fn not in wrapped:
                def counted(*args, _fn=fn):
                    counters["scalars.arith.calls"] += 1
                    return _fn(*args)
                wrapped[fn] = functools.wraps(fn)(counted)
            setattr(cls, op, wrapped[fn])

    def dump(self, path):
        """Write spans (one JSON array per line) and counters to `path`."""
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "counters": dict(self.counters),
                "distinct": {k: len(v) for k, v in self.inputs.items()},
            }) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load(path):
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return head, spans


def summarize(head, spans):
    """Per-layer metrics from the spans and counters of one traced run."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[2] >= 0:
            child[rec[2]] += rec[4] - rec[3]
    calls = collections.Counter()
    self_s = collections.defaultdict(float)
    for t, rec in enumerate(spans):
        calls[rec[0]] += 1
        self_s[rec[0]] += rec[4] - rec[3] - child[t]
    metrics = {}
    for name in span_names():
        if name.startswith("report."):
            continue
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".self_s"] = (self_s[name], "s")
    # a check's time is its whole span under run_all, so C10 carries the two
    # extra core passes it makes
    checks = collections.defaultdict(float)
    for rec in spans:
        if rec[2] >= 0 and spans[rec[2]][0] == "report.run_all":
            checks[rec[0]] += rec[4] - rec[3]
    for c in REPORT_CHECKS.values():
        if c != "run_all":
            metrics["report.%s.s" % c] = (checks["report." + c], "s")
    counters, distinct = head["counters"], head["distinct"]
    for name in ("scalars.arith.calls", "linalg.mat_mul.mults",
                 "jsonio.dump.bytes"):
        metrics[name] = (counters.get(name, 0), "count" if
                         name != "jsonio.dump.bytes" else "bytes")
    for name in ("liealg.nilradical_solvable", "catalog.get"):
        n = calls[name]
        metrics[name + ".useful_ratio"] = (
            distinct.get(name, 0) / n if n else 0.0, "ratio")
    return metrics
