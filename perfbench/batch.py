"""The seeded request stream of the algebra-batch workload.

Every request is a CLI invocation on freshly generated JSON files: an
algebra R x_D R^k (dim 4 or 6) with small integer or half-integer D, and for
some kinds a J matrix and a 2-form. Each request carries the answer the
oracle derives from the construction, so solvkit's output is checked against
something solvkit did not compute.
"""

import functools
import hashlib
import json
import os
import random
from fractions import Fraction

import oracle

INT_VALUES = [Fraction(v) for v in (-2, -1, 1, 2)]
HALF_VALUES = [Fraction(v, 2) for v in (-3, -1, 1, 3)] + [Fraction(-1), Fraction(1)]

# One block of the stream: every block has the same kinds in the same order,
# so every run times the same mix whatever the seed. Sorted by cost the kinds
# fall into groups: dim-4 verify-integrable and classify-form (lower 30 %),
# dim-6 verify-integrable and classify-form and dim-4 h1 (next 55 %) and
# dim-6 h1 (top 15 %). That puts req_p50_ms inside the middle group, where
# the read path (parse, Jacobi check, Nijenhuis check) is a large share, and
# req_p90_ms inside the dim-6 h1 group, rather than on a group boundary.
BLOCK = (
    ("verify-integrable", 4), ("h1", 6), ("classify-form", 6),
    ("verify-integrable", 6), ("h1", 4), ("classify-form", 4),
    ("verify-integrable", 4), ("classify-form", 6), ("h1", 4),
    ("verify-integrable", 6), ("h1", 6), ("classify-form", 4),
    ("verify-integrable", 4), ("classify-form", 6), ("h1", 4),
    ("verify-integrable", 6), ("h1", 6), ("classify-form", 6),
    ("classify-form", 4), ("h1", 4),
)
KINDS = sorted(set(BLOCK))


def _fmt(x):
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
        x.numerator, x.denominator)


def _nilpotency_index(d):
    """The least e with D^e = 0, for a nilpotent D."""
    p, e = d, 1
    while any(any(row) for row in p):
        p, e = oracle.matmul(p, d), e + 1
    return e


def _random_d(rng, k, nilpotent, values):
    """A random D with a fixed number of nonzero entries.

    A nilpotent D fills 60 % of the cells above the diagonal, is conjugated
    by a random permutation and has nilpotency index k - 1; any other D
    fills 45 % of all cells. h1's cost grows with the number of nonzero
    entries and with the index; left to chance, they would make a dim-6 h1
    request, and so req_p90_ms, cost up to twice as much on one seed as on
    another.
    """
    cells = [(i, j) for i in range(k) for j in range(k)
             if i < j or not nilpotent]
    count = round((0.6 if nilpotent else 0.45) * len(cells))
    while True:
        d = [[Fraction(0)] * k for _ in range(k)]
        for i, j in rng.sample(cells, count):
            d[i][j] = rng.choice(values)
        perm = list(range(k))
        rng.shuffle(perm)
        d = [[d[perm[i]][perm[j]] for j in range(k)] for i in range(k)]
        if not nilpotent:
            if not oracle.is_nilpotent(d):
                return d
        elif _nilpotency_index(d) == k - 1:
            return d


def _random_j(rng, n):
    """A signed pairing of basis vectors: J e_a = +-e_b, J e_b = -+e_a."""
    order = list(range(n))
    rng.shuffle(order)
    jm = [[0] * n for _ in range(n)]
    for t in range(0, n, 2):
        a, b = order[t], order[t + 1]
        s = rng.choice((1, -1))
        jm[b][a] = s
        jm[a][b] = -s
    return jm


def _algebra_doc(d, jm=None):
    k = len(d)
    brackets = []
    for j in range(k):
        out = {str(i + 2): _fmt(d[i][j]) for i in range(k) if d[i][j]}
        if out:
            brackets.append({"i": 1, "j": j + 2, "out": out})
    doc = {"dim": k + 1, "field": "real", "brackets": brackets}
    if jm is not None:
        doc["J"] = [[_fmt(x) for x in row] for row in jm]
    return doc


def _random_form(rng, d, jm):
    """A 2-form that is closed and J-compatible, closed only, or neither."""
    n = len(jm)
    c = oracle.structure(d)
    closed = oracle.closed_rows(c, n)
    compat = oracle.compatible_rows(jm, n)
    mode = rng.choice(("both", "both", "closed", "compatible"))
    rows = {"both": closed + compat, "closed": closed,
            "compatible": compat}[mode]
    basis = oracle.nullspace(rows, len(oracle.pairs(n)))
    while True:
        vec = [Fraction(0)] * len(oracle.pairs(n))
        for b in basis:
            f = rng.choice((-2, -1, 0, 1, 2))
            vec = [x + f * y for x, y in zip(vec, b)]
        if any(vec):
            break
    return {p: x for p, x in zip(oracle.pairs(n), vec) if x}


def _write(path, doc):
    data = json.dumps(doc).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


@functools.lru_cache(maxsize=None)
def _integrable_basis(jkey, n):
    """Basis of the D that make J integrable (the null space of D -> N).

    The Nijenhuis tensor is linear in the structure constants, which are
    linear in D. J is a signed pairing, so there are few distinct J (given
    as the flat tuple `jkey`) and each basis is computed once.
    """
    jm = [list(jkey[r * n:(r + 1) * n]) for r in range(n)]
    k = n - 1
    cols = []
    for i in range(k):
        for j in range(k):
            c = oracle.structure([[int((r, s) == (i, j)) for s in range(k)]
                                  for r in range(k)])
            cols.append([x for a, b in oracle.pairs(n)
                         for x in oracle.nijenhuis_at(c, jm, a, b)])
    return oracle.nullspace([list(r) for r in zip(*cols)], k * k)


def _integrable_d(rng, jm, values):
    """A random nonzero D making J integrable, or None when only D = 0 does."""
    basis = _integrable_basis(tuple(x for row in jm for x in row), len(jm))
    if not basis:
        return None
    k = len(jm) - 1
    while True:
        vec = [Fraction(0)] * (k * k)
        for b in basis:
            if rng.random() < 0.7:
                f = rng.choice(values)
                vec = [x + f * y for x, y in zip(vec, b)]
        if any(vec):
            return [vec[i * k:(i + 1) * k] for i in range(k)]


def _integrable_pair(rng, dim, values):
    while True:
        jm = _random_j(rng, dim)
        d = _integrable_d(rng, jm, values)
        if d is not None:
            return d, jm


def make_request(rng, kind, dim, workdir, name, variant):
    """Write the files of one request; return its argv and expected answer.

    `variant` counts earlier requests of the same kind and dim. It cycles
    two nilpotent D to one non-nilpotent D for h1, integrable and random J
    for verify-integrable, and integer and half-integer constants for all,
    so that every run sees the same mix of cases. Non-nilpotent D cost about
    twice as much in h1; with two in three nilpotent, req_p90_ms (a third of
    the way into the dim-6 h1 group) lies mid-way through the nilpotent
    ones rather than at the step between the two.
    """
    values = INT_VALUES if variant // 2 % 2 == 0 else HALF_VALUES
    base = os.path.join(workdir, name)
    if kind == "h1":
        d = _random_d(rng, dim - 1, variant % 3 != 2, values)
        _write(base + ".json", _algebra_doc(d))
        return ([kind, base + ".json"],
                {"code": 0, "out": oracle.h1_answer(d)})
    if kind == "verify-integrable":
        if variant % 2 == 0:
            d, jm = _integrable_pair(rng, dim, values)
        else:
            d = _random_d(rng, dim - 1, rng.random() < 0.5, values)
            jm = _random_j(rng, dim)
        digest = _write(base + ".json", _algebra_doc(d, jm))
        witness, value = oracle.nijenhuis_witness(oracle.structure(d), jm)
        out = {"command": "verify-integrable", "input_digest": digest,
               "integrable": witness is None}
        if witness is not None:
            out["witness_pair"] = [witness[0] + 1, witness[1] + 1]
            out["nijenhuis_value"] = [_fmt(x) for x in value]
        return [kind, base + ".json"], {"code": 0 if witness is None else 1,
                                        "out": out}
    # classify-form gets an integrable J, so that the answer is a
    # classification rather than the integrability failure covered above
    d, jm = _integrable_pair(rng, dim, values)
    coeffs = _random_form(rng, d, jm)
    _write(base + ".json", _algebra_doc(d))
    _write(base + ".J.json", [[_fmt(x) for x in row] for row in jm])
    _write(base + ".omega.json", [{"i": a + 1, "j": b + 1, "coeff": _fmt(x)}
                                  for (a, b), x in sorted(coeffs.items())])
    code, tag, sig = oracle.classify_answer(d, jm, coeffs)
    return ([kind, base + ".json", "--J", base + ".J.json",
             "--omega", base + ".omega.json"],
            {"code": code, "out": {"command": "classify-form", "tag": tag,
                                   "signature": sig}})


def stream(seed, workdir):
    """One warm-up request per kind, then timed requests without end."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    seen = {}

    def request(kind, dim, name):
        variant = seen.get((kind, dim), 0)
        seen[(kind, dim)] = variant + 1
        argv, expect = make_request(rng, kind, dim, workdir, name, variant)
        return {"argv": argv, "expect": expect, "kind": "%s/%d" % (kind, dim)}

    for t, (kind, dim) in enumerate(KINDS):
        yield request(kind, dim, "warm%d" % t)
    seen.clear()
    t = 0
    while True:
        yield request(*BLOCK[t % len(BLOCK)], "req%d" % t)
        t += 1
