"""solvkit against the benchmark's independent oracle on R x_D R^k.

perfbench/oracle.py answers from the definitions in plain Fraction
arithmetic, and perfbench/batch.py draws the algebras, J and 2-forms of
the algebra-batch workload; neither is edited here. Every seeded draw of
dim 4 and 6 goes through the API routes that the integer adjoints, the
nilradical validation and the sparse CE differential serve.
"""

import random

import pytest

from solvkit.cohomology import Cochain, HolonomyAction, winkelmann_h1
from solvkit.cxstruct import AlmostComplexStructure, is_integrable
from solvkit.liealg import LieAlgebra
from solvkit.pkforms import classify

DRAWS = 6        # per dim and value set; the whole file takes about 1 s


def _semidirect(d):
    """R x_D R^k in oracle.structure's basis: [e_0, e_(j+1)] = D e_(j+1)."""
    k = len(d)
    return LieAlgebra(k + 1, {(0, j + 1): {i + 1: d[i][j] for i in range(k)}
                              for j in range(k)})


def _streams(perfbench):
    """(dim, rng, values) for each dim and each of batch's two value sets."""
    for dim in (4, 6):
        for t, values in enumerate((perfbench.batch.INT_VALUES,
                                    perfbench.batch.HALF_VALUES)):
            yield dim, random.Random(1000 * dim + t), values


def test_winkelmann_h1_matches_oracle(perfbench):
    for dim, rng, values in _streams(perfbench):
        for t in range(DRAWS):
            d = perfbench.batch._random_d(rng, dim - 1, t % 3 != 2, values)
            got = winkelmann_h1(_semidirect(d), HolonomyAction([]))
            assert got == perfbench.oracle.h1_answer(d), d


def test_is_integrable_matches_oracle_witness(perfbench):
    batch, oracle = perfbench.batch, perfbench.oracle
    for dim, rng, values in _streams(perfbench):
        for t in range(DRAWS):
            if t % 2:
                d = batch._random_d(rng, dim - 1, rng.random() < 0.5, values)
                jm = batch._random_j(rng, dim)
            else:
                d, jm = batch._integrable_pair(rng, dim, values)
            rep = is_integrable(_semidirect(d), AlmostComplexStructure(jm))
            witness, value = oracle.nijenhuis_witness(oracle.structure(d), jm)
            assert (rep.witness, rep.value) == (witness, value), (d, jm)


def test_classify_matches_oracle(perfbench):
    batch, oracle = perfbench.batch, perfbench.oracle
    tags = set()
    for dim, rng, values in _streams(perfbench):
        for _ in range(DRAWS):
            d, jm = batch._integrable_pair(rng, dim, values)
            coeffs = batch._random_form(rng, d, jm)
            got = classify(_semidirect(d), AlmostComplexStructure(jm),
                           Cochain(dim, 2, coeffs))
            code, tag, sig = oracle.classify_answer(d, jm, coeffs)
            assert code == 0
            assert (got.tag, got.signature) == (
                tag, None if sig is None else tuple(sig)), (d, jm, coeffs)
            tags.add(tag)
    assert tags == {"degenerate", "incompatible", "not_closed", "pseudo_kahler"}
