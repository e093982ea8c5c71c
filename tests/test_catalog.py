"""Built-in families: structure checks, parameters, and group laws."""

import random
import re
from fractions import Fraction

import pytest

from solvkit.catalog import (ETA_CHOICES, SURFACE_FAMILIES,
                             brackets_from_group_law, get, list_names)
from solvkit.cohomology import h1_lie
from solvkit.cxstruct import is_integrable
from solvkit.errors import ParamOutOfRange, UnknownName
from solvkit.liealg import MAX_DIM

LAW_NAMES = ("abelian", "hyperelliptic", "primary-kodaira", "example3",
             "abelian3", "nilpotent3", "nonnilpotent3")


def test_names_sorted_and_stable():
    names = list_names()
    assert names == sorted(names)
    assert set(SURFACE_FAMILIES) <= set(names)
    assert len(names) == 10


def test_every_entry_is_consistent():
    for name in list_names():
        entry = get(name)
        assert entry.algebra.jacobi_check().ok, name
        assert entry.algebra.unimodular_check(), name
        assert is_integrable(entry.algebra, entry.j).ok, name


def test_first_invariant_matches_metadata():
    for name in list_names():
        entry = get(name)
        key = "b1" if "b1" in entry.metadata else "h1"
        if key not in entry.metadata:
            continue
        assert h1_lie(entry.algebra) == entry.metadata[key], name


def test_tags():
    want = {
        "abelian": "nilpotent",
        "hyperelliptic": "rigid",
        "inoue-s0": "mixed",
        "primary-kodaira": "nilpotent",
        "secondary-kodaira": "rigid",
        "inoue-spm": "completely_solvable",
        "example3": "rigid",
    }
    for name, tag in want.items():
        assert tag in get(name).metadata["tags"], name


def test_unknown_name():
    with pytest.raises(UnknownName):
        get("torus-of-ghosts")


def test_eta_parameter():
    for eta in ETA_CHOICES:
        entry = get("hyperelliptic", eta=eta)
        assert entry.params["eta"] == eta
        assert entry.algebra.jacobi_check().ok
    with pytest.raises(ParamOutOfRange):
        get("hyperelliptic", eta=Fraction(1, 4))
    with pytest.raises(ParamOutOfRange):
        get("hyperelliptic", eta=Fraction(5))


def test_example3_parameters():
    entry = get("example3", l=2, k=3)
    assert entry.params["l"] == 2 and entry.params["k"] == 3
    assert entry.algebra.jacobi_check().ok
    with pytest.raises(ParamOutOfRange):
        get("example3", l=0, k=1)
    with pytest.raises(ParamOutOfRange):
        get("example3", l=1, k=-1)
    with pytest.raises(ParamOutOfRange):
        get("example3", l=1, k=1, s=(3,))   # needs one order per direction
    with pytest.raises(ParamOutOfRange):
        get("example3", l=1, k=1, s=(0, 4))


def test_dimension_parameters_stop_at_max_dim():
    assert get("abelian", dim=MAX_DIM).algebra.dim == MAX_DIM
    assert get("example3", l=1, k=MAX_DIM // 2 - 1).algebra.dim == MAX_DIM
    with pytest.raises(ParamOutOfRange):
        get("abelian", dim=MAX_DIM + 2)
    with pytest.raises(ParamOutOfRange):
        get("example3", l=2, k=MAX_DIM // 2 - 1)


def test_group_law_points():
    entry = get("nilpotent3")
    law = entry.group_law
    ident = (0j,) * 3
    assert law.mul(ident, ident) == ident
    rng = random.Random(21)
    for _ in range(20):
        p = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(3))
        q = law.inv(p)
        prod = law.mul(p, q)
        assert max(abs(c) for c in prod) < 1e-12


def test_recovered_brackets_match():
    for name in LAW_NAMES:
        entry = get(name)
        rep = brackets_from_group_law(entry)
        assert rep.invariants_match, name
        assert rep.assoc_residual <= 1e-9, name
        assert rep.invariants == rep.expected, name


@pytest.mark.parametrize("step, shown", [(1e-300, "1e-300"),
                                         (1e300, "1e+300")])
def test_group_law_step_with_a_non_finite_tensor_is_refused(step, shown):
    # h^2 underflows to 0; at 1e300 the Kodaira law itself overflows. The
    # CLI refuses both steps first; this guard is for library callers.
    message = "step %s gives a non-finite difference tensor" % shown
    with pytest.raises(ParamOutOfRange, match=re.escape(message)):
        brackets_from_group_law(get("primary-kodaira"), step=step)
