"""Built-in families: structure checks, parameters, and group laws."""

import random
from fractions import Fraction

import pytest

from solvkit.catalog import (ETA_CHOICES, SURFACE_FAMILIES,
                             brackets_from_group_law, get, group_law_eval,
                             list_names)
from solvkit.cohomology import h1_lie
from solvkit.cxstruct import is_integrable
from solvkit.errors import NoGroupLaw, ParamOutOfRange, UnknownName

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


def test_group_law_points():
    entry = get("nilpotent3")
    law = entry.group_law
    ident = law.identity()
    assert law.mul(ident, ident) == ident
    rng = random.Random(21)
    for _ in range(20):
        p = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                  for _ in range(law.n_points))
        assert law.check_point(p) is None or True  # raises on bad input only
        q = law.inv(p)
        prod = law.mul(p, q)
        assert max(abs(c) for c in prod) < 1e-12
    with pytest.raises(ValueError):
        law.check_point((0j,))              # wrong arity


def test_group_law_eval_and_absence():
    entry = get("abelian3")
    ident = entry.group_law.identity()
    assert group_law_eval(entry, ident, ident) == ident
    with pytest.raises(NoGroupLaw):
        group_law_eval(get("inoue-s0"), (0j,), (0j,))


def test_recovered_brackets_match():
    for name in LAW_NAMES:
        entry = get(name)
        rep = brackets_from_group_law(entry)
        assert rep.invariants_match, name
        assert rep.assoc_residual <= 1e-9, name
        assert rep.invariants == rep.expected, name
