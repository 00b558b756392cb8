"""The stratified engine against the element-by-element views of ker chi:
closed-form moving-set multiplicities against enumeration, and dimension
tables against the bounded oracle, which walks every element."""

import itertools
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfhh.charlat import AmbiguousGradingError, CharacterLattice, build_character_lattice
from mfhh.diagpoly import DiagonalPolynomial
from mfhh.hhengine import HochschildEngine, oracle_bounds

SMALL_MULTISETS = [
    exps
    for n in range(1, 5)
    for exps in itertools.combinations_with_replacement(range(2, 10), n)
    if prod(exps) <= 300
]


@pytest.mark.parametrize("stabilized", [False, True])
def test_moving_set_counts_match_enumeration(stabilized):
    for exps in SMALL_MULTISETS:
        lat = build_character_lattice(exps, stabilized)
        counts = lat.moving_set_counts()
        assert counts == dict(Counter(g.moving for g in lat.enumerate_ker_chi())), exps
        assert sum(counts.values()) == lat.chi_quotient().order, exps


def test_moving_set_counts_need_no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated ker chi")

    monkeypatch.setattr(CharacterLattice, "enumerate_ker_chi", refuse)
    exps = (2, 2, 5, 7, 11, 13, 17, 19)
    counts = build_character_lattice(exps, True).moving_set_counts()
    assert sum(counts.values()) == prod(exps)
    assert counts[frozenset()] == 1


# Products up to 400 keep the oracle's element walk to tens of milliseconds per example.
MAX_ORDER = 400


@st.composite
def exponent_lists(draw):
    """Unsorted exponent lists with N <= 5, 2 <= k <= 9 and prod(k) <= MAX_ORDER."""
    n = draw(st.integers(1, 5))
    exps = []
    for left in range(n, 0, -1):
        room = MAX_ORDER // (prod(exps) * 2 ** (left - 1))
        exps.append(draw(st.integers(2, min(9, room))))
    return draw(st.permutations(exps))


@settings(max_examples=150, deadline=None)
@given(exps=exponent_lists(), stabilized=st.booleans())
def test_table_matches_oracle_under_a_priori_bounds(exps, stabilized):
    engine = HochschildEngine(DiagonalPolynomial(tuple(exps), stabilized))
    n = len(exps) - 1
    k_min, k_max = -2 * n - 2, 2 * n + 2
    try:
        report = engine.table(k_min, k_max)
    except AmbiguousGradingError:
        with pytest.raises(AmbiguousGradingError):
            oracle_bounds(exps, stabilized, k_min, k_max)
        with pytest.raises(AmbiguousGradingError):
            engine.bruteforce_table(0, 0)
        return
    a0_bound, u_bound = oracle_bounds(exps, stabilized, k_min, k_max)
    assert report.max_a0 <= a0_bound
    counts, _ = engine.bruteforce_table(a0_bound, u_bound)
    assert [r.dim for r in report.dimensions] == [counts.get(k, 0) for k in range(k_min, k_max + 1)]
