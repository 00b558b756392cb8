"""The stratified engine against the element-by-element views of ker chi:
closed-form moving-set multiplicities against enumeration, and dimension
tables against the bounded oracle, which walks every element, and against
the residue rule, which needs no Jacobi basis."""

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from math import ceil, floor, lcm, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfhh.hhengine
from mfhh.charlat import AmbiguousGradingError, CharacterLattice, build_character_lattice
from mfhh.diagpoly import DiagonalPolynomial
from mfhh.hhengine import HochschildEngine, oracle_bounds

MULTISETS = [
    exps
    for n in range(1, 6)
    for exps in itertools.combinations_with_replacement(range(2, 10), n)
    if prod(exps) <= 300
]
SMALL_MULTISETS = [exps for exps in MULTISETS if len(exps) <= 4]


@pytest.mark.parametrize("stabilized", [False, True])
def test_moving_set_counts_match_enumeration(stabilized):
    for exps in SMALL_MULTISETS:
        lat = build_character_lattice(exps, stabilized)
        counts = lat.moving_set_counts()
        assert counts == dict(Counter(g.moving for g in lat.enumerate_ker_chi())), exps
        assert sum(counts.values()) == lat.chi_quotient().order, exps


def test_both_stabilizations_share_one_lattice():
    """chi_0 = chi - sum(chi_i) already lies in the unstabilized lattice, so
    adjoining z_0 changes no presentation."""
    for exps in SMALL_MULTISETS:
        plain, stab = (build_character_lattice(exps, s) for s in (False, True))
        assert stab.relation_matrix == plain.relation_matrix, exps
        assert stab.torsion_mods == plain.torsion_mods, exps
        assert stab.chi_quotient() == plain.chi_quotient(), exps


def residue_table(exps, stabilized, k_min, k_max):
    """dim HH^k over [k_min, k_max] by the residue rule, per moving set, and
    the largest a_0 = c_0 + shift of a term inside the window (0 if none).

    With c_i = a_i for fixed and -1 for moving variables, and c_0 = a_0 -
    shift when z_0 is fixed, -1 when it moves and 0 unstabilized, the weight
    sum(c_i chi_i) + c_0 chi_0 equals u*chi iff c_i = c_0 (mod k_i) for every
    i.  So c_0 names the monomial (a_i = c_0 mod k_i, a Jacobi power iff it
    is at most k_i - 2) and u = c_0 q_0 + sum_F a_i/k_i - sum_M 1/k_j, with
    q_0 = 1 - sum(1/k_i).

    Stabilized, c_0 runs over [-shift, a0_bound - shift] with a0_bound from
    ``oracle_bounds``, cut to the c_0 whose c_0 q_0 lies within N of some u
    with 2u in [k_min - N - 2, k_max], since 2u = k - #M - shift and
    c_0 q_0 - u = sum_M 1/k_j - sum_F a_i/k_i is in (-N, N].  That cut keeps
    a window far from 0 from scanning every a_0 below it.
    """
    q0 = 1 - sum(Fraction(1, k) for k in exps)
    a0_bound = oracle_bounds(exps, stabilized, k_min, k_max)[0]
    n = len(exps)
    if stabilized:
        near = sorted(bound / q0 for bound in (Fraction(k_min - n - 2, 2) - n, Fraction(k_max, 2) + n))
        c0_min, c0_max = ceil(near[0]), floor(near[1])
    dims = dict.fromkeys(range(k_min, k_max + 1), 0)
    max_a0 = 0
    for moving, mult in build_character_lattice(exps, stabilized).moving_set_counts().items():
        if not stabilized:
            choices = [(0, 0)]
        elif 0 in moving:
            choices = [(-1, 0)]
        else:
            choices = [(c0, shift) for shift in (0, 1)
                       for c0 in range(max(-shift, c0_min), min(a0_bound - shift, c0_max) + 1)]
        moved = [exps[j - 1] for j in moving if j]
        fixed = [k for i, k in enumerate(exps, start=1) if i not in moving]
        for c0, shift in choices:
            if any((c0 + 1) % k for k in moved) or any(c0 % k > k - 2 for k in fixed):
                continue
            u = (c0 * q0 + sum(Fraction(c0 % k, k) for k in fixed)
                 - sum(Fraction(1, k) for k in moved))
            assert u.denominator == 1
            k = 2 * int(u) + len(moving) + shift
            if k in dims:
                dims[k] += mult
                max_a0 = max(max_a0, c0 + shift)
    return [dims[k] for k in range(k_min, k_max + 1)], max_a0


def test_residue_rule_matches_table():
    """The residue rule against the engine on every multiset with N <= 4,
    k <= 7 and prod(k) <= 200, both stabilizations, over [-2N-2, 2N+2]."""
    instances = 0
    for size in range(1, 5):
        for exps in itertools.combinations_with_replacement(range(2, 8), size):
            if prod(exps) > 200:
                continue
            for stabilized in (False, True):
                k_min, k_max = -2 * size - 2, 2 * size + 2
                engine = HochschildEngine(DiagonalPolynomial(exps, stabilized))
                try:
                    report = engine.table(k_min, k_max)
                except AmbiguousGradingError:
                    continue
                instances += 1
                assert ([r.dim for r in report.dimensions], report.max_a0) == \
                    residue_table(exps, stabilized, k_min, k_max), (exps, stabilized)
    assert instances == 238


def _force_path(monkeypatch, walk):
    """Make every stabilized table walk c_0 (walk=True) or search the exponent box."""
    monkeypatch.setattr(mfhh.hhengine, "_walk_is_shorter", lambda walk_len, box_len: walk)


@pytest.mark.parametrize("window", ["near", "far"])
def test_walk_and_box_agree_with_the_residue_rule(monkeypatch, window):
    """With the choice forced either way, every stabilized multiset with
    N <= 5, k <= 9 and prod(k) <= 300 gives the residue rule's dims and
    max a_0 over [-2N-12, 2N+12] or [10^4, 10^4 + 8], and both paths give
    the same witnesses where prod(k) <= 60."""
    checked = 0
    for exps in MULTISETS:
        n = len(exps)
        k_min, k_max = (-2 * n - 12, 2 * n + 12) if window == "near" else (10**4, 10**4 + 8)
        witnesses = prod(exps) <= 60
        try:
            expected = residue_table(exps, True, k_min, k_max)
        except AmbiguousGradingError:
            continue
        reports = []
        for walk in (True, False):
            _force_path(monkeypatch, walk)
            reports.append(HochschildEngine(DiagonalPolynomial(exps, True)).table(k_min, k_max, witnesses))
        walked, boxed = reports
        assert walked == boxed, (exps, k_min)
        assert ([r.dim for r in walked.dimensions], walked.max_a0) == expected, (exps, k_min)
        checked += 1
    assert checked == 266


@pytest.mark.parametrize("walk", [True, False])
@pytest.mark.parametrize("exps", [(3, 3, 3), (2, 3, 6), (2, 4, 4)])
def test_torsion_stabilizer_raises_on_either_path(monkeypatch, exps, walk):
    _force_path(monkeypatch, walk)
    engine = HochschildEngine(DiagonalPolynomial(exps, True))
    for witnesses in (False, True):
        with pytest.raises(AmbiguousGradingError,
                           match=re.escape(f"stabilizer degree is torsion for exponents {exps}")):
            engine.table(-4, 4, witnesses)


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, exps, stabilized", [
    # |ker chi| = 10^5, which the oracle's scan budget refuses
    ("hh_10x5_stabilized_wide.csv", (10, 10, 10, 10, 10), True),
    ("hh_2235_stabilized_witnesses.json", (2, 2, 3, 5), True),
    ("hh_233_stabilized_witnesses.txt", (2, 3, 3), True),
    ("hh_223_witnesses.json", (2, 2, 3), False),
    ("hh_237_stabilized_witnesses.json", (2, 3, 7), True),
    ("hh_3344_stabilized_witnesses.json", (3, 3, 4, 4), True),
    ("hh_446_stabilized_witnesses.txt", (4, 4, 6), True),
    ("hh_23743_stabilized_wide.csv", (2, 3, 7, 43), True),
])
def test_residue_rule_matches_golden_files(name, exps, stabilized):
    """The residue rule reproduces the dimensions stored in each golden file."""
    text = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        dims = {row["k"]: row["dim"] for row in json.loads(text)["hh"]}
    elif name.endswith(".csv"):
        dims = dict(tuple(map(int, line.split(","))) for line in text.splitlines()[1:])
    else:  # table rows are "k dim"; witness lines start with "gamma"
        dims = {int(k): int(d) for k, d in re.findall(r"^ *(-?\d+) +(\d+)$", text, re.M)}
    ks = sorted(dims)
    assert ks == list(range(ks[0], ks[-1] + 1))
    assert residue_table(exps, stabilized, ks[0], ks[-1])[0] == [dims[k] for k in ks]


def test_moving_set_counts_need_no_enumeration(monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated ker chi")

    monkeypatch.setattr(CharacterLattice, "enumerate_ker_chi", refuse)
    exps = (2, 2, 5, 7, 11, 13, 17, 19)
    counts = build_character_lattice(exps, True).moving_set_counts()
    assert sum(counts.values()) == prod(exps)
    assert counts[frozenset()] == 1


@pytest.mark.parametrize("exps, sets", [((2, 2, 3, 5, 7, 11, 13), 128), ((2, 2, 101, 103, 107, 109), 44)],
                         ids=["2,2,3,5,7,11,13", "2,2,101,103,107,109"])
def test_moving_set_counts_match_numerator_tuples(exps, sets):
    """The elements moving exactly the polynomial variables P are the
    numerator tuples n_j in [1, k_j - 1] on P, and z_0 stays fixed iff
    sum(n_j / k_j) is an integer.  Those tuples, counted one by one for every
    P with prod(k_j - 1, j in P) <= 10^5, are moving_set_counts' entries for
    P and for P with z_0."""
    big = lcm(*exps)
    counts = build_character_lattice(exps, True).moving_set_counts()
    checked = 0
    for size in range(len(exps) + 1):
        for p in itertools.combinations(range(1, len(exps) + 1), size):
            if prod(exps[j - 1] - 1 for j in p) > 10**5:
                continue
            # n_j * L / k_j for n_j in [1, k_j - 1]: the phase sum is integral iff L divides theirs.
            phases = [range(big // exps[j - 1], big, big // exps[j - 1]) for j in p]
            integral = Counter(sum(t) % big == 0 for t in itertools.product(*phases))
            moving = frozenset(p)
            assert counts.get(moving, 0) == integral[True], (exps, p)
            assert counts.get(moving | {0}, 0) == integral[False], (exps, p)
            checked += 1
    assert checked == sets


# Products up to 400 keep the oracle's element walk to tens of milliseconds per example.
MAX_ORDER = 400


@st.composite
def exponent_lists(draw, max_order=MAX_ORDER):
    """Unsorted exponent lists with N <= 5, 2 <= k <= 9 and prod(k) <= max_order."""
    n = draw(st.integers(1, 5))
    exps = []
    for left in range(n, 0, -1):
        room = max_order // (prod(exps) * 2 ** (left - 1))
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


@st.composite
def windowed_instances(draw):
    """(exponents, stabilized, k_min, k_max) with N <= 5, k <= 9, prod(k) <= 300
    and a window inside [-(2N + 12), 2N + 12]."""
    exps = tuple(draw(exponent_lists(max_order=300)))
    reach = 2 * len(exps) + 12
    k_min = draw(st.integers(-reach, reach))
    return exps, draw(st.booleans()), k_min, draw(st.integers(k_min, reach))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instance=windowed_instances())
def test_table_residue_rule_and_oracle_agree(instance):
    """The engine, the residue rule and the oracle under its a-priori bounds
    count the same dimensions, and the engine's max a_0 is the largest a_0
    the residue rule accepts inside the window, so an odd twin one degree
    past k_max or an even term at k_min - 1 cannot raise it; where chi_0 is
    torsion, all three refuse."""
    exps, stabilized, k_min, k_max = instance
    engine = HochschildEngine(DiagonalPolynomial(exps, stabilized))
    try:
        bounds = oracle_bounds(exps, stabilized, k_min, k_max)
    except AmbiguousGradingError:
        with pytest.raises(AmbiguousGradingError):
            engine.table(k_min, k_max)
        with pytest.raises(AmbiguousGradingError):
            engine.bruteforce_table(0, 0)
        return
    report = engine.table(k_min, k_max)
    dims = [r.dim for r in report.dimensions]
    assert (dims, report.max_a0) == residue_table(exps, stabilized, k_min, k_max)
    counts, _ = engine.bruteforce_table(*bounds)
    assert dims == [counts.get(k, 0) for k in range(k_min, k_max + 1)]
