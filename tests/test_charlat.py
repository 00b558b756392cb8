import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mfhh.charlat import AmbiguousGradingError, build_character_lattice

LATTICE_CASES = [
    ((2,), False),
    ((2,), True),
    ((3, 4), False),
    ((2, 2, 3), True),
    ((2, 2, 3, 5), True),
    ((2, 2, 3, 5), False),
    ((2, 2, 3, 5, 7), True),
]


@pytest.fixture(scope="module")
def lat2235():
    return build_character_lattice((2, 2, 3, 5), True)


def test_free_rank_is_one(lat2235):
    # construction would raise RankError otherwise; sanity-check chi too
    assert lat2235.chi.free != 0


def test_chi_quotient_order_matches_enumeration():
    for exps, stab in LATTICE_CASES:
        lat = build_character_lattice(exps, stab)
        assert lat.chi_quotient().free_rank == 0
        assert lat.chi_quotient().order == len(lat.enumerate_ker_chi())


def test_single_quadratic_unstabilized_lattice():
    # one relation in two generators: the lattice is Z with chi = 2*chi_1
    lat = build_character_lattice((2,), False)
    assert lat.torsion_mods == ()
    assert lat.chi == lat.variable_weight(1).scaled(2)


def test_kernel_order_2235(lat2235):
    assert len(lat2235.enumerate_ker_chi()) == 60
    assert lat2235.chi_quotient().order == 60


def test_weight_of_zero_monomial(lat2235):
    assert lat2235.weight_of_monomial({}).is_zero()


def test_variable_power_equals_chi(lat2235):
    for i, k in enumerate(lat2235.exponents, start=1):
        assert lat2235.weight_of_monomial({i: k}) == lat2235.chi


def test_all_duals_equal_minus_chi(lat2235):
    w = lat2235.weight_of_monomial({}, duals=(0, 1, 2, 3, 4))
    assert w == lat2235.zero_weight() - lat2235.chi


def test_stabilizer_degree_relation(lat2235):
    # chi_0 = chi - (chi_1 + ... + chi_N)
    total = lat2235.zero_weight()
    for i in range(1, 5):
        total = total + lat2235.variable_weight(i)
    assert lat2235.variable_weight(0) == lat2235.chi - total


def test_negative_exponent_rejected(lat2235):
    with pytest.raises(ValueError):
        lat2235.weight_of_monomial({3: -1})


@settings(deadline=None)
@given(
    a=st.dictionaries(st.integers(0, 4), st.integers(0, 6), max_size=5),
    b=st.dictionaries(st.integers(0, 4), st.integers(0, 6), max_size=5),
)
def test_weight_additivity(lat2235, a, b):
    total = {i: a.get(i, 0) + b.get(i, 0) for i in set(a) | set(b)}
    assert (lat2235.weight_of_monomial(a) + lat2235.weight_of_monomial(b)
            == lat2235.weight_of_monomial(total))


def test_is_multiple_of_chi_zero(lat2235):
    assert lat2235.is_multiple_of_chi(lat2235.zero_weight()) == 0


def test_is_multiple_of_chi_rejects_chi1(lat2235):
    chi1 = lat2235.variable_weight(1)
    assert lat2235.is_multiple_of_chi(chi1) is None
    # independent brute scan
    assert all(chi1 != lat2235.chi.scaled(u) for u in range(-10, 11))


def test_is_multiple_of_chi_two_chi1(lat2235):
    assert lat2235.is_multiple_of_chi(lat2235.variable_weight(1).scaled(2)) == 1


def test_is_multiple_round_trip():
    for exps, stab in LATTICE_CASES:
        lat = build_character_lattice(exps, stab)
        for u in range(-20, 21):
            assert lat.is_multiple_of_chi(lat.chi.scaled(u)) == u


def brute_a0(lat, u, partial, bound=1000):
    chi0 = lat.variable_weight(0)
    target = lat.chi.scaled(u)
    for a0 in range(bound + 1):
        if partial + chi0.scaled(a0) == target:
            return a0
    return None


def coset_a0(lat, u, partial):
    """The a0 >= 0 with partial + a0*chi_0 == u*chi, read off chi0_coset."""
    target = lat.chi.scaled(u)
    if lat.chi0_coset(partial) != lat.chi0_coset(target):
        return None
    a0, rest = divmod(target.free - partial.free, lat.variable_weight(0).free)
    assert rest == 0
    return a0 if a0 >= 0 else None


def test_chi0_coset_zero(lat2235):
    assert coset_a0(lat2235, 0, lat2235.zero_weight()) == 0


def test_chi0_coset_square_monomial(lat2235):
    # weight of z3^2 z4^2 needs exactly z0^2 to reach total degree zero
    partial = lat2235.weight_of_monomial({3: 2, 4: 2})
    assert coset_a0(lat2235, 0, partial) == 2
    assert brute_a0(lat2235, 0, partial) == 2


def test_chi0_coset_negative_solution_is_none(lat2235):
    assert coset_a0(lat2235, 5, lat2235.zero_weight()) is None
    assert brute_a0(lat2235, 5, lat2235.zero_weight(), bound=100) is None


def test_chi0_coset_torsion_rejection(lat2235):
    # z3 z4: the free coordinate alone would admit a0 = 1, but the torsion
    # coordinate does not match, so the cosets differ.
    partial = lat2235.weight_of_monomial({3: 1, 4: 1})
    chi0 = lat2235.variable_weight(0)
    assert (partial.free + 1 * chi0.free) == 0 == lat2235.chi.scaled(0).free
    assert lat2235.chi0_coset(partial) != lat2235.chi0_coset(lat2235.zero_weight())
    assert coset_a0(lat2235, 0, partial) is None
    assert brute_a0(lat2235, 0, partial) is None


def test_chi0_coset_agrees_with_brute_scan():
    # chi_0.free is -2, 16 and -142 on these lattices
    for exps in [(2, 2, 3), (2, 2, 3, 5), (2, 2, 3, 5, 7)]:
        lat = build_character_lattice(exps, True)
        chi0 = lat.variable_weight(0)
        n = len(exps)
        samples = [{}, {1: 1}, {3: 1}, {3: 2}, {1: 1, 2: 1, 3: 1},
                   {i: 1 for i in range(1, n + 1)}]
        for sample in samples:
            partial = lat.weight_of_monomial(sample)
            for a in range(-3, 4):
                assert lat.chi0_coset(partial + chi0.scaled(a)) == lat.chi0_coset(partial)
            for u in range(-4, 5):
                assert coset_a0(lat, u, partial) == brute_a0(lat, u, partial)


def test_chi0_coset_requires_stabilizer():
    lat = build_character_lattice((2, 2, 3, 5), False)
    with pytest.raises(ValueError):
        lat.chi0_coset(lat.zero_weight())


def test_reciprocal_sum_one_is_ambiguous():
    lat = build_character_lattice((2, 3, 6), True)
    assert lat.variable_weight(0).free == 0
    with pytest.raises(AmbiguousGradingError):
        lat.chi0_coset(lat.zero_weight())


def test_stabilizer_free_coordinate_tracks_reciprocal_sum():
    # nonzero exactly when 1/k_1 + ... + 1/k_N != 1
    assert build_character_lattice((3, 3, 3), True).variable_weight(0).free == 0
    assert build_character_lattice((2, 2, 3, 5), True).variable_weight(0).free != 0
    assert build_character_lattice((2, 3, 7), True).variable_weight(0).free != 0


def test_enumeration_order_and_identity():
    lat = build_character_lattice((2, 2, 3, 5), True)
    kernel = lat.enumerate_ker_chi()
    identity = kernel[0]
    assert all(q == 0 for q in identity.phases)
    assert identity.fixed == frozenset(lat.variables)
    assert identity.moving == frozenset()
    # lexicographic in the numerators of (q_1, ..., q_N)
    nums = [tuple(q * k for q, k in zip(g.phases[1:], lat.exponents)) for g in kernel]
    assert nums == sorted(nums)


def test_kernel_phase_conditions():
    for exps, stab in LATTICE_CASES:
        lat = build_character_lattice(exps, stab)
        for gamma in lat.enumerate_ker_chi():
            poly_phases = gamma.phases[1:] if stab else gamma.phases
            for q, k in zip(poly_phases, exps):
                assert 0 <= q < 1
                assert (q * k).denominator == 1
            if stab:
                assert gamma.phases[0] == (-sum(poly_phases)) % 1
            assert gamma.fixed == {v for v, q in zip(lat.variables, gamma.phases) if q == 0}
            assert gamma.fixed | gamma.moving == frozenset(lat.variables)
            assert not (gamma.fixed & gamma.moving)


def test_kernel_elements_share_phases_and_splits():
    """Elements share their Fractions and (fixed, moving) pairs, so a kernel
    of 20020 elements keeps less than 0.5 KB per element."""
    lat = build_character_lattice((2, 2, 5, 7, 11, 13), True)
    tracemalloc.start()
    try:
        kernel = lat.enumerate_ker_chi()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kernel) == 20020
    assert retained / len(kernel) < 512, f"{retained / len(kernel):.0f} bytes per element"


def test_fixed_point_free_count_matches_milnor_number():
    lat = build_character_lattice((2, 2, 3, 5), True)
    free_of_fixed = [g for g in lat.enumerate_ker_chi() if not g.fixed]
    assert len(free_of_fixed) == 8
    sample = next(g for g in free_of_fixed)
    assert sample.phases[1] == Fraction(1, 2) and sample.phases[2] == Fraction(1, 2)


def test_z0_fixed_elements_for_distinct_primes():
    # only the identity and the double sign flip fix the stabilizer
    lat = build_character_lattice((2, 2, 3, 5), True)
    z0_fixed = [g for g in lat.enumerate_ker_chi() if 0 in g.fixed]
    assert len(z0_fixed) == 2
    flips = [g for g in z0_fixed if g.moving]
    assert len(flips) == 1
    assert flips[0].fixed == frozenset({0, 3, 4})
    assert flips[0].phases == (0, Fraction(1, 2), Fraction(1, 2), 0, 0)


def test_invalid_exponents_rejected():
    with pytest.raises(ValueError):
        build_character_lattice((), True)
    with pytest.raises(ValueError):
        build_character_lattice((1, 2), False)
