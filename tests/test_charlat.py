import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from mfhh.charlat import AmbiguousGradingError, Weight, build_character_lattice
from mfhh.intlat import cokernel

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
    # chi has degree 1, so its free coordinate L * 1 is nonzero
    assert lat2235.chi.free != 0
    for exps, stab in LATTICE_CASES:
        assert cokernel(build_character_lattice(exps, stab).relation_matrix, len(exps) + 1).free_rank == 1


def test_chi_quotient_order_matches_enumeration():
    for exps, stab in LATTICE_CASES:
        lat = build_character_lattice(exps, stab)
        assert lat.chi_quotient().free_rank == 0
        assert lat.chi_quotient().order == len(lat.enumerate_ker_chi())


@pytest.mark.parametrize("stabilized", [False, True])
@pytest.mark.parametrize("exps", [(4, 13, 14, 19), (2, 21, 23, 25)])
def test_chi_quotient_of_large_multisets(exps, stabilized):
    """|ker chi| = prod(k_i) on multisets whose Smith elimination once left
    the 64-bit window (the quotient by chi used to raise Overflow)."""
    quotient = build_character_lattice(exps, stabilized).chi_quotient()
    assert quotient.free_rank == 0 and quotient.order == math.prod(exps)


@pytest.mark.parametrize("exps, torsion", [
    ((3, 7, 8, 9, 10, 19), (6,)),
    ((2, 2, 101, 103, 107, 109), (2,)),
    ((2, 2, 3, 5, 7, 11, 13, 17, 19, 23), (2,)),
])
def test_torsion_of_large_multisets(exps, torsion):
    lat = build_character_lattice(exps, True)
    assert lat.torsion_mods == torsion
    assert lat.chi_quotient().order == math.prod(exps)


def multisets(n, lo, hi, budget):
    """Nondecreasing tuples of n integers in [lo, hi] with product <= budget."""
    if n == 0:
        yield ()
        return
    for k in range(lo, hi + 1):
        if k ** n > budget:
            break
        for rest in multisets(n - 1, k, hi, budget // k):
            yield (k, *rest)


def closed_form_torsion(exps):
    """The torsion of the lattice from the prime powers of the k_i: the
    kernel of prod(Z/k_i) -> Q/Z, n_i -> sum(n_i/k_i), drops, for each
    prime, one copy of its largest power.  The j-th largest invariant factor
    is the product over primes of their j-th largest remaining power."""
    powers = {}
    for k in exps:
        p = 2
        while k > 1:
            q = 1
            while k % p == 0:
                k //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    factors = [1] * len(exps)
    for qs in powers.values():
        for j, q in enumerate(sorted(qs, reverse=True)[1:]):
            factors[j] *= q
    return tuple(sorted(f for f in factors if f > 1))


@pytest.mark.parametrize("stabilized", [False, True])
def test_torsion_has_a_closed_form(stabilized):
    """torsion_mods equals the closed form on every multiset with N <= 5,
    k_i <= 30 and prod(k_i) <= 10^4."""
    cases = [exps for n in range(1, 6) for exps in multisets(n, 2, 30, 10**4)]
    assert len(cases) == 18610
    assert [exps for exps in cases if build_character_lattice(exps, stabilized).torsion_mods
            != closed_form_torsion(exps)] == []


def chi_i(lat, i):
    """The closed form chi_i = (L / k_i, e_i), written out from the exponents."""
    exps, lcm = lat.exponents, lat.chi.free
    return Weight(lcm // exps[i - 1], tuple(int(j == i) for j in range(1, len(exps) + 1)), exps)


def chi_0(lat):
    """The closed form chi_0 = (L - sum(L / k_i), (k_i - 1)_i)."""
    exps, lcm = lat.exponents, lat.chi.free
    return Weight(lcm - sum(lcm // k for k in exps), tuple(k - 1 for k in exps), exps)


def combination(lat, terms):
    """sum(c * g) over the (g, c) pairs, from subtraction and scaling alone:
    subtracting (-c) * g adds c * g."""
    w = lat.chi.scaled(0)
    for g, c in terms:
        w = w - g.scaled(-c)
    return w


def monomial(lat, exponents):
    """The weight sum(a_i * chi_i) of a monomial {i: a_i}, i = 0 for z_0."""
    return combination(lat, [(chi_0(lat) if i == 0 else chi_i(lat, i), a)
                             for i, a in exponents.items()])


def test_single_quadratic_unstabilized_lattice():
    # one relation in two generators: the lattice is Z with chi = 2*chi_1
    lat = build_character_lattice((2,), False)
    assert lat.torsion_mods == ()
    assert lat.chi == Weight(1, (1,), (2,)).scaled(2)


def test_kernel_order_2235(lat2235):
    assert len(lat2235.enumerate_ker_chi()) == 60
    assert lat2235.chi_quotient().order == 60


@pytest.mark.parametrize("stabilized", [False, True])
def test_closed_forms_satisfy_the_relations(stabilized):
    """k_i * chi_i == chi for the closed form chi_i on every multiset with
    N <= 5, 2 <= k_i <= 9 and prod(k_i) <= 300; stabilized, the closed form
    chi_0 = (L - sum(L / k_i), (k_i - 1)_i) lies in the zero chi_0-coset,
    or coset_key raises AmbiguousGrading when that free coordinate is 0."""
    cases = [exps for n in range(1, 6) for exps in multisets(n, 2, 9, 300)]
    assert len(cases) == 272
    for exps in cases:
        lat = build_character_lattice(exps, stabilized)
        for i, k in enumerate(exps, start=1):
            assert chi_i(lat, i).scaled(k) == lat.chi, (exps, i)
        if not stabilized:
            continue
        if sum(Fraction(1, k) for k in exps) == 1:
            with pytest.raises(AmbiguousGradingError):
                lat.coset_key(*chi_0(lat)[:2])
            continue
        assert lat.coset_key(*chi_0(lat)[:2]) == lat.coset_key(0, (0,) * len(exps)), exps


def test_variable_power_equals_chi(lat2235):
    for i, k in enumerate(lat2235.exponents, start=1):
        assert monomial(lat2235, {i: k}) == lat2235.chi


def test_all_duals_equal_minus_chi(lat2235):
    zero = lat2235.chi.scaled(0)
    w = zero - chi_0(lat2235)
    for j in (1, 2, 3, 4):
        w = w - chi_i(lat2235, j)
    assert w == zero - lat2235.chi


def test_stabilizer_degree_relation(lat2235):
    # chi_0 = chi - (chi_1 + ... + chi_N)
    w = lat2235.chi
    for i in range(1, 5):
        w = w - chi_i(lat2235, i)
    assert w == chi_0(lat2235)


def _multiple_of_chi(lat, w):
    """The u with w = u*chi, or None: chi is the only generator with a
    nonzero free coordinate, so u is read off it and the torsion checked."""
    u, r = divmod(w.free, lat.chi.free)
    return u if r == 0 and w == lat.chi.scaled(u) else None


def test_is_multiple_of_chi_zero(lat2235):
    assert _multiple_of_chi(lat2235, lat2235.chi.scaled(0)) == 0


def test_is_multiple_of_chi_rejects_chi1(lat2235):
    chi1 = chi_i(lat2235, 1)
    assert _multiple_of_chi(lat2235, chi1) is None
    # independent brute scan
    assert all(chi1 != lat2235.chi.scaled(u) for u in range(-10, 11))


def test_is_multiple_of_chi_two_chi1(lat2235):
    assert _multiple_of_chi(lat2235, chi_i(lat2235, 1).scaled(2)) == 1


def test_is_multiple_round_trip():
    for exps, stab in LATTICE_CASES:
        lat = build_character_lattice(exps, stab)
        for u in range(-20, 21):
            assert _multiple_of_chi(lat, lat.chi.scaled(u)) == u


def test_multiples_of_chi_follow_the_integer_rule():
    """sum(c_i chi_i) + c_0 chi_0 equals u*chi for some u iff c_i = c_0
    (mod k_i) for every i, and then u = (sum(c_i L/k_i) + c_0 f_0) / L with
    L = lcm(k_i) and f_0 = L - sum(L/k_i): the weight algebra agrees with
    the rule the oracle tests in plain integers."""
    for exps, stab in LATTICE_CASES:
        if not stab:
            continue
        lat = build_character_lattice(exps, True)
        lcm = math.lcm(*exps)
        f0 = lcm - sum(lcm // k for k in exps)
        for c0, *cs in itertools.product(range(-2, 3), repeat=len(exps) + 1):
            w = monomial(lat, dict(enumerate((c0, *cs))))
            total = sum(c * (lcm // k) for c, k in zip(cs, exps)) + c0 * f0
            rule = all((c - c0) % k == 0 for c, k in zip(cs, exps))
            assert (w == lat.chi.scaled(total // lcm)) == rule, (exps, c0, cs)
            assert total % lcm == 0 or not rule


def brute_a0(lat, u, partial, bound=1000):
    chi0 = chi_0(lat)
    target = lat.chi.scaled(u)
    for a0 in range(bound + 1):
        if target - chi0.scaled(a0) == partial:
            return a0
    return None


def coset_key(lat, w):
    return lat.coset_key(w.free, w.torsion)


def coset_a0(lat, u, partial):
    """The a0 >= 0 with partial + a0*chi_0 == u*chi, read off coset_key."""
    target = lat.chi.scaled(u)
    if coset_key(lat, partial) != coset_key(lat, target):
        return None
    a0, rest = divmod(target.free - partial.free, chi_0(lat).free)
    assert rest == 0
    return a0 if a0 >= 0 else None


def test_chi0_coset_zero(lat2235):
    assert coset_a0(lat2235, 0, lat2235.chi.scaled(0)) == 0


def test_chi0_coset_square_monomial(lat2235):
    # weight of z3^2 z4^2 needs exactly z0^2 to reach total degree zero
    partial = monomial(lat2235, {3: 2, 4: 2})
    assert coset_a0(lat2235, 0, partial) == 2
    assert brute_a0(lat2235, 0, partial) == 2


def test_chi0_coset_negative_solution_is_none(lat2235):
    zero = lat2235.chi.scaled(0)
    assert coset_a0(lat2235, 5, zero) is None
    assert brute_a0(lat2235, 5, zero, bound=100) is None


def test_chi0_coset_torsion_rejection(lat2235):
    # z3 z4: the free coordinate alone would admit a0 = 1, but the torsion
    # coordinate does not match, so the cosets differ.
    partial = monomial(lat2235, {3: 1, 4: 1})
    chi0 = chi_0(lat2235)
    assert (partial.free + 1 * chi0.free) == 0 == lat2235.chi.scaled(0).free
    assert coset_key(lat2235, partial) != coset_key(lat2235, lat2235.chi.scaled(0))
    assert coset_a0(lat2235, 0, partial) is None
    assert brute_a0(lat2235, 0, partial) is None


def test_chi0_coset_agrees_with_brute_scan():
    # chi_0.free = L*q_0 is -2, -16 and -142 on these lattices
    for exps in [(2, 2, 3), (2, 2, 3, 5), (2, 2, 3, 5, 7)]:
        lat = build_character_lattice(exps, True)
        chi0 = chi_0(lat)
        n = len(exps)
        samples = [{}, {1: 1}, {3: 1}, {3: 2}, {1: 1, 2: 1, 3: 1},
                   {i: 1 for i in range(1, n + 1)}]
        for sample in samples:
            partial = monomial(lat, sample)
            # the key is the coordinates of partial - q*chi_0, q = partial.free // chi_0.free
            rest = partial - chi0.scaled(partial.free // chi0.free)
            assert coset_key(lat, partial) == (rest.free, *rest.torsion)
            for a in range(-3, 4):
                assert coset_key(lat, partial - chi0.scaled(a)) == coset_key(lat, partial)
            for u in range(-4, 5):
                assert coset_a0(lat, u, partial) == brute_a0(lat, u, partial)


def test_chi0_coset_requires_stabilizer():
    lat = build_character_lattice((2, 2, 3, 5), False)
    with pytest.raises(ValueError):
        coset_key(lat, lat.chi.scaled(0))


def test_reciprocal_sum_one_is_ambiguous():
    lat = build_character_lattice((2, 3, 6), True)
    assert chi_0(lat).free == 0
    with pytest.raises(AmbiguousGradingError):
        coset_key(lat, lat.chi.scaled(0))


def test_stabilizer_free_coordinate_tracks_reciprocal_sum():
    # nonzero exactly when 1/k_1 + ... + 1/k_N != 1, and coset_key raises when it is 0
    with pytest.raises(AmbiguousGradingError):
        build_character_lattice((3, 3, 3), True).coset_key(0, (0, 0, 0))
    for exps in [(2, 2, 3, 5), (2, 3, 7)]:
        lat = build_character_lattice(exps, True)
        assert chi_0(lat).free != 0
        assert coset_key(lat, lat.chi.scaled(0)) == (0, *(0 for _ in exps))


@pytest.mark.parametrize("stabilized", [False, True])
def test_chi0_free_is_f0_or_ambiguous(stabilized):
    """chi0_free reads f_0 = L - sum(L/k_i), chi_0's free coordinate, in
    either variant, and raises AmbiguousGrading when it is 0."""
    for exps in [exps for exps, _ in LATTICE_CASES] + [(2, 3, 7, 43)]:
        lat = build_character_lattice(exps, stabilized)
        lcm = math.lcm(*exps)
        assert lat.chi0_free() == lcm - sum(lcm // k for k in exps) == chi_0(lat).free
    for exps in [(2, 3, 6), (3, 3, 3), (2, 4, 4)]:
        with pytest.raises(AmbiguousGradingError, match="stabilizer degree is torsion"):
            build_character_lattice(exps, stabilized).chi0_free()


COORDINATE_MULTISETS = [
    exps
    for n in range(1, 6)
    for exps in itertools.combinations_with_replacement(range(2, 10), n)
    if math.prod(exps) <= 150
]


def in_relation_span(decomp, v):
    """Whether the integer row vector v lies in the row span of the relation
    matrix M, read off sympy's U * M * V = D: the span of M is that of
    D * V^-1, so v lies in it iff every entry of v * V is divisible by the
    matching diagonal entry of D (and is 0 beyond the diagonal or where it
    is 0)."""
    d, _, vmat = decomp
    image = [sum(v[i] * int(vmat[i, j]) for i in range(vmat.rows)) for j in range(vmat.cols)]
    diag = [int(d[i, i]) for i in range(min(d.rows, d.cols))]
    return all(x % diag[j] == 0 if j < len(diag) and diag[j] else x == 0
               for j, x in enumerate(image))


@pytest.mark.parametrize("stabilized", [False, True])
def test_closed_form_coordinates_match_the_smith_normal_form(stabilized):
    """Two integer combinations of chi_1, ..., chi_N, chi have equal weights
    iff their difference lies in the span of the relations, judged from
    sympy's Smith normal form decomposition, on every small lattice.  The
    free coordinates are L times the degrees, L = lcm(k_i), so their signs
    follow the degrees."""
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_decomp

    rng = random.Random(20211)
    for exps in COORDINATE_MULTISETS:
        lat = build_character_lattice(exps, stabilized)
        n, lcm = len(exps), math.lcm(*exps)
        gens = [chi_i(lat, i) for i in range(1, n + 1)] + [lat.chi]
        relations = lat.relation_matrix
        decomp = smith_normal_decomp(Matrix(relations), domain=ZZ)
        d, u, vmat = decomp
        assert u * Matrix(relations) * vmat == d and abs(u.det()) == abs(vmat.det()) == 1, exps

        def weight(v):
            return combination(lat, zip(gens, v))

        assert lat.chi.free == lcm, exps
        for _ in range(20):
            x = [rng.randint(-30, 30) for _ in range(n + 1)]
            # Half the pairs differ by relations alone, so both answers occur.
            y = list(x)
            for row in relations:
                c = rng.randint(-3, 3)
                y = [a + c * b for a, b in zip(y, row)]
            if rng.random() < 0.5:
                y = [a + rng.randint(-2, 2) for a in y]
            diff = [a - b for a, b in zip(x, y)]
            assert (weight(x) == weight(y)) == in_relation_span(decomp, diff), (exps, x, y)


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
    with pytest.raises(ValueError, match="need at least one exponent"):
        build_character_lattice((), True)
    with pytest.raises(ValueError, match="every exponent must be >= 2"):
        build_character_lattice((1, 2), False)
    # Refused, not cut to the lattice of (2, 3).
    with pytest.raises(ValueError, match="every exponent must be an integer"):
        build_character_lattice([2.7, 3.2], True)
