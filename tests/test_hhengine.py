import hashlib
import itertools
import math
from fractions import Fraction

import pytest

import mfhh.hhengine
from mfhh.charlat import AmbiguousGradingError, CharacterLattice, Weight
from mfhh.diagpoly import DiagonalPolynomial, jacobi_basis, milnor_number
from mfhh.hhengine import (
    HochschildEngine,
    oracle_bounds,
    verify_proposition,
)


@pytest.fixture(scope="module")
def engine2235():
    return HochschildEngine(DiagonalPolynomial((2, 2, 3, 5), True))


# -- witnesses -----------------------------------------------------------------

def test_witness_count_always_matches_dimension(engine2235):
    for k in range(-6, 7):
        row = engine2235.dimension(k, witnesses=True)
        assert row.dim == len(row.witnesses)


def test_odd_summand_requires_fixed_stabilizer(engine2235):
    for k in range(-8, 9):
        for w in engine2235.dimension(k, witnesses=True).witnesses or ():
            if w.summand == "odd":
                assert 0 in engine2235.kernel[w.gamma_index].fixed


def test_odd_summand_occurs_somewhere(engine2235):
    found = []
    for k in range(-8, 9):
        for w in engine2235.dimension(k, witnesses=True).witnesses or ():
            if w.summand == "odd":
                found.append(w)
    assert found  # the stabilizer line does produce odd contributions


def _chi_multiple(exps, cs, c0):
    """The u with sum(c_i chi_i) + c_0 chi_0 = u chi, or None.  Exact
    fractions give the degree (chi_i -> 1/k_i, chi_0 -> 1 - sum(1/k_i),
    chi -> 1); the exponent residues c_i - c_0 (mod k_i) must vanish."""
    if any((c - c0) % k for c, k in zip(cs, exps)):
        return None
    u = sum(Fraction(c, k) for c, k in zip(cs, exps)) + c0 * (1 - sum(Fraction(1, k) for k in exps))
    assert u.denominator == 1
    return int(u)


def test_witness_weight_identities(engine2235):
    exps = engine2235.polynomial.exponents
    for k in range(-6, 7):
        for w in engine2235.dimension(k, witnesses=True).witnesses:
            gamma = engine2235.kernel[w.gamma_index]
            shift = 1 if w.summand == "odd" else 0
            a0, *a = w.exponents
            assert all(w.exponents[i] == 0 for i in gamma.moving)
            cs = [-1 if i in gamma.moving else x for i, x in enumerate(a, start=1)]
            c0 = -1 if 0 in gamma.moving else a0 - shift
            assert _chi_multiple(exps, cs, c0) == w.u
            assert w.degree == 2 * w.u + len(gamma.moving) + shift == k


def test_witnesses_are_canonically_ordered(engine2235):
    row = engine2235.dimension(3, witnesses=True)
    keys = [w[:3] for w in row.witnesses]
    assert keys == sorted(keys)


@pytest.mark.parametrize("exps, stabilized", [
    ((2, 2, 3, 5), True), ((2, 3, 7), True), ((4, 4, 6), True), ((2, 2, 3), False)])
def test_witnesses_carry_their_group_element(exps, stabilized):
    """Each witness holds the element of ker(chi) its index names, and each
    row's witnesses are in their natural tuple order."""
    engine = HochschildEngine(DiagonalPolynomial(exps, stabilized))
    report = engine.table(-8, 8, witnesses=True)
    assert sum(len(row.witnesses) for row in report.dimensions) > 0
    for row in report.dimensions:
        assert row.witnesses == tuple(sorted(row.witnesses))
        for w in row.witnesses:
            assert w.gamma == engine.kernel[w.gamma_index]


# -- ranges ---------------------------------------------------------------------

def test_range_single_top_degree(engine2235):
    report = engine2235.table(3, 3)
    assert {row.degree: row.dim for row in report.dimensions} == {3: 8}
    assert report.kerchi_order == 60
    assert report.milnor == 8


def test_range_degree_zero(engine2235):
    report = engine2235.table(0, 0)
    assert report.dimension(0).dim == engine2235.dimension(0).dim == 2


def test_empty_range_rejected(engine2235):
    with pytest.raises(ValueError):
        engine2235.table(1, 0)


def test_range_223_with_oracle_middle_degree():
    engine = HochschildEngine(DiagonalPolynomial((2, 2, 3), True))
    report = engine.table(0, 2)
    d1 = engine.bruteforce_table(50, 20)[0].get(1, 0)
    assert {row.degree: row.dim for row in report.dimensions} == {0: 2, 1: d1, 2: 2}


# -- oracle ----------------------------------------------------------------------

@pytest.mark.parametrize("exps, stabilized, k_min, k_max", [
    # Not among criterion 4's instances; its z_0-fixing strata walk c_0.
    ((2, 2, 3, 5, 7, 11), True, -10, 10),
    # One-degree windows whose terms are all odd twins of the degree below:
    # twelve at k = 5, and one at k = -1 on the paper family, where q_0 < 0.
    ((2, 3, 7), True, 5, 5),
    ((2, 2, 3, 5), True, -1, -1),
    # Unstabilized: the oracle's c_0 = 0 branch.
    ((3, 4, 5, 6, 7), False, -10, 10),
], ids=["2,2,3,5,7,11 stabilized", "2,3,7 stabilized k=5", "2,2,3,5 stabilized k=-1",
        "3,4,5,6,7"])
def test_oracle_equivalence(exps, stabilized, k_min, k_max):
    engine = HochschildEngine(DiagonalPolynomial(exps, stabilized))
    report = engine.table(k_min, k_max)
    counts, _ = engine.bruteforce_table(*oracle_bounds(exps, stabilized, k_min, k_max))
    for row in report.dimensions:
        assert counts.get(row.degree, 0) == row.dim


def test_oracle_does_not_read_the_strata():
    """Wrong stratum multiplicities change the engine's table but not the
    oracle's counts."""
    exps = (2, 2, 3, 5)
    bounds = oracle_bounds(exps, True, -6, 6)
    engine = HochschildEngine(DiagonalPolynomial(exps, True))
    table, oracle = engine.table(-6, 6), engine.bruteforce_table(*bounds)
    broken = HochschildEngine(DiagonalPolynomial(exps, True))
    counts = broken.lattice.moving_set_counts()
    broken.lattice.moving_set_counts = lambda: {m: 2 * mult for m, mult in counts.items()}
    assert broken.table(-6, 6).dimensions != table.dimensions
    assert broken.bruteforce_table(*bounds) == oracle


def test_oracle_needs_no_weight_algebra(monkeypatch):
    """The oracle tests the degree equation in plain integers: with the
    weight arithmetic and the lattice's weight methods broken, it returns
    the table's dimensions, and the counts (digest of the sorted items) and
    max a_0 that the oracle computing with weights returned."""
    cases = [
        ((2, 2, 3, 5), True, -6, 6, 13, "db27197a97fb632f"),
        ((2, 3, 7), True, -8, 8, 253, "f5a733187f47a18e"),
        ((3, 3, 4, 4), True, -10, 10, 59, "323a4314ba9f629d"),
        ((4, 4, 6), True, -8, 8, 20, "8fd75b8b3427500e"),
        ((2, 2, 3), False, -4, 4, 0, "4c461d4a0ab0fe42"),
    ]
    engines = [HochschildEngine(DiagonalPolynomial(exps, stab)) for exps, stab, *_ in cases]
    tables = [engine.table(k_min, k_max) for engine, (_, _, k_min, k_max, *_) in zip(engines, cases)]

    def broken(*args, **kwargs):
        raise AssertionError("weight algebra used")

    for name in ("__sub__", "scaled", "is_zero"):
        monkeypatch.setattr(Weight, name, broken)
    for name in ("coset_key", "chi_quotient"):
        monkeypatch.setattr(CharacterLattice, name, broken)
    monkeypatch.setattr(CharacterLattice, "chi", property(broken))
    with pytest.raises(AssertionError, match="weight algebra used"):
        engines[0].table(-6, 6)
    for engine, table, (exps, stab, k_min, k_max, max_a0, digest) in zip(engines, tables, cases):
        counts, got_a0 = engine.bruteforce_table(*oracle_bounds(exps, stab, k_min, k_max))
        assert [counts.get(r.degree, 0) for r in table.dimensions] == [r.dim for r in table.dimensions]
        assert got_a0 == max_a0
        assert hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()[:16] == digest


def test_oracle_bounds_equal_the_fraction_formula():
    """a0_bound = (U + N) L // |f_0| + 1 is floor((U + N) / |q_0|) + 1, since
    q_0 = 1 - sum(1/k_i) = f_0 / L; on every stabilized multiset with N <= 4,
    k <= 9 and prod(k) <= 300, near degree 0 and far from it."""
    checks = 0
    for size in range(1, 5):
        for exps in itertools.combinations_with_replacement(range(2, 10), size):
            q0 = abs(1 - sum(Fraction(1, k) for k in exps))
            if math.prod(exps) > 300 or q0 == 0:
                continue
            for k_min, k_max in ((-2 * size - 2, 2 * size + 2), (10**6, 10**6 + 3)):
                u_bound = (max(abs(k_min), abs(k_max)) + size + 2) // 2
                assert oracle_bounds(exps, True, k_min, k_max) == \
                    (math.floor((u_bound + size) / q0) + 1, u_bound), exps
                checks += 1
    assert checks == 2 * 225


@pytest.mark.parametrize("exps", [(2, 2, 3), (2, 2, 3, 5), (2, 2, 3, 5, 7), (2, 2, 5, 7, 11, 13)])
def test_a_priori_bounds_dominate_engine_max_a0(exps):
    a0_bound, _ = oracle_bounds(exps, True, -10, 10)
    assert HochschildEngine(DiagonalPolynomial(exps, True)).table(-10, 10).max_a0 <= a0_bound


def test_engine_refuses_inexact_exponents():
    """(2, 3.99, 7.5) is not (2, 3, 7): the one exponent check refuses it
    before an engine is built, rather than answering for (2, 3, 7)."""
    with pytest.raises(ValueError):
        HochschildEngine(DiagonalPolynomial((2, 3.99, 7.5), True))


class _Unusable:
    """Stands in for f_0; any arithmetic or comparison with it fails."""

    def _refuse(self, *args):
        raise AssertionError("the lattice's f_0 was used")

    __lt__ = __le__ = __gt__ = __ge__ = __abs__ = __neg__ = __index__ = _refuse
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __floordiv__ = __rfloordiv__ = __mod__ = __rmod__ = _refuse


def test_engine_reads_f0_from_its_lattice(monkeypatch):
    """A stabilized table asks its lattice for f_0, an AmbiguousGrading
    comes from there, and the table counts with the value the lattice
    returns (on the c_0 walk of 2,2,5,7,11,13); an unstabilized one never
    asks."""
    def refuse(self):
        raise AmbiguousGradingError("from the lattice")

    with monkeypatch.context() as m:
        m.setattr(CharacterLattice, "chi0_free", refuse)
        with pytest.raises(AmbiguousGradingError, match="from the lattice"):
            HochschildEngine(DiagonalPolynomial((2, 2, 3, 5), True)).table(0, 3)
        assert HochschildEngine(DiagonalPolynomial((2, 2, 3, 5))).table(0, 3).dimensions

    monkeypatch.setattr(CharacterLattice, "chi0_free", lambda self: _Unusable())
    with pytest.raises(AssertionError, match="the lattice's f_0 was used"):
        HochschildEngine(DiagonalPolynomial((2, 2, 5, 7, 11, 13), True)).table(-10, 10)


def test_a_priori_bounds_unstabilized_and_ambiguous():
    assert oracle_bounds((3, 4, 5), False, -4, 4) == (0, 4)
    with pytest.raises(AmbiguousGradingError):
        oracle_bounds((2, 3, 6), True, 0, 0)


def test_oracle_zero_bounds_trivial():
    # no admissible u at all when the parity of k never matches
    counts, _ = HochschildEngine(DiagonalPolynomial((2,), False)).bruteforce_table(0, 0)
    assert counts.get(1, 0) == 0


def test_oracle_bound_validation(engine2235):
    with pytest.raises(ValueError):
        engine2235.bruteforce_table(-1, 5)


def test_oracle_report_shape(engine2235):
    report = engine2235.bruteforce_report(0, 3, 20, 10)
    assert report.engine == "oracle"
    assert [row.dim for row in report.dimensions] == [2, 2, 0, 8]


# -- indexed counting ----------------------------------------------------------------

@pytest.mark.parametrize("exps", [(2, 2, 3), (2, 2, 3, 5), (2, 2, 3, 5, 7), (2, 2, 5, 7, 11, 13)])
def test_table_rows_equal_single_degrees(exps):
    """One engine answers the whole window in one call, another degree by
    degree; the rows agree, without witnesses and then witness by witness.
    A one-degree window finds every odd witness by the lookup of the degree
    below it, outside the window."""
    p = DiagonalPolynomial(exps, True)
    for witnesses in (False, True):
        table = HochschildEngine(p).table(-10, 10, witnesses)
        single = HochschildEngine(p)
        for row in table.dimensions:
            assert single.dimension(row.degree, witnesses) == row


@pytest.mark.parametrize("exps, stabilized, k_min, k_max", [
    ((2, 2, 3, 5, 7), True, -10, 10),     # the c_0 walk
    ((2, 3, 7, 43), True, -40, 40),       # the exponent box (|f_0| = 1)
    ((3, 4, 5), False, -6, 6),            # only the identity stratum counts
])
def test_plain_and_witness_tables_agree(exps, stabilized, k_min, k_max):
    """A plain table counts each term as it is accepted and keeps no term
    list; a witness table keeps one.  Both give the same rows and the same
    largest a_0, which is the largest witness a_0."""
    p = DiagonalPolynomial(exps, stabilized)
    plain = HochschildEngine(p).table(k_min, k_max)
    witnessed = HochschildEngine(p).table(k_min, k_max, witnesses=True)
    assert plain.dimensions == tuple(row._replace(witnesses=None) for row in witnessed.dimensions)
    assert plain.max_a0 == witnessed.max_a0
    if stabilized:
        assert plain.max_a0 == max(w.exponents[0] for row in witnessed.dimensions
                                   for w in row.witnesses)


def _state(engine):
    """The engine's attributes apart from the lazily enumerated kernel, with
    dict values copied so that later mutation shows."""
    return {name: dict(value) if isinstance(value, dict) else value
            for name, value in vars(engine).items() if name != "kernel"}


def test_engine_keeps_no_state():
    exps = (2, 2, 3, 5)
    bounds = oracle_bounds(exps, True, -4, 4)
    engine = HochschildEngine(DiagonalPolynomial(exps, True))
    before = _state(engine)
    engine.table(-4, 4)
    engine.dimension(3, witnesses=True)
    engine.bruteforce_table(*bounds)
    engine.bruteforce_report(-4, 4, *bounds)
    assert _state(engine) == before


def test_table_builds_no_jacobi_basis(monkeypatch):
    """table and dimension count from the c_0 walk or one box of exponent
    vectors, in closed form, so they run with jacobi_basis broken; the
    oracle still builds its bases with it.  Dimensions, max a_0 and a digest of the witnesses (all
    fields but gamma, which gamma_index names) are the values of the engine
    that built per-fixed-set bases."""
    def broken(exponents):
        raise AssertionError("jacobi_basis called")

    monkeypatch.setattr(mfhh.hhengine, "jacobi_basis", broken)
    assert verify_proposition(DiagonalPolynomial((2, 2, 3, 5), True)).passed
    expected = [
        ((2, 3, 3), True, [4, 4, 4, 4, 4, 4, 4, 0, 0], 17, "531180829f682a37"),
        ((2, 2, 2), False, [0, 0, 0, 0, 1, 0, 0, 0, 0], 0, "c99f3901a5ca9085"),
        ((2, 2, 2, 3, 5), True, [0, 0, 0, 0, 1, 1, 0, 0, 8], 1, "881fae8468240b9b"),
        ((2, 2, 2, 3, 5), False, [0, 0, 0, 0, 1, 0, 0, 0, 0], 0, "cb7651ac4b6e100f"),
    ]
    for exps, stabilized, dims, max_a0, digest in expected:
        engine = HochschildEngine(DiagonalPolynomial(exps, stabilized))
        report = engine.table(-4, 4, witnesses=True)
        rows = [(r.degree, r.dim, [w[:5] for w in r.witnesses]) for r in report.dimensions]
        assert [r.dim for r in report.dimensions] == dims and report.max_a0 == max_a0
        assert hashlib.sha256(repr((rows, max_a0)).encode()).hexdigest()[:16] == digest
        assert engine.dimension(4).dim == dims[8]
        with pytest.raises(AssertionError, match="jacobi_basis called"):
            engine.bruteforce_table(1, 4)


def test_gated_instances_keep_their_path(monkeypatch):
    """The {2,2} + four odd primes family walks c_0 over [-10, 10], so its
    tables call no coset_key and equal the exponent box's; 2,3,7 and
    2,3,7,43 list fewer box vectors than c_0 candidates and still key the
    box with coset_key."""
    family = [DiagonalPolynomial((2, 2, *odd), True)
              for odd in itertools.combinations((3, 5, 7, 11, 13), 4)]
    with monkeypatch.context() as m:
        m.setattr(mfhh.hhengine, "_walk_is_shorter", lambda walk_len, box_len: False)
        boxed = [HochschildEngine(p).table(-10, 10) for p in family]

    def refuse(self, free, residues):
        raise AssertionError("coset_key called")

    monkeypatch.setattr(CharacterLattice, "coset_key", refuse)
    assert [HochschildEngine(p).table(-10, 10) for p in family] == boxed
    for exps in ((2, 3, 7), (2, 3, 7, 43)):
        with pytest.raises(AssertionError, match="coset_key called"):
            HochschildEngine(DiagonalPolynomial(exps, True)).table(-10, 10)


# -- strata moving z_0 -----------------------------------------------------------------

def _small_multisets():
    """Every exponent multiset with N <= 4, k <= 7 and prod(k) <= 200."""
    for size in range(1, 5):
        for exps in itertools.combinations_with_replacement(range(2, 8), size):
            if math.prod(exps) <= 200:
                yield exps


def test_only_the_identity_and_full_moving_strata_count_without_fixed_z0():
    """The residue rule on the strata where z_0 is not a fixed variable.
    Unstabilized, only the identity contributes, with monomial 1 in degree 0.
    Stabilized, a gamma moving z_0 contributes only when it moves every
    variable, with monomial 1 in the even summand at u = -1, degree n."""
    instances = witnesses = moving_z0 = 0
    for exps in _small_multisets():
        for stabilized in (False, True):
            p = DiagonalPolynomial(exps, stabilized)
            n = p.num_vars - 1
            engine = HochschildEngine(p)
            try:
                report = engine.table(-2 * n - 2, 2 * n + 2, witnesses=True)
            except AmbiguousGradingError:
                continue
            instances += 1
            unit = (0,) * len(p.variables)
            for row in report.dimensions:
                for w in row.witnesses:
                    moving = engine.kernel[w.gamma_index].moving
                    if not stabilized:
                        assert (moving, w.exponents, w.degree, w.u) == (frozenset(), unit, 0, 0), \
                            (exps, w)
                    elif 0 in moving:
                        assert len(moving) == p.num_vars + 1, (exps, w)
                        assert (w.exponents, w.summand, w.u, w.degree) == (unit, "even", -1, n), \
                            (exps, w)
                        moving_z0 += 1
                    witnesses += 1
    assert (instances, witnesses, moving_z0) == (238, 6176, 2819)


# -- far degrees -------------------------------------------------------------------

def test_far_degrees_repeat_the_periodic_tail():
    """Windows past 2^63 answer, with the table's periodic tail.

    With L = lcm(k_i) and Q0 = L - sum(L / k_i) = L * q_0, the shift
    a_0 -> a_0 + L keeps every residue and moves the degree by
    P = 2 * Q0.  In a degree beyond B = 2(|Q0| + N) + N + 1 on Q0's side
    every contribution has a_0 >= L, so the shift maps the contributions
    one degree P nearer 0 onto them: the table repeats with period P
    there.  So the windows of P degrees at K = +-2^63 and +-(2^64 + 7)
    equal the window at the K0 = K (mod P) just beyond B, on every
    stabilized multiset with N <= 4, k <= 9, prod(k) <= 300, Q0 != 0 and
    P <= 10^4."""
    checks = 0
    for size in range(1, 5):
        for exps in itertools.combinations_with_replacement(range(2, 10), size):
            lcm = math.lcm(*exps)
            q0 = lcm - sum(lcm // k for k in exps)
            period = 2 * abs(q0)
            if math.prod(exps) > 300 or not 0 < period <= 10**4:
                continue
            engine = HochschildEngine(DiagonalPolynomial(exps, True))
            bound = 2 * (abs(q0) + size) + size + 1
            for far in (2**63, 2**64 + 7):
                if q0 > 0:
                    k = far
                    k0 = bound + 1 + (k - bound - 1) % period
                else:
                    k = -far
                    k0 = -bound - period - (-bound - period - k) % period
                dims = [row.dim for row in engine.table(k, k + period - 1).dimensions]
                tail = [row.dim for row in engine.table(k0, k0 + period - 1).dimensions]
                assert dims == tail, (exps, k, k0)
                checks += 1
    assert checks == 450


# -- the odd summand -------------------------------------------------------------

def _even_summand(dims, k_min, n, mu, q0):
    """E solved from HH^k = E_k + E_{k-1} + mu [k = n] over the window
    starting at k_min, from the end where HH vanishes beyond the window:
    the low end when q0 > 0, the high end when q0 < 0."""
    ks = range(k_min, k_min + len(dims))
    pairs = list(zip(ks, dims))
    if q0 < 0:
        pairs.reverse()
    e, solved = 0, []
    for k, hh in pairs:
        e = hh - mu * (k == n) - e
        solved.append(e)
    return solved


def test_odd_summand_is_the_even_summand_one_degree_up():
    """sum_k dim HH^k t^k = (1 + t) E(t) + mu t^n with every E_k >= 0.

    With L = lcm(k_i), Q0 = L - sum(L / k_i), P = 2|Q0| and
    B = 2(|Q0| + N) + N + 1, HH^k vanishes beyond B on the side opposite
    sign(Q0), so E is solved from that side over [-B, B + P] (or
    [-B - P, B] when Q0 < 0).  The engine and the oracle, which counts
    both summands term by term, are checked separately on every stabilized
    multiset with N <= 4, k <= 9, prod(k) <= 300 and Q0 != 0."""
    checks = 0
    for size in range(1, 5):
        for exps in itertools.combinations_with_replacement(range(2, 10), size):
            lcm = math.lcm(*exps)
            q0 = lcm - sum(lcm // k for k in exps)
            if math.prod(exps) > 300 or q0 == 0:
                continue
            period = 2 * abs(q0)
            bound = 2 * (abs(q0) + size) + size + 1
            k_min, k_max = (-bound, bound + period) if q0 > 0 else (-bound - period, bound)
            engine = HochschildEngine(DiagonalPolynomial(exps, True))
            table = [r.dim for r in engine.table(k_min, k_max).dimensions]
            counts, _ = engine.bruteforce_table(*oracle_bounds(exps, True, k_min, k_max))
            oracle = [counts.get(k, 0) for k in range(k_min, k_max + 1)]
            mu = milnor_number(engine.polynomial)
            for dims in (table, oracle):
                assert min(_even_summand(dims, k_min, size - 1, mu, q0)) >= 0, exps
            checks += 1
    assert checks == 225


# -- unstabilized sanity -----------------------------------------------------------

@pytest.mark.parametrize("exps", [(5,), (2, 3)])
def test_unstabilized_totals_match_direct_enumeration(exps):
    p = DiagonalPolynomial(exps, False)
    engine = HochschildEngine(p)
    span = 2 * sum(exps)
    engine_total = sum(engine.dimension(k).dim for k in range(-span, span + 1))

    direct_total = 0
    for gamma in engine.lattice.enumerate_ker_chi():
        fixed = {i: p.exponent_of(i) for i in sorted(gamma.fixed)}
        for mono in jacobi_basis(fixed):
            a = dict(mono)
            cs = [a.get(i, -1) for i in range(1, p.num_vars + 1)]
            if _chi_multiple(exps, cs, 0) is not None:
                direct_total += 1
    assert engine_total == direct_total


def test_unstabilized_single_variable_dimensions():
    engine = HochschildEngine(DiagonalPolynomial((5,), False))
    dims = {k: engine.dimension(k).dim for k in range(-10, 11)}
    assert dims[0] == 1
    assert sum(dims.values()) == 1


# -- degenerate grading -------------------------------------------------------------

def test_ambiguous_grading_propagates():
    engine = HochschildEngine(DiagonalPolynomial((2, 3, 6), True))
    for k in (0, 1):
        for witnesses in (False, True):
            with pytest.raises(AmbiguousGradingError):
                engine.dimension(k, witnesses=witnesses)


# -- closed-form predictions ---------------------------------------------------------

def test_proposition_passes():
    report = verify_proposition(DiagonalPolynomial((2, 2, 3, 5), True))
    assert report.status == "pass" and report.passed
    assert [(c.degree, c.computed, c.expected) for c in report.checks] == [
        (0, 2, 2), (3, 8, 8)]


def test_closed_forms_over_the_double_suspension_family():
    """HH^0 = min(p) - 1 and HH^n = mu for xy + p(z), with p every
    Brieskorn-Pham polynomial of 1-3 exponents in 2..9 (164 instances), and
    verify_proposition passes on each of them."""
    failures = []
    instances = 0
    for size in (1, 2, 3):
        for p in itertools.combinations_with_replacement(range(2, 10), size):
            instances += 1
            poly = DiagonalPolynomial((2, 2) + p, True)
            n = poly.num_vars - 1
            report = HochschildEngine(poly).table(0, n)
            got = (report.dimension(0).dim, report.dimension(n).dim)
            if got != (min(p) - 1, milnor_number(poly)):
                failures.append((p, got))
            if not verify_proposition(poly).passed:
                failures.append((p, "verify"))
    assert instances == 164
    assert failures == []


@pytest.mark.parametrize("exps,dims", [
    ((2, 3), {0: 1, 1: 3}),  # mu = 2
    ((3,), {0: 3}),
    ((2, 3, 3), {0: 4}),
])
def test_closed_forms_fail_without_the_quadratic_pair(exps, dims):
    """Stabilized instances without the pair {2, 2}, confirmed by the oracle."""
    engine = HochschildEngine(DiagonalPolynomial(exps, True))
    report = engine.table(min(dims), max(dims))
    counts, _ = engine.bruteforce_table(*oracle_bounds(exps, True, min(dims), max(dims)))
    for k, dim in dims.items():
        assert report.dimension(k).dim == counts.get(k, 0) == dim


def test_proposition_accepts_composite_exponents():
    """Composite exponents are in the paper's family: k3 = min(p) = 4."""
    report = verify_proposition(DiagonalPolynomial((2, 2, 4, 5), True))
    assert report.status == "pass" and report.reasons == ()
    assert [(c.degree, c.computed, c.expected) for c in report.checks] == [
        (0, 3, 3), (3, 12, 12)]


def test_proposition_accepts_repeated_exponents():
    """Repeated exponents are in the paper's family, a third 2 included."""
    report = verify_proposition(DiagonalPolynomial((2, 2, 3, 3), True))
    assert report.status == "pass" and report.reasons == ()
    assert [(c.degree, c.computed, c.expected) for c in report.checks] == [
        (0, 2, 2), (3, 4, 4)]
    report = verify_proposition(DiagonalPolynomial((2, 2, 2), True))
    assert report.status == "pass"
    assert [(c.degree, c.computed, c.expected) for c in report.checks] == [
        (0, 1, 1), (2, 1, 1)]


def test_proposition_rejects_unstabilized():
    report = verify_proposition(DiagonalPolynomial((2, 2, 3, 5), False))
    assert report.status == "hypotheses_not_met"


def test_proposition_rejects_wrong_quadratic_count():
    assert verify_proposition(DiagonalPolynomial((2, 3, 5), True)).status == \
        "hypotheses_not_met"
    assert verify_proposition(DiagonalPolynomial((2, 2), True)).status == \
        "hypotheses_not_met"
