"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run pytest with -s to see them).  Every tolerance here is
exact equality; nothing in this package is floating point."""

import functools
import io
import json
import random
import time

import pytest

from mfhh.charlat import Weight, build_character_lattice
from mfhh.cli import run
from mfhh.diagpoly import DiagonalPolynomial, milnor_number
from mfhh.hhengine import HochschildEngine, oracle_bounds
from mfhh.intlat import smith_normal_form

# (exponents, expected dim HH^0 = k3 - 1, expected dim HH^n = milnor number)
PROPOSITION_INSTANCES = [
    ((2, 2, 3), 2, 2),
    ((2, 2, 3, 5), 2, 8),
    ((2, 2, 3, 5, 7), 2, 48),
    ((2, 2, 5, 7, 11, 13), 4, 2880),
]


def criterion(num, desc):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({desc}): FAIL", flush=True)
                raise
            print(f"criterion {num} ({desc}): PASS", flush=True)
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def engines():
    return {exps: HochschildEngine(DiagonalPolynomial(exps, True))
            for exps, _, _ in PROPOSITION_INSTANCES}


@criterion(1, "proposition reproduction")
def test_criterion_1_proposition_reproduction():
    started = time.perf_counter()
    for exps, hh0, hhn in PROPOSITION_INSTANCES:
        engine = HochschildEngine(DiagonalPolynomial(exps, True))
        n = len(exps) - 1
        assert engine.dimension(0).dim == hh0, exps
        assert engine.dimension(n).dim == hhn == milnor_number(engine.polynomial), exps
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"proposition suite took {elapsed:.1f}s"


@criterion(2, "kernel order cross-check")
def test_criterion_2_kernel_order(engines):
    cases = [(exps, True) for exps, _, _ in PROPOSITION_INSTANCES]
    cases += [((2, 2, 3, 5), False), ((2,), False), ((3, 4), True)]
    for exps, stab in cases:
        lat = (engines[exps].lattice if stab and exps in engines
               else build_character_lattice(exps, stab))
        assert len(lat.enumerate_ker_chi()) == lat.chi_quotient().order, exps
    assert engines[(2, 2, 3, 5)].lattice.chi_quotient().order == 60


@criterion(3, "top-degree witness sector")
def test_criterion_3_top_degree_witnesses(engines):
    engine = engines[(2, 2, 3, 5)]
    row = engine.dimension(3, witnesses=True)
    assert row.dim == 8 and len(row.witnesses) == 8
    for w in row.witnesses:
        assert engine.kernel[w.gamma_index].fixed == frozenset()
        assert w.summand == "even"
        assert w.u == -1
        assert not any(w.exponents)


@criterion(4, "oracle equivalence")
def test_criterion_4_oracle_equivalence(engines):
    for exps, _, _ in PROPOSITION_INSTANCES:
        engine = engines[exps]
        report = engine.table(-10, 10)
        counts, _ = engine.bruteforce_table(*oracle_bounds(exps, True, -10, 10))
        for row in report.dimensions:
            assert row.dim == counts.get(row.degree, 0), (exps, row.degree)


@criterion(5, "degree-zero floor-count decomposition")
def test_criterion_5_floor_counts(engines):
    k3 = 3
    engine = engines[(2, 2, 3, 5)]
    row = engine.dimension(0, witnesses=True)
    assert len(row.witnesses) == 2
    fixed_sets = sorted((sorted(engine.kernel[w.gamma_index].fixed) for w in row.witnesses),
                       key=len)
    assert fixed_sets == [[0, 3, 4], [0, 1, 2, 3, 4]]
    # one even stabilizer power on the full space, one odd power on the
    # partial locus: floor((k3-2)/2)+1 = 1 and floor((k3-1)/2) = 1
    even_a0 = [w for w in row.witnesses
               if engine.kernel[w.gamma_index].fixed == frozenset({0, 1, 2, 3, 4})]
    odd_a0 = [w for w in row.witnesses
              if engine.kernel[w.gamma_index].fixed == frozenset({0, 3, 4})]
    assert len(even_a0) == (k3 - 2) // 2 + 1
    assert all(w.exponents[0] % 2 == 0 for w in even_a0)
    assert len(odd_a0) == (k3 - 1) // 2
    assert all(w.exponents[0] % 2 == 1 for w in odd_a0)
    # the unit monomial on the full space; z_0 z_3 z_4 at u = -1 on the locus
    assert [w.exponents for w in even_a0] == [(0, 0, 0, 0, 0)]
    assert [(w.exponents, w.u) for w in odd_a0] == [((1, 0, 0, 1, 1), -1)]


@criterion(6, "three-variable consistency")
def test_criterion_6_three_variable_family():
    for k3 in (3, 5, 7):
        engine = HochschildEngine(DiagonalPolynomial((2, 2, k3), True))
        assert engine.dimension(0).dim == k3 - 1, k3


@criterion(7, "property suites")
def test_criterion_7_property_suites(engines):
    # Smith invariant factors on 200 random small matrices, against sympy's.
    pytest.importorskip("sympy")
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(m, cols)
        assert len(diag) == min(rows, cols) and all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        if diag:
            theirs = sympy_snf(Matrix(m), domain=ZZ)
            assert list(diag) == [abs(int(theirs[i, i])) for i in range(len(diag))]

    # The per-degree target of the counting loop: with dual(M) = -sum(chi_j, j in M)
    # from the generators' closed forms, u*chi - dual(M) is
    # (u*L + sum(L/k_j, j in M, j >= 1) + [0 in M]*f_0, ([i in M] - [0 in M]) mod k_i).
    lat = engines[(2, 2, 3, 5)].lattice
    exps, lcm = lat.exponents, lat.chi.free
    f0 = lcm - sum(lcm // k for k in exps)
    gens = {0: Weight(f0, tuple(k - 1 for k in exps), exps)}
    gens.update((i, Weight(lcm // k, tuple(int(j == i) for j in range(1, len(exps) + 1)), exps))
                for i, k in enumerate(exps, start=1))
    for _ in range(100):
        u = rng.randint(-50, 50)
        moving = [i for i in lat.variables if rng.random() < 0.5]
        dual = lat.chi.scaled(0)
        for j in moving:
            dual = dual - gens[j]
        z0 = 0 in moving
        assert lat.chi.scaled(u) - dual == Weight(
            u * lcm + sum(lcm // exps[j - 1] for j in moving if j) + z0 * f0,
            tuple(((i in moving) - z0) % k for i, k in enumerate(exps, start=1)), exps)

    # Determinism under --parallel N.
    argv = ["hh", "--exponents", "2,2,3,5", "--stabilize", "--k-min", "-6",
            "--k-max", "6", "--witnesses", "--format", "json"]
    outputs = []
    for n in ("1", "3"):
        buf = io.StringIO()
        assert run(argv + ["--parallel", n], out=buf) == 0
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # well-formed

    # Exit-code contract of verify: {2,2} plus any exponents pass; no
    # quadratic pair, nothing besides it, or no stabilizer exit 3.
    for args, expected in [
        (["verify", "--exponents", "2,2,3,5", "--stabilize"], 0),
        (["verify", "--exponents", "2,2,4,5", "--stabilize"], 0),
        (["verify", "--exponents", "2,2,3,3", "--stabilize"], 0),
        (["verify", "--exponents", "2,2,2", "--stabilize"], 0),
        (["verify", "--exponents", "2,3,5", "--stabilize"], 3),
        (["verify", "--exponents", "2,2", "--stabilize"], 3),
        (["verify", "--exponents", "2,2,3,5"], 3),
    ]:
        assert run(args, out=io.StringIO()) == expected, args
