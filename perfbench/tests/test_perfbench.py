"""Tests of the benchmark itself: inputs, checkers, spans and deadlines.

    python3 -m pytest perfbench/tests
"""

import io
import json
import os
import sys
from collections import Counter
from math import prod

import pytest

import mfhh.hhengine
from mfhh import DiagonalPolynomial, HochschildEngine
from mfhh.cli import run as cli_run
from perfbench import checks, run, tracing
from perfbench.workloads import PASSES, make_pass


def _mix(ops):
    """What a pass contains, ignoring order and variable order."""
    return Counter((getattr(op, "check", "table"), tuple(sorted(op.exponents)), op.stabilized)
                   for op in ops)


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_same_seed_gives_same_inputs(workload):
    assert make_pass(workload, 11) == make_pass(workload, 11)


@pytest.mark.parametrize("workload", sorted(PASSES))
def test_different_seeds_give_the_same_mix(workload):
    a, b = make_pass(workload, 1), make_pass(workload, 2)
    assert a != b
    assert _mix(a) == _mix(b)


def test_sweep_mix_has_fixed_ambiguous_and_stabilized_shares():
    ops = make_pass("sweep", 3)
    ambiguous = [op for op in ops if op.ambiguous]
    assert {tuple(sorted(op.exponents)) for op in ambiguous} >= {(3, 3, 3), (2, 4, 4), (2, 3, 6)}
    assert 0.03 < len(ambiguous) / len(ops) < 0.08
    stabilized = Counter(tuple(sorted(op.exponents)) for op in ops if op.stabilized)
    unstabilized = Counter(tuple(sorted(op.exponents)) for op in ops if not op.stabilized)
    assert set(stabilized) == set(unstabilized) and set(unstabilized.values()) == {1}
    assert all(len(op.exponents) <= 5 and max(op.exponents) <= 9 and prod(op.exponents) <= 150
               for op in ops)


def _hh_op():
    return next(op for op in make_pass("hh-large", 0) if op.exponents == (2, 2, 3, 5, 7, 11))


def _alter_first_nonzero_dim(text):
    payload = json.loads(text)
    row = next(r for r in payload["hh"] if r["dim"])
    row["dim"] += 1
    return json.dumps(payload, separators=(",", ":")) + "\n"


def test_altered_dim_counts_as_failure():
    refs = checks.load_references()
    op = _hh_op()
    good = refs[checks.instance_key(op.exponents, op.stabilized)] + "\n"
    outcomes = [run.Outcome(op, code=0, text=good),
                run.Outcome(op, code=0, text=_alter_first_nonzero_dim(good)),
                run.Outcome(op, code=4, text=good)]
    failures = run.check_outcomes(outcomes, refs)
    assert len(failures) == 2
    assert "canonical" in failures[0] and "exit code 4" in failures[1]


def test_altered_sweep_dim_counts_as_failure():
    op = next(op for op in make_pass("sweep", 0) if not op.ambiguous and op.stabilized)
    engine = HochschildEngine(DiagonalPolynomial(op.exponents, op.stabilized))
    dims = tuple(row.dim for row in engine.table(op.k_min, op.k_max).dimensions)
    altered = (dims[0] + 1,) + dims[1:]
    outcomes = [run.Outcome(op, dims=dims), run.Outcome(op, dims=altered),
                run.Outcome(op, error="AmbiguousGrading")]
    assert len(run.check_outcomes(outcomes, {})) == 2


def test_ambiguous_input_is_correct_only_when_it_raises():
    op = next(op for op in make_pass("sweep", 0) if op.ambiguous)
    assert run.check_outcomes([run.run_engine_op(op, run._InProcessDeadline(), 5.0)], {}) == []
    assert len(run.check_outcomes([run.Outcome(op, dims=(0,))], {})) == 1


def _witness_output():
    op = next(op for op in make_pass("audit", 0)
              if op.check == "witnesses" and op.exponents == (2, 2, 3, 5, 7))
    buf = io.StringIO()
    assert cli_run(list(op.argv), out=buf) == 0
    return op, json.loads(buf.getvalue())


def _dump(payload):
    return json.dumps(payload, separators=(",", ":")) + "\n"


def test_witness_check_accepts_the_engine_output():
    op, payload = _witness_output()
    checks.check_witnesses(op, _dump(payload), checks.load_references())


@pytest.mark.parametrize("corrupt", ["drop_witness", "shift_u", "alter_dim", "bump_monomial"])
def test_witness_check_rejects_corrupted_output(corrupt):
    op, payload = _witness_output()
    row = next(r for r in payload["hh"] if r["dim"])
    if corrupt == "drop_witness":
        row["witnesses"].pop()
    elif corrupt == "shift_u":
        row["witnesses"][0]["u"] += 1
    elif corrupt == "alter_dim":
        row["dim"] += 1
    else:
        row["witnesses"][0]["monomial"][0] += 1
    with pytest.raises(checks.CheckFailure):
        checks.check_witnesses(op, _dump(payload), checks.load_references())


def test_a_priori_bounds_dominate_the_engine_and_ignore_it():
    for exps in [(2, 2, 3), (2, 3, 7), (2, 4, 5), (3, 4, 5, 6, 7), (2, 2, 3, 5, 7)]:
        k_min, k_max = -12, 12
        a0_bound, u_bound = checks.a_priori_bounds(exps, True, k_min, k_max)
        engine = HochschildEngine(DiagonalPolynomial(exps, True))
        report = engine.table(k_min, k_max)
        assert report.max_a0 <= a0_bound
        counts, _ = engine.bruteforce_table(a0_bound, u_bound)
        assert [counts.get(k, 0) for k in range(k_min, k_max + 1)] == [r.dim for r in report.dimensions]
    with pytest.raises(ValueError):
        checks.a_priori_bounds((3, 3, 3), True, -4, 4)
    checks.require_dominating((20, 9), (20, 9))
    with pytest.raises(checks.CheckFailure):
        checks.require_dominating((19, 9), (20, 9))


def test_self_times_of_a_hand_built_span_tree():
    S = tracing.Span
    spans = [
        S("cli.run", 0.0, 10.0, None, 0),
        S("HochschildEngine.__init__", 1.0, 5.0, 0, 0),
        S("build_character_lattice", 1.5, 2.5, 1, 0),
        S("smith_normal_form", 1.75, 2.25, 2, 0),
        S("CharacterLattice.enumerate_ker_chi", 3.0, 4.0, 1, 0),
        S("HochschildEngine.table", 6.0, 9.0, 0, 0),
        S("jacobi_basis", 7.0, 7.5, 5, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 0.5, 0.5, 1.0, 2.5, 0.5])
    tracer = tracing.Tracer()
    tracer.spans = spans
    totals = tracer.layer_totals()
    assert totals["cli.serialize_s"] == pytest.approx(3.0)
    assert totals["hhengine.init_s"] == pytest.approx(2.0)
    assert totals["charlat.lattice_s"] == pytest.approx(0.5)
    assert totals["intlat.snf_s"] == pytest.approx(0.5)
    assert totals["hhengine.count_s"] == pytest.approx(2.5)


def test_traced_calls_record_spans_counts_and_restore_the_originals():
    original = mfhh.hhengine.jacobi_basis
    tracer = tracing.Tracer()
    exps, k_min, k_max = (2, 3, 4), -4, 4
    with tracing.installed(tracer):
        tracer.begin_op()
        engine = HochschildEngine(DiagonalPolynomial(exps, True))
        report = engine.table(k_min, k_max)
        engine.bruteforce_table(5, 6)
        tracer.end_op()
    assert mfhh.hhengine.jacobi_basis is original
    names = Counter(s.name for s in tracer.spans)
    assert names["smith_normal_form"] == 1 and names["HochschildEngine.table"] == 1
    totals = tracer.layer_totals()
    assert totals["charlat.kernel_elements"] == prod(exps)
    assert totals["hhengine.accepted"] == sum(r.dim for r in report.dimensions)
    explicit = 0
    for gamma in engine.kernel:
        basis = prod(engine.polynomial.exponent_of(i) - 1 for i in gamma.fixed if i)
        z0_fixed = 0 in gamma.fixed
        for k in range(k_min, k_max + 1):
            for shift in (0, 1) if z0_fixed else (0,):
                explicit += basis * ((k - len(gamma.moving) - shift) % 2 == 0)
    assert totals["hhengine.candidates"] == explicit


def test_command_past_its_deadline_is_killed_and_reported():
    run.OUT.mkdir(parents=True, exist_ok=True)
    result = run.run_command((sys.executable, "-c", "import time; time.sleep(30)"), dict(os.environ), 0.3)
    assert result.timed_out and result.code != 0 and result.wall_s < 5


def test_in_process_deadline_fails_the_operation(monkeypatch):
    op = next(op for op in make_pass("sweep", 0) if not op.ambiguous)

    def hang(self, k_min, k_max, **kwargs):
        while True:
            pass

    monkeypatch.setattr(HochschildEngine, "table", hang)
    with run._InProcessDeadline() as deadline:
        outcome = run.run_engine_op(op, deadline, 0.2)
    assert outcome.error == "deadline"


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
