#!/usr/bin/env python3
"""Benchmark the mfhh CLI and library end to end, or trace it by module.

Usage, from the repository root:

    python3 perfbench/run.py --workload hh-large|sweep|audit|all
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` every operation is timed with tracing off and the
end-to-end metrics are printed; with ``--trace 1`` the same operations run
in-process, untraced and traced in alternation, and the per-layer metrics
are printed.  Every operation's output is checked.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import select
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

if not __package__:
    sys.path.insert(0, str(ROOT))

from perfbench import checks  # noqa: E402
from perfbench.tracing import COUNT_METRICS, Tracer, installed  # noqa: E402
from perfbench.workloads import CliOp, make_pass  # noqa: E402

# The console script's entry point, run from the checkout's sources.
CLI = (sys.executable, "-c", "from mfhh.cli import main; main()")
IMPORT_ONLY = (sys.executable, "-c", "import mfhh, mfhh.cli")

# Fresh-interpreter starts behind setup_s: this many before the timed loop,
# then one at a pass boundary whenever this many seconds have passed since the
# last, and one after the loop, so the median spans the run's slow and fast
# phases instead of its first second.
SETUP_REPEATS = 5
SETUP_SAMPLE_EVERY_S = 3.0
# Per-operation deadlines, about ten times the slowest operation at the
# baseline; an operation that misses its deadline is killed and fails.
OP_DEADLINE_S = {"hh-large": 30.0, "sweep": 5.0, "audit": 30.0}
# No operation starts after this many seconds beyond --seconds, so a hung
# engine cannot keep a run going for long past its measuring time.
OVERRUN_CAP_S = 60.0
# Address-space cap for this process and everything it starts; a runaway
# allocation fails its operation instead of exhausting the machine.
MEMORY_LIMIT_BYTES = 1 << 30
# latency_s.p90 is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100

# BENCHMARK.json gates hh-large and sweep; audit runs by hand (see README.md).
WORKLOADS = ("hh-large", "sweep", "audit")
END_TO_END_UNITS = {
    "latency_s.p50": "s",
    "throughput_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.process_start_s": "s",
    "intlat.snf_calls": "count",
    "intlat.snf_s": "s",
    "charlat.lattice_s": "s",
    "charlat.kernel_enum_s": "s",
    "charlat.kernel_elements": "count",
    "diagpoly.jacobi_basis_s": "s",
    "diagpoly.basis_monomials": "count",
    "hhengine.init_s": "s",
    "hhengine.count_s": "s",
    "hhengine.candidates": "count",
    "hhengine.accept_ratio": "ratio",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


class DeadlineExceeded(BaseException):
    """Raised inside an in-process operation that ran past its deadline.

    A BaseException, so that no handler inside the package swallows it.
    """


@dataclass(frozen=True)
class CommandResult:
    code: int
    wall_s: float
    maxrss_kb: int
    stdout: str
    timed_out: bool


@dataclass
class Outcome:
    """What one operation produced, checked after the timed loop."""

    op: object
    code: int | None = None
    text: str | None = None
    dims: tuple | None = None
    error: str | None = None


def run_command(argv, env, deadline_s: float) -> CommandResult:
    """Run ``argv`` in its own process group with stdout captured in a file, kill
    the whole group at the deadline, and return its wall time and peak RSS.

    The exit is awaited on a pidfd, so the wall time has no polling step.
    """
    out_path = OUT / "stdout"
    err_path = OUT / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    started = perf_counter()
    pid = os.posix_spawn(argv[0], list(argv), env, file_actions=actions, setsid=True)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(max(deadline_s, 0.0) * 1000)
        wall = perf_counter() - started
        if timed_out:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
    finally:
        os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
    return CommandResult(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss,
                         out_path.read_text(errors="replace"), timed_out)


class _InProcessDeadline:
    """SIGALRM-based deadline for operations run inside this process."""

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._expire)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @staticmethod
    def _expire(signum, frame):
        raise DeadlineExceeded

    @staticmethod
    def arm(seconds: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))

    @staticmethod
    def disarm() -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- environment ----------------------------------------------------------------

def prepare() -> dict:
    """Point this process and its children at the checkout's sources.

    Byte code goes under .bench_build so the source tree stays as checked out.
    """
    if not (SRC / "mfhh" / "__init__.py").is_file():
        raise SetupError(f"no mfhh sources under {SRC}; run from a checkout of the repository")
    OUT.mkdir(parents=True, exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    sys.path.insert(0, str(SRC))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > MEMORY_LIMIT_BYTES:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, hard))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=sys.pycache_prefix)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    import mfhh
    if Path(mfhh.__file__).resolve().parent != SRC / "mfhh":
        raise SetupError(f"imported mfhh from {mfhh.__file__}, not from {SRC}")
    return env


def fresh_import_seconds(env) -> float:
    result = run_command(IMPORT_ONLY, env, 60.0)
    if result.code != 0:
        raise SetupError(f"a fresh interpreter cannot import mfhh (exit {result.code})")
    return result.wall_s


def setup(workload: str, seed: int, env):
    """SETUP_REPEATS fresh-interpreter import times, the seeded pass, the
    stored reports, and the time it took to generate and load those two."""
    starts = [fresh_import_seconds(env) for _ in range(SETUP_REPEATS)]
    started = perf_counter()
    ops = make_pass(workload, seed)
    refs = checks.load_references()
    return ops, refs, starts, perf_counter() - started


# -- operations -----------------------------------------------------------------

def run_engine_op(op, deadline: _InProcessDeadline, seconds: float) -> Outcome:
    from mfhh import AmbiguousGradingError, DiagonalPolynomial, HochschildEngine
    outcome = Outcome(op)
    try:
        deadline.arm(seconds)
        try:
            report = HochschildEngine(DiagonalPolynomial(op.exponents, op.stabilized)).table(op.k_min, op.k_max)
        finally:
            deadline.disarm()
        outcome.dims = tuple(row.dim for row in report.dimensions)
    except AmbiguousGradingError:
        outcome.error = "AmbiguousGrading"
    except DeadlineExceeded:
        outcome.error = "deadline"
    except Exception as exc:  # noqa: BLE001 - any other failure fails this operation only
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def run_cli_in_process(op, deadline: _InProcessDeadline, seconds: float) -> Outcome:
    import mfhh.cli
    buf = io.StringIO()
    outcome = Outcome(op)
    try:
        deadline.arm(seconds)
        try:
            outcome.code = mfhh.cli.run(list(op.argv), out=buf)
        finally:
            deadline.disarm()
        outcome.text = buf.getvalue()
    except DeadlineExceeded:
        outcome.error = "deadline"
    except Exception as exc:  # noqa: BLE001 - any other failure fails this operation only
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def check_outcomes(outcomes, refs) -> list[str]:
    """Check every outcome; return one message per failed operation."""
    from mfhh import build_character_lattice
    quotient_orders: dict = {}
    recounts: dict = {}

    def recount(op):
        key = (op.exponents, op.stabilized)
        if key not in recounts:
            recounts[key] = checks.bounded_recount(op.exponents, op.stabilized, op.k_min, op.k_max)
        return recounts[key]

    def quotient_order(op):
        key = (op.exponents, op.stabilized)
        if key not in quotient_orders:
            quotient_orders[key] = build_character_lattice(*key).chi_quotient().order
        return quotient_orders[key]

    failures = []
    for o in outcomes:
        op = o.op
        try:
            if isinstance(op, CliOp):
                if o.error:
                    raise checks.CheckFailure(o.error)
                if o.code != 0:
                    raise checks.CheckFailure(f"exit code {o.code}")
                if op.check == "group":
                    checks.check_group(op, o.text, quotient_order(op))
                else:
                    getattr(checks, f"check_{op.check}")(op, o.text, refs)
            elif op.ambiguous:
                if o.error != "AmbiguousGrading":
                    raise checks.CheckFailure(f"expected AmbiguousGrading, got {o.error or o.dims}")
            elif o.error:
                raise checks.CheckFailure(o.error)
            elif o.dims != recount(op):
                raise checks.CheckFailure(f"dims {o.dims} differ from the bounded recount {recount(op)}")
        except checks.CheckFailure as exc:
            failures.append(f"{getattr(op, 'argv', op)}: {exc}")
    return failures


# -- timed run --------------------------------------------------------------------

def timed_run(workload: str, ops, seconds: float, env):
    """Closed loop over whole passes until ``seconds`` have elapsed.

    Returns (outcomes, per-operation wall times, loop seconds, peak RSS in
    KB, fresh-interpreter start times sampled between passes).  Loop seconds
    exclude the time spent sampling starts.
    """
    outcomes, walls, starts = [], [], []
    peak_kb = 0
    cap = seconds + OVERRUN_CAP_S
    deadline_s = OP_DEADLINE_S[workload]
    in_process = workload == "sweep"
    sampling_s = 0.0
    last_sample = perf_counter()

    def sample_start():
        nonlocal sampling_s, last_sample
        t0 = perf_counter()
        starts.append(fresh_import_seconds(env))
        last_sample = perf_counter()
        sampling_s += last_sample - t0

    started = perf_counter()
    with _InProcessDeadline() as deadline:
        while True:
            if perf_counter() - last_sample >= SETUP_SAMPLE_EVERY_S:
                sample_start()
            for op in ops:
                elapsed = perf_counter() - started - sampling_s
                if elapsed >= cap:
                    break
                budget = min(deadline_s, cap - elapsed)
                if in_process:
                    t0 = perf_counter()
                    outcomes.append(run_engine_op(op, deadline, budget))
                    walls.append(perf_counter() - t0)
                else:
                    result = run_command(CLI + op.argv, env, budget)
                    walls.append(result.wall_s)
                    peak_kb = max(peak_kb, result.maxrss_kb)
                    outcomes.append(Outcome(op, code=result.code, text=result.stdout,
                                            error="deadline" if result.timed_out else None))
            if perf_counter() - started - sampling_s >= seconds:
                break
    loop_s = perf_counter() - started - sampling_s
    sample_start()
    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcomes, walls, loop_s, peak_kb, starts


def end_to_end(workload: str, seed: int, seconds: float, env):
    ops, refs, starts, generate_s = setup(workload, seed, env)
    outcomes, walls, loop_s, peak_kb, more_starts = timed_run(workload, ops, seconds, env)
    starts += more_starts
    failures = check_outcomes(outcomes, refs)
    completed = len(outcomes) - len(failures)
    metrics = {
        "latency_s.p50": (statistics.median(walls), len(walls)),
        "throughput_ops_per_s": (completed / loop_s, len(walls)),
        "peak_rss_mb": (peak_kb / 1024, len(walls)),
        "setup_s": (statistics.median(starts) + generate_s, len(starts)),
    }
    notes = {"failed_ratio": (len(failures) / len(outcomes), len(outcomes), "ratio")}
    if len(walls) >= P90_MIN_SAMPLES:
        notes["latency_s.p90"] = (statistics.quantiles(walls, n=10)[-1], len(walls), "s")
    return outcomes, failures, metrics, notes, END_TO_END_UNITS


# -- traced run -------------------------------------------------------------------

def run_pass_in_process(workload, ops, tracer=None):
    runner = run_engine_op if workload == "sweep" else run_cli_in_process
    deadline_s = OP_DEADLINE_S[workload]
    outcomes = []
    started = perf_counter()
    with _InProcessDeadline() as deadline:
        if tracer is None:
            outcomes = [runner(op, deadline, deadline_s) for op in ops]
        else:
            with installed(tracer):
                for op in ops:
                    tracer.begin_op()
                    outcome = runner(op, deadline, deadline_s)
                    tracer.end_op(len((outcome.text or "").encode()))
                    outcomes.append(outcome)
    return outcomes, perf_counter() - started


def per_layer(workload: str, seed: int, seconds: float, env):
    """Alternate untraced and traced in-process passes until ``seconds``
    have elapsed; report per-pass layer totals and the tracing overhead."""
    ops, refs, starts, _ = setup(workload, seed, env)
    outcomes, plain_s, traced_s, totals = [], [], [], []
    started = perf_counter()
    while True:
        done, wall = run_pass_in_process(workload, ops)
        outcomes += done
        plain_s.append(wall)
        tracer = Tracer()
        done, wall = run_pass_in_process(workload, ops, tracer)
        outcomes += done
        traced_s.append(wall)
        totals.append(tracer.layer_totals())
        if perf_counter() - started >= seconds:
            break
    tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
    failures = check_outcomes(outcomes, refs)
    passes = len(totals)
    mean = {}
    for name in totals[0]:
        value = sum(t[name] for t in totals) / passes
        mean[name] = round(value) if name in COUNT_METRICS else value

    def ratio(num, den):
        return mean[num] / mean[den] if mean[den] else 0.0

    metrics = {name: (mean[name], passes) for name in PER_LAYER_UNITS if name in mean}
    metrics["cli.process_start_s"] = (statistics.median(starts), len(starts))
    metrics["hhengine.accept_ratio"] = (ratio("hhengine.accepted", "hhengine.candidates"), passes)
    metrics["trace.overhead_s"] = (statistics.fmean(traced_s) - statistics.fmean(plain_s), passes)
    # These layers matter only on audit, which BENCHMARK.json does not gate,
    # and read 0 on one gated workload or both, so they are printed but kept
    # out of the JSON metrics.
    notes = {"cli.serialize_s": (mean["cli.serialize_s"], passes, "s"),
             "cli.stdout_bytes": (mean["cli.stdout_bytes"], passes, "bytes"),
             "hhengine.oracle_s": (mean["hhengine.oracle_s"], passes, "s"),
             "hhengine.oracle_scan_steps": (mean["hhengine.oracle_scan_steps"], passes, "count"),
             "hhengine.oracle_hit_ratio": (ratio("hhengine.oracle_hits", "hhengine.oracle_scan_steps"),
                                           passes, "ratio"),
             "failed_ratio": (len(failures) / len(outcomes), len(outcomes), "ratio"),
             "traced_pass_s": (statistics.fmean(traced_s), passes, "s"),
             "untraced_pass_s": (statistics.fmean(plain_s), passes, "s")}
    return outcomes, failures, {name: metrics[name] for name in PER_LAYER_UNITS}, notes, PER_LAYER_UNITS


# -- entry point ------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, env) -> dict:
    measure = per_layer if trace else end_to_end
    outcomes, failures, metrics, notes, units = measure(workload, seed, seconds, env)
    for message in failures[:20]:
        print(f"# {workload} FAILED {message}", file=sys.stderr)
    for name, (value, samples) in metrics.items():
        print(f"# {workload} {name} = {value:.6g} {units[name]} (n={samples})")
    for name, (value, samples, unit) in notes.items():
        print(f"# {workload} {name} = {value:.6g} {unit} (n={samples})")
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env = prepare()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for workload in workloads:
            results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace), env)
            if len(workloads) > 1:
                print(json.dumps({"workload": workload, **results[workload]}))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
