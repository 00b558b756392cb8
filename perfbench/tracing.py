"""Spans around the public calls into each mfhh module, for the traced run.

The wrappers live in the benchmark, not in ``src/``: ``installed(tracer)``
replaces each traced function in every namespace where the package looks it
up (``charlat`` and ``hhengine`` import these names directly) and restores
the originals on exit.  Spans are kept in memory; counts that need a walk
over an engine's kernel are computed by ``Tracer.end_op`` between operations,
outside every span, so they add to no layer's time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from time import perf_counter

# (module, attribute path, span name).  One function may be looked up in
# more than one namespace; each lookup site gets its own wrapper.
TRACE_POINTS = (
    ("mfhh.intlat", "smith_normal_form", "smith_normal_form"),
    ("mfhh.charlat", "smith_normal_form", "smith_normal_form"),
    ("mfhh.charlat", "build_character_lattice", "build_character_lattice"),
    ("mfhh.hhengine", "build_character_lattice", "build_character_lattice"),
    ("mfhh.charlat", "CharacterLattice.enumerate_ker_chi", "CharacterLattice.enumerate_ker_chi"),
    ("mfhh.diagpoly", "jacobi_basis", "jacobi_basis"),
    ("mfhh.hhengine", "jacobi_basis", "jacobi_basis"),
    ("mfhh.hhengine", "HochschildEngine.__init__", "HochschildEngine.__init__"),
    ("mfhh.hhengine", "HochschildEngine.table", "HochschildEngine.table"),
    ("mfhh.hhengine", "HochschildEngine.dimension", "HochschildEngine.dimension"),
    ("mfhh.hhengine", "HochschildEngine.bruteforce_table", "HochschildEngine.bruteforce_table"),
    ("mfhh.hhengine", "verify_proposition", "verify_proposition"),
    ("mfhh.cli", "verify_proposition", "verify_proposition"),
    ("mfhh.cli", "run", "cli.run"),
)

# Span name -> per-layer metric that receives the span's self time.
# ``verify_proposition`` only checks hypotheses itself; no workload runs it.
SELF_TIME_METRIC = {
    "smith_normal_form": "intlat.snf_s",
    "build_character_lattice": "charlat.lattice_s",
    "CharacterLattice.enumerate_ker_chi": "charlat.kernel_enum_s",
    "jacobi_basis": "diagpoly.jacobi_basis_s",
    "HochschildEngine.__init__": "hhengine.init_s",
    "HochschildEngine.table": "hhengine.count_s",
    "HochschildEngine.dimension": "hhengine.count_s",
    "HochschildEngine.bruteforce_table": "hhengine.oracle_s",
    "cli.run": "cli.serialize_s",
}

COUNT_METRICS = (
    "intlat.snf_calls",
    "charlat.kernel_elements",
    "diagpoly.basis_monomials",
    "hhengine.candidates",
    "hhengine.accepted",
    "hhengine.oracle_scan_steps",
    "hhengine.oracle_hits",
    "cli.stdout_bytes",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    counts: dict = field(default_factory=dict)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append(s.end - s.start - covered)
    return out


def _strata(engine) -> Counter:
    """Kernel elements grouped by what the counting loop depends on:
    (moving count, z0 fixed, Jacobi basis size of the fixed variables)."""
    poly = engine.polynomial
    strata = Counter()
    for gamma in engine.kernel:
        basis = 1
        for i in gamma.fixed:
            if i:
                basis *= poly.exponent_of(i) - 1
        strata[(len(gamma.moving), poly.stabilized and 0 in gamma.fixed, basis)] += 1
    return strata


def candidate_tests(strata: Counter, degrees) -> int:
    """(gamma, monomial, summand, degree) combinations the engine tests."""
    total = 0
    for (moving, z0_fixed, basis), mult in strata.items():
        for k in degrees:
            for shift in (0, 1) if z0_fixed else (0,):
                if (k - moving - shift) % 2 == 0:
                    total += mult * basis
    return total


def oracle_scan_steps(strata: Counter, a0_bound: int) -> int:
    """Weight lookups the bounded recount makes with the given a0 window."""
    return sum(mult * basis * (2 * (a0_bound + 1) if z0_fixed else 1)
               for (_, z0_fixed, basis), mult in strata.items())


class Tracer:
    """Span recorder for one traced pass; operations are numbered by ``begin_op``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._calls: dict[int, tuple] = {}
        self._op = -1
        self._op_first_span = 0

    def begin_op(self) -> None:
        self._op += 1
        self._op_first_span = len(self.spans)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer._op)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            tracer._calls[idx] = (args, kwargs, result)
            return result

        return traced

    def end_op(self, stdout_bytes: int = 0) -> None:
        """Turn the current operation's recorded calls into counts and drop
        the references they hold (engines, kernels, bases)."""
        strata_by_engine = {}

        def strata(engine):
            key = id(engine)
            if key not in strata_by_engine:
                strata_by_engine[key] = _strata(engine)
            return strata_by_engine[key]

        for idx in range(self._op_first_span, len(self.spans)):
            call = self._calls.pop(idx, None)
            if call is None:
                continue
            args, kwargs, result = call
            span = self.spans[idx]
            c = span.counts
            if span.name == "smith_normal_form":
                c["intlat.snf_calls"] = 1
            elif span.name == "CharacterLattice.enumerate_ker_chi":
                c["charlat.kernel_elements"] = len(result)
            elif span.name == "jacobi_basis":
                c["diagpoly.basis_monomials"] = len(result)
            elif span.name == "HochschildEngine.table":
                engine, k_min, k_max = args[:3]
                c["hhengine.candidates"] = candidate_tests(strata(engine), range(k_min, k_max + 1))
                c["hhengine.accepted"] = sum(row.dim for row in result.dimensions)
            elif span.name == "HochschildEngine.dimension":
                engine, k = args[:2]
                c["hhengine.candidates"] = candidate_tests(strata(engine), (k,))
                c["hhengine.accepted"] = result.dim
            elif span.name == "HochschildEngine.bruteforce_table":
                engine, a0_bound = args[:2]
                c["hhengine.oracle_scan_steps"] = oracle_scan_steps(strata(engine), a0_bound)
                c["hhengine.oracle_hits"] = sum(result[0].values())
            elif span.name == "cli.run":
                c["cli.stdout_bytes"] = stdout_bytes

    def layer_totals(self) -> dict[str, float]:
        """Self times and counts summed by per-layer metric name."""
        totals = dict.fromkeys(sorted(set(SELF_TIME_METRIC.values())) + list(COUNT_METRICS), 0)
        for span, own in zip(self.spans, self_times(self.spans)):
            metric = SELF_TIME_METRIC.get(span.name)
            if metric:
                totals[metric] += own
            for name, value in span.counts.items():
                totals[name] += value
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _resolve(module_name: str, attr_path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = attr_path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every TRACE_POINTS lookup through ``tracer`` while active."""
    saved = []
    try:
        for module_name, attr_path, span_name in TRACE_POINTS:
            owner, attr = _resolve(module_name, attr_path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
