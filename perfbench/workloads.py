"""Seeded inputs for the three workloads.

Each workload is a single-client closed loop over one *pass*: a fixed list
of operations.  The generator fixes what a pass contains; the seed only fills
it in (operation order, and for ``sweep`` the variable order inside each
instance), so figures from different seeds measure the same amount of work.
Drawing a random subset of small instances per seed instead moved the median
``sweep`` latency by about 10% from seed to seed, which is wider than any
bound the benchmark could keep.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod

from perfbench.checks import a_priori_bounds, is_ambiguous

# hh-large: {2,2} + four distinct odd primes <= 13; |ker chi| from 4620 to 20020.
FAMILY_PRIMES = (3, 5, 7, 11, 13)

# audit: mid-size instances, the last one unstabilized, and whether the pass
# also runs ``hh --parallel 2`` on it (2 workers, one per core).
AUDIT_INSTANCES = (
    ((2, 2, 3, 5, 7), True, False),
    ((2, 2, 3, 5, 7, 11), True, True),
    ((3, 4, 5, 6, 7), False, True),
)
AUDIT_ORACLE_WINDOW = (-10, 10)

# sweep: every exponent multiset with N <= 5, 2 <= k <= 9 and |ker chi| <= 150,
# stabilized and not.  Stabilized instances with sum(1/k_i) = 1 have a torsion
# stabilizer degree; they must raise AmbiguousGrading and are repeated so that
# they make up a fixed share of a pass.
SWEEP_MAX_VARS = 5
SWEEP_MAX_EXPONENT = 9
SWEEP_MAX_ORDER = 150
SWEEP_AMBIGUOUS_REPEATS = 4


@dataclass(frozen=True)
class CliOp:
    """One ``mfhh`` command line; ``check`` names the checker of its output."""

    check: str  # "hh" | "witnesses" | "oracle" | "group"
    exponents: tuple[int, ...]
    stabilized: bool
    argv: tuple[str, ...]
    k_min: int = 0
    k_max: int = 0


@dataclass(frozen=True)
class EngineOp:
    """``HochschildEngine(p).table(k_min, k_max)`` on one small instance."""

    exponents: tuple[int, ...]
    stabilized: bool
    k_min: int
    k_max: int

    @property
    def ambiguous(self) -> bool:
        return is_ambiguous(self.exponents, self.stabilized)


def _instance_args(exponents, stabilized) -> tuple[str, ...]:
    args = ("--exponents", ",".join(map(str, exponents)))
    return args + ("--stabilize",) if stabilized else args


def hh_large_pass(rng: random.Random) -> list[CliOp]:
    ops = []
    for odd in itertools.combinations(FAMILY_PRIMES, 4):
        exps = (2, 2) + odd
        ops.append(CliOp("hh", exps, True,
                         ("hh",) + _instance_args(exps, True) + ("--format", "json")))
    rng.shuffle(ops)
    return ops


def audit_pass(rng: random.Random) -> list[CliOp]:
    """Listing and checking on the same layers: witnesses, the bounded
    oracle and group listings on every instance, and the two-process
    fan-out on the two larger ones (11 operations)."""
    k_min, k_max = AUDIT_ORACLE_WINDOW
    ops = []
    for exps, stab, fan_out in AUDIT_INSTANCES:
        inst = _instance_args(exps, stab)
        a0_bound, u_bound = a_priori_bounds(exps, stab, k_min, k_max)
        ops.append(CliOp("witnesses", exps, stab, ("hh",) + inst + ("--witnesses", "--format", "json")))
        ops.append(CliOp("oracle", exps, stab,
                         ("oracle",) + inst + ("--k-min", str(k_min), "--k-max", str(k_max),
                                               "--a0-bound", str(a0_bound), "--u-bound", str(u_bound)),
                         k_min, k_max))
        ops.append(CliOp("group", exps, stab, ("group",) + inst + ("--format", "json")))
        if fan_out:
            ops.append(CliOp("hh", exps, stab, ("hh",) + inst + ("--parallel", "2", "--format", "json")))
    rng.shuffle(ops)
    return ops


def sweep_catalogue() -> list[tuple[tuple[int, ...], bool]]:
    """Sorted exponent tuples and stabilization flags making up one sweep pass."""
    out = []
    for n in range(1, SWEEP_MAX_VARS + 1):
        for exps in itertools.combinations_with_replacement(range(2, SWEEP_MAX_EXPONENT + 1), n):
            if prod(exps) > SWEEP_MAX_ORDER:
                continue
            out.append((exps, False))
            if is_ambiguous(exps, True):
                out.extend([(exps, True)] * SWEEP_AMBIGUOUS_REPEATS)
            else:
                out.append((exps, True))
    return out


def sweep_pass(rng: random.Random) -> list[EngineOp]:
    ops = []
    for exps, stab in sweep_catalogue():
        exps = tuple(rng.sample(exps, len(exps)))
        n = len(exps) - 1
        ops.append(EngineOp(exps, stab, -2 * n - 2, 2 * n + 2))
    rng.shuffle(ops)
    return ops


PASSES = {"hh-large": hh_large_pass, "sweep": sweep_pass, "audit": audit_pass}


def make_pass(workload: str, seed: int) -> list:
    """The operations of one pass of ``workload``; a function of the seed alone."""
    return PASSES[workload](random.Random(f"{workload}:{seed}"))
