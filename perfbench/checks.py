"""Output checks for every benchmark operation.

Nothing here trusts the engine it checks.  Scan windows for the bounded
recount come from the degree equation alone (``a_priori_bounds``), never from
the engine's ``max_a0``; witnesses are re-checked against the same equation
with exact fractions; dimension tables are compared with stored canonical
reports that were themselves cross-checked by the bounded recount when they
were generated (``make_reference.py``).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "reports.json"


class CheckFailure(Exception):
    """An operation's output is wrong."""


def instance_key(exponents, stabilized: bool) -> str:
    return ",".join(str(k) for k in exponents) + (" stabilized" if stabilized else "")


def load_references() -> dict[str, str]:
    """Canonical ``hh --format json`` lines over the default window, by instance key."""
    return json.loads(REFERENCE_FILE.read_text())


def default_window(exponents) -> tuple[int, int]:
    n = len(exponents) - 1
    return -2 * n, 2 * n


def stabilizer_degree(exponents) -> Fraction:
    """q_0 = 1 - sum(1/k_i): the degree of chi_0 when chi has degree 1."""
    return 1 - sum(Fraction(1, k) for k in exponents)


def is_ambiguous(exponents, stabilized: bool) -> bool:
    return stabilized and stabilizer_degree(exponents) == 0


def a_priori_bounds(exponents, stabilized: bool, k_min: int, k_max: int) -> tuple[int, int]:
    """Scan windows (a0_bound, u_bound) that contain every contribution to a
    degree in [k_min, k_max], derived from the degree equation only.

    Send chi_i to q_i = 1/k_i and chi to 1, so chi_0 goes to q_0.  A
    contribution to degree k has u = (k - |moving| - shift) / 2 with
    |moving| <= N + 1 and shift <= 1, so |u| <= U = (K + N + 2) // 2 where
    K = max(|k_min|, |k_max|).  Its degree equation

        a_0 q_0 = u - sum(a_i q_i, i fixed) + sum(q_j, j moving) + shift q_0

    has each polynomial variable contributing less than 1 in absolute value
    (a_i <= k_i - 2 and q_j <= 1/2), hence |a_0| <= (U + N) / |q_0| + 1.
    """
    n = len(exponents)
    u_bound = (max(abs(k_min), abs(k_max)) + n + 2) // 2
    if not stabilized:
        return 0, u_bound
    q0 = abs(stabilizer_degree(exponents))
    if q0 == 0:
        raise ValueError(f"stabilizer degree vanishes for {exponents}; no a0 bound exists")
    return math.floor((u_bound + n) / q0) + 1, u_bound


def bounded_recount(exponents, stabilized: bool, k_min: int, k_max: int) -> tuple[int, ...]:
    """Dimensions over [k_min, k_max] from the bounded scan (``bruteforce_table``)
    under a-priori bounds."""
    from mfhh import DiagonalPolynomial, HochschildEngine
    bounds = a_priori_bounds(exponents, stabilized, k_min, k_max)
    counts, _ = HochschildEngine(DiagonalPolynomial(exponents, stabilized)).bruteforce_table(*bounds)
    return tuple(counts.get(k, 0) for k in range(k_min, k_max + 1))


def require_dominating(used: tuple[int, int], derived: tuple[int, int]) -> None:
    """Fail unless the scan bounds actually used contain the derived ones."""
    if used[0] < derived[0] or used[1] < derived[1]:
        raise CheckFailure(f"scan bounds {used} do not dominate the a-priori bounds {derived}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _dims(payload) -> dict[int, int]:
    return {row["k"]: row["dim"] for row in payload["hh"]}


def _parse(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"output is not JSON: {exc}") from None


def is_paper_family(exponents, stabilized: bool) -> bool:
    """Stabilized {2,2} + distinct odd primes: where the closed forms are proved."""
    odd = [k for k in exponents if k != 2]
    return (stabilized and len(exponents) - len(odd) == 2 and bool(odd)
            and len(set(odd)) == len(odd)
            and all(k > 2 and all(k % d for d in range(2, math.isqrt(k) + 1)) for k in odd))


def check_closed_forms(exponents, dims: dict[int, int]) -> None:
    """dim HH^0 = k_3 - 1 and dim HH^n = mu for {2,2} + distinct odd primes."""
    odd = sorted(k for k in exponents if k != 2)
    n = len(exponents) - 1
    mu = math.prod(k - 1 for k in exponents)
    _require(dims.get(0) == odd[0] - 1, f"dim HH^0 = {dims.get(0)}, expected {odd[0] - 1}")
    _require(dims.get(n) == mu, f"dim HH^{n} = {dims.get(n)}, expected mu = {mu}")


def check_hh(op, text: str, refs) -> None:
    """Plain ``hh --format json``: byte-identical to the stored serial report
    (this also covers ``--parallel``), plus the closed forms where they apply."""
    ref = refs[instance_key(op.exponents, op.stabilized)]
    _require(text == ref + "\n", "report differs from the stored canonical report")
    if is_paper_family(op.exponents, op.stabilized):
        check_closed_forms(op.exponents, _dims(_parse(text)))


def check_witnesses(op, text: str, refs) -> None:
    """``hh --witnesses``: dims match the stored report, every row lists
    exactly ``dim`` witnesses, and each witness satisfies the degree
    equation exactly, with a_0 inside the a-priori window."""
    payload = _parse(text)
    ref = json.loads(refs[instance_key(op.exponents, op.stabilized)])
    _require(_dims(payload) == _dims(ref), "dimensions differ from the stored report")
    exps = op.exponents
    stab = op.stabilized
    q = ([stabilizer_degree(exps)] if stab else []) + [Fraction(1, k) for k in exps]
    caps = ([None] if stab else []) + [k - 2 for k in exps]
    k_min, k_max = default_window(exps)
    a0_bound, _ = a_priori_bounds(exps, stab, k_min, k_max)
    for row in payload["hh"]:
        wits = row["witnesses"]
        _require(len(wits) == row["dim"], f"k={row['k']}: {len(wits)} witnesses for dim {row['dim']}")
        for w in wits:
            phases = [Fraction(p) for p in w["gamma"]]
            poly_phases = phases[1:] if stab else phases
            _require(all((p * k).denominator == 1 for p, k in zip(poly_phases, exps)),
                     f"witness gamma {w['gamma']} is not in the symmetry group")
            if stab:
                _require((phases[0] + sum(poly_phases)) % 1 == 0,
                         f"witness gamma {w['gamma']} has nontrivial chi")
            moving = [i for i, p in enumerate(phases) if p]
            shift = 1 if w["summand"] == "odd" else 0
            mono = w["monomial"]
            _require(all(mono[i] == 0 for i in moving), "monomial uses a moving variable")
            _require(all(cap is None or a <= cap for a, cap in zip(mono, caps)),
                     "monomial is outside the Jacobi basis")
            if stab:
                _require(mono[0] <= a0_bound, f"a0 = {mono[0]} exceeds the a-priori bound {a0_bound}")
            degree = (sum(a * qi for a, qi in zip(mono, q))
                      - sum(q[i] for i in moving) - shift * (q[0] if stab else 0))
            _require(degree == w["u"], f"witness degree {degree} != u = {w['u']}")
            _require(row["k"] == 2 * w["u"] + len(moving) + shift,
                     f"witness u = {w['u']} does not belong to degree {row['k']}")


_BOUNDS_LINE = re.compile(r"^bounds\s*: a0 <= (\d+), \|u\| <= (\d+)$", re.M)
_ORACLE_ROW = re.compile(r"^\s*(-?\d+)\s+(\d+)\s+(\d+)\s+(yes|NO)$", re.M)


def check_oracle(op, text: str, refs) -> None:
    """``oracle`` (table format): it ran with bounds that dominate the
    a-priori ones, agrees on every degree, and the engine column matches the
    stored report wherever the two windows overlap."""
    bounds = _BOUNDS_LINE.search(text)
    _require(bounds is not None, "oracle output has no bounds line")
    derived = a_priori_bounds(op.exponents, op.stabilized, op.k_min, op.k_max)
    require_dominating((int(bounds[1]), int(bounds[2])), derived)
    rows = _ORACLE_ROW.findall(text)
    _require([int(r[0]) for r in rows] == list(range(op.k_min, op.k_max + 1)),
             "oracle table does not cover the requested window")
    _require(all(r[3] == "yes" and r[1] == r[2] for r in rows), "oracle disagrees with the engine")
    _require("status    : agree" in text, "oracle status is not agree")
    ref = _dims(json.loads(refs[instance_key(op.exponents, op.stabilized)]))
    for k, engine_dim, _, _ in rows:
        if int(k) in ref:
            _require(int(engine_dim) == ref[int(k)], f"engine dim at k={k} differs from the stored report")


def check_group(op, text: str, quotient_order: int) -> None:
    """``group --format json``: one element per point of ker chi, counted
    independently as the order of the lattice modulo chi."""
    payload = _parse(text)
    elements = payload["elements"]
    _require(len(elements) == quotient_order,
             f"{len(elements)} elements, but the chi quotient has order {quotient_order}")
    _require(payload["kerchi_order"] == quotient_order, "kerchi_order differs from the chi quotient")
    _require(len(set(map(tuple, elements))) == len(elements), "group elements repeat")
