"""Command-line front end.

Subcommands:

* ``group``  -- character-lattice structure, kernel order, element list
* ``milnor`` -- Milnor number of the polynomial
* ``hh``     -- cohomology dimension table over a degree range; the only
  subcommand that offers ``--format csv`` and accepts ``--parallel N`` (validated
  for compatibility, without effect: the engine starts no worker processes)
* ``verify`` -- closed-form degree-0 / degree-n predictions for the
  stabilized {2,2} + p family (exit 0 on pass, 2 on mismatch, 3 on any other
  input)
* ``oracle`` -- bounded rescan compared against the closed-form engine
  (exit 0 iff they agree on every degree)

Reports contain only exact integers and reduced fraction strings; JSON
output is canonical (fixed key order, no whitespace) so re-serializing a
parsed report reproduces it byte for byte.  Exit codes: 1 for usage errors,
4 when a computation aborts on Overflow, AmbiguousGrading or Budget (the
error name goes to stderr).  Budget is checked before anything is
enumerated: every subcommand that builds the engine (all but ``milnor``)
refuses instances with prod(k_i) = |ker chi| above 10^5; ``hh`` and
``oracle`` refuse degree windows of more than 10^4 degrees, and windows
whose degrees times moving-set strata exceed 2*10^6 (checked before any
stratum is built); ``hh --witnesses`` refuses windows with more than 10^5
witnesses (checked after counting, before the group is enumerated);
``oracle`` refuses scan windows (given or derived) that need more than 10^7
weight lookups.  These bound the size of every enumeration and scan, not its
time.
"""

from __future__ import annotations

import argparse
import json
import sys

from mfhh.charlat import AmbiguousGradingError, GroupElement
from mfhh.diagpoly import DiagonalPolynomial, milnor_number
from mfhh.hhengine import (
    BudgetExceededError,
    HHReport,
    HochschildEngine,
    oracle_bounds,
    verify_proposition,
)
from mfhh.intlat import IntegerOverflowError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _parse_exponents(text: str) -> tuple[int, ...]:
    try:
        exps = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")
    if not exps:
        raise argparse.ArgumentTypeError("exponent list is empty")
    if any(k < 2 for k in exps):
        raise argparse.ArgumentTypeError("every exponent must be >= 2")
    return exps


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfhh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_common(p, command, hh=False, k_range=False, bounds=False):
        p.set_defaults(command=command, k_min=None, k_max=None, witnesses=False,
                       a0_bound=None, u_bound=None, parallel=1)
        p.add_argument("--exponents", required=True, type=_parse_exponents,
                       metavar="k1,k2,...", help="diagonal exponents, each >= 2")
        p.add_argument("--stabilize", action="store_true",
                       help="adjoin the extra degree-compensating variable z0")
        p.add_argument("--format", dest="fmt", default="table",
                       choices=["table", "json", "csv"] if hh else ["table", "json"])
        if hh:
            p.add_argument("--parallel", type=int, metavar="N",
                           help="accepted for compatibility; has no effect")
        if k_range:
            p.add_argument("--k-min", type=int)
            p.add_argument("--k-max", type=int)
        if hh:
            p.add_argument("--witnesses", action="store_true",
                           help="list every contribution behind each dimension")
        if bounds:
            p.add_argument("--a0-bound", type=int, metavar="B",
                           help="stabilizer-power scan bound (default: a-priori bound"
                                " from the degree equation)")
            p.add_argument("--u-bound", type=int, metavar="U",
                           help="largest |u| of a counted chi-multiple u*chi (default:"
                                " a-priori bound for the range)")

    add_common(sub.add_parser("group", help="print the symmetry group data"), cmd_group)
    add_common(sub.add_parser("milnor", help="print the Milnor number"), cmd_milnor)
    add_common(sub.add_parser("hh", help="print the dimension table"), cmd_hh,
               hh=True, k_range=True)
    add_common(sub.add_parser("verify", help="check the closed-form predictions"), cmd_verify)
    add_common(sub.add_parser("oracle", help="compare the bounded rescan with the engine"),
               cmd_oracle, k_range=True, bounds=True)
    return parser


def _check_args(args) -> None:
    """Reject option combinations argparse cannot express, and fill in the
    default degree window [-2n, 2n]."""
    n = len(args.exponents) - 1
    if args.k_min is None:
        args.k_min = -2 * n
    if args.k_max is None:
        args.k_max = 2 * n
    if args.k_min > args.k_max:
        raise _UsageError(f"--k-min {args.k_min} exceeds --k-max {args.k_max}")
    if args.parallel < 1:
        raise _UsageError("--parallel must be >= 1")
    if args.a0_bound is not None and args.a0_bound < 0:
        raise _UsageError("--a0-bound must be >= 0")
    if args.u_bound is not None and args.u_bound < 0:
        raise _UsageError("--u-bound must be >= 0")


def canonical_json(payload) -> str:
    """Serializer used for every JSON report: fixed key order as built,
    no whitespace, no floats anywhere."""
    return json.dumps(payload, separators=(",", ":"))


def _phase_strings(gamma: GroupElement) -> list[str]:
    return [str(q) for q in gamma.phases]


def _monomial_string(exponents, variables) -> str:
    parts = [f"z{v}^{a}" for v, a in zip(variables, exponents) if a]
    return " ".join(parts) if parts else "1"


def _header_line(exps, stabilized) -> str:
    tag = " (stabilized)" if stabilized else ""
    return f"exponents : {','.join(str(k) for k in exps)}{tag}"


# -- hh ---------------------------------------------------------------------

def _witness_payload(w, kernel):
    return {
        "gamma_index": w.gamma_index,
        "gamma": _phase_strings(kernel[w.gamma_index]),
        "summand": w.summand,
        "monomial": list(w.exponents),
        "u": w.u,
    }


def _hh_payload(report: HHReport, kernel):
    rows = []
    for row in report.dimensions:
        item = {"k": row.degree, "dim": row.dim}
        if row.witnesses is not None:
            item["witnesses"] = [_witness_payload(w, kernel) for w in row.witnesses]
        rows.append(item)
    return {
        "exponents": list(report.exponents),
        "stabilized": report.stabilized,
        "kerchi_order": report.kerchi_order,
        "milnor": report.milnor,
        "hh": rows,
        "engine": report.engine,
    }


def _print_hh_table(report: HHReport, engine: HochschildEngine, out):
    print(_header_line(report.exponents, report.stabilized), file=out)
    print(f"|ker chi| : {report.kerchi_order}", file=out)
    print(f"milnor    : {report.milnor}", file=out)
    print(f"engine    : {report.engine}", file=out)
    print(f"{'k':>5} {'dim':>8}", file=out)
    variables = engine.polynomial.variables
    for row in report.dimensions:
        print(f"{row.degree:>5} {row.dim:>8}", file=out)
        if row.witnesses:
            for w in row.witnesses:
                phases = ",".join(_phase_strings(engine.kernel[w.gamma_index]))
                print(f"        gamma[{w.gamma_index}]=({phases})  {w.summand}"
                      f"  u={w.u}  {_monomial_string(w.exponents, variables)}",
                      file=out)


def cmd_hh(args, out) -> int:
    engine = HochschildEngine(DiagonalPolynomial(args.exponents, args.stabilize))
    # csv prints no witnesses, so it never asks for them.
    report = engine.table(args.k_min, args.k_max,
                          witnesses=args.witnesses and args.fmt != "csv")
    if args.fmt == "json":
        kernel = engine.kernel if args.witnesses else None
        print(canonical_json(_hh_payload(report, kernel)), file=out)
    elif args.fmt == "csv":
        print("k,dim", file=out)
        for row in report.dimensions:
            print(f"{row.degree},{row.dim}", file=out)
    else:
        _print_hh_table(report, engine, out)
    return 0


# -- group / milnor ----------------------------------------------------------

def cmd_group(args, out) -> int:
    engine = HochschildEngine(DiagonalPolynomial(args.exponents, args.stabilize))
    lat = engine.lattice
    if args.fmt == "json":
        payload = {
            "exponents": list(args.exponents),
            "stabilized": args.stabilize,
            "free_rank": 1,
            "torsion": list(lat.torsion_mods),
            "kerchi_order": len(engine.kernel),
            "elements": [_phase_strings(g) for g in engine.kernel],
        }
        print(canonical_json(payload), file=out)
    else:
        print(_header_line(args.exponents, args.stabilize), file=out)
        torsion = " + ".join(f"Z/{d}" for d in lat.torsion_mods)
        print(f"lattice   : Z{' + ' + torsion if torsion else ''}", file=out)
        print(f"|ker chi| : {len(engine.kernel)}", file=out)
        print("elements (phases, z0 first when stabilized):", file=out)
        for i, gamma in enumerate(engine.kernel):
            print(f"  {i:>6}  ({','.join(_phase_strings(gamma))})", file=out)
    return 0


def cmd_milnor(args, out) -> int:
    mu = milnor_number(DiagonalPolynomial(args.exponents, args.stabilize))
    if args.fmt == "json":
        payload = {
            "exponents": list(args.exponents),
            "stabilized": args.stabilize,
            "milnor": mu,
        }
        print(canonical_json(payload), file=out)
    else:
        print(mu, file=out)
    return 0


# -- verify -------------------------------------------------------------------

def cmd_verify(args, out) -> int:
    report = verify_proposition(DiagonalPolynomial(args.exponents, args.stabilize))
    if args.fmt == "json":
        payload = {
            "exponents": list(args.exponents),
            "stabilized": args.stabilize,
            "status": report.status,
            "reasons": list(report.reasons),
            "checks": [
                {"label": c.label, "degree": c.degree,
                 "computed": c.computed, "expected": c.expected}
                for c in report.checks
            ],
        }
        print(canonical_json(payload), file=out)
    else:
        print(_header_line(args.exponents, args.stabilize), file=out)
        print(f"status    : {report.status}", file=out)
        for reason in report.reasons:
            print(f"  reason  : {reason}", file=out)
        for c in report.checks:
            mark = "ok" if c.computed == c.expected else "MISMATCH"
            print(f"  {c.label}: computed {c.computed}, expected {c.expected}  [{mark}]",
                  file=out)
    if report.status == "pass":
        return 0
    if report.status == "mismatch":
        return 2
    return 3


# -- oracle --------------------------------------------------------------------

def cmd_oracle(args, out) -> int:
    engine = HochschildEngine(DiagonalPolynomial(args.exponents, args.stabilize))
    closed = engine.table(args.k_min, args.k_max)
    derived = oracle_bounds(args.exponents, args.stabilize, args.k_min, args.k_max)
    a0_bound = derived[0] if args.a0_bound is None else args.a0_bound
    u_bound = derived[1] if args.u_bound is None else args.u_bound
    oracle = engine.bruteforce_report(args.k_min, args.k_max, a0_bound, u_bound)
    mismatches = [
        (c.degree, c.dim, o.dim)
        for c, o in zip(closed.dimensions, oracle.dimensions)
        if c.dim != o.dim
    ]
    if args.fmt == "json":
        print(canonical_json(_hh_payload(oracle, None)), file=out)
    else:
        print(_header_line(args.exponents, args.stabilize), file=out)
        print(f"bounds    : a0 <= {a0_bound}, |u| <= {u_bound}", file=out)
        print(f"{'k':>5} {'engine':>8} {'oracle':>8}  agree", file=out)
        for c, o in zip(closed.dimensions, oracle.dimensions):
            print(f"{c.degree:>5} {c.dim:>8} {o.dim:>8}  {'yes' if c.dim == o.dim else 'NO'}",
                  file=out)
        print(f"status    : {'agree' if not mismatches else 'DISAGREE'}", file=out)
    for k, c, o in mismatches:
        print(f"oracle mismatch at k={k}: engine {c}, oracle {o}", file=sys.stderr)
    return 0 if not mismatches else 2


# Errors that abort a computation with exit 4, and the name printed for each.
_ABORTS = {IntegerOverflowError: "Overflow", AmbiguousGradingError: "AmbiguousGrading",
           BudgetExceededError: "Budget"}


def run(argv, out=None) -> int:
    """Parse argv, dispatch, and return the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_args(args)
    except _UsageError as exc:
        print(f"mfhh: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.command(args, out)
    except tuple(_ABORTS) as exc:
        print(f"{_ABORTS[type(exc)]}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    import signal  # here, not in run(), which tests and the benchmark call in-process
    if hasattr(signal, "SIGPIPE"):  # a reader that closes the pipe (| head) ends us quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
