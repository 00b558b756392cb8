"""Command-line front end: ``mfhh <subcommand> --exponents k1,k2,... [options]``.

``_parse`` is the one function that reads and checks a command line.  It
reads it by the option tables (``_COMMANDS``) with the grammar argparse
gave, down to the texts of its usage errors, and prints nothing: it
returns the options or the help text asked for, or raises ``_UsageError``.
``run`` is the one place that prints: help and reports to ``out``, a usage
error as the usage line and ``mfhh: error: ...`` on stderr.  Help is built
from the tables and the budget constants, never from this docstring; the
README documents the grammar, exit codes and budgets for users.

JSON reports are canonical (``canonical_json``): a string that needs
escapes, which no report holds, is handed to ``json.dumps``, and only then
is ``json`` loaded.  The console script (``main``) flushes its streams and
ends by ``os._exit``, skipping interpreter shutdown; ``run`` never exits.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from mfhh.charlat import AmbiguousGradingError, GroupElement
from mfhh.diagpoly import DiagonalPolynomial, milnor_number
from mfhh.hhengine import (
    DEGREE_BUDGET,
    ELEMENT_BUDGET,
    SCAN_BUDGET,
    STRATUM_DEGREE_BUDGET,
    WITNESS_BUDGET,
    BudgetExceededError,
    HHReport,
    HochschildEngine,
    oracle_bounds,
    verify_proposition,
)


class _UsageError(Exception):
    """A command line the grammar refuses; ``command`` is the subcommand
    read before the error, or None."""
    command = None


def _echo(text: str) -> str:
    """``text`` quoted for an error message, cut to its first 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def _ints(text: str, parts, noun: str, invalid: str) -> tuple[int, ...]:
    """``int`` of each of ``parts`` of ``text``.  ValueError names Python's
    digit limit if ``int`` refused the first bad part for its length, else
    says ``invalid``; both _echo ``text``."""
    try:
        return tuple(map(int, parts))
    except ValueError as error:
        if str(error).startswith("Exceeds the limit"):
            raise ValueError(f"{noun} is longer than {sys.get_int_max_str_digits()} digits,"
                             f" the most Python converts: {_echo(text)}") from None
        raise ValueError(f"{invalid}: {_echo(text)}") from None


def _parse_exponents(text: str) -> tuple[int, ...]:
    exps = _ints(text, text.split(","), "an exponent", "not a comma-separated integer list")
    return DiagonalPolynomial(exps).exponents


def _int(text: str) -> int:
    return _ints(text, (text,), "the value", "invalid int value")[0]


def _choice(*names):
    def convert(text: str) -> str:
        if text not in names:
            choices = ", ".join(map(repr, names))
            raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
        return text
    return convert


# -- command-line grammar -----------------------------------------------------
#
# One row per option: the name errors give it, the attribute it sets, its
# converter (None for a flag, which sets True; a converter raises ValueError
# with the message), the placeholder usage shows for its value, and its help
# line.  _COMMANDS lists each subcommand's rows, and _parse reads a command
# line by them with the grammar argparse gave, down to the texts of its
# usage errors.

_HELP = ("-h/--help", None, None, None, "show this help message and exit")
_EXPONENTS = ("--exponents", "exponents", _parse_exponents, "k1,k2,...",
              "diagonal exponents, each >= 2 (required)")
_STABILIZE = ("--stabilize", "stabilize", None, None,
              "adjoin the extra degree-compensating variable z0")
_FORMAT = ("--format", "fmt", _choice("table", "json"), "{table,json}", "output format")
_HH_FORMAT = ("--format", "fmt", _choice("table", "json", "csv"), "{table,json,csv}",
              "output format")
_PARALLEL = ("--parallel", "parallel", _int, "N", "accepted for compatibility; has no effect")
_K_MIN = ("--k-min", "k_min", _int, "K_MIN", "lowest degree (default -2n, n = N - 1)")
_K_MAX = ("--k-max", "k_max", _int, "K_MAX", "highest degree (default 2n)")
_WITNESSES = ("--witnesses", "witnesses", None, None,
              "list every contribution behind each dimension")
_A0_BOUND = ("--a0-bound", "a0_bound", _int, "B",
             "stabilizer-power scan bound (default: a-priori bound from the degree equation)")
_U_BOUND = ("--u-bound", "u_bound", _int, "U",
            "largest |u| of a counted chi-multiple u*chi (default: a-priori bound for the range)")
_DEFAULTS = {"exponents": None, "stabilize": False, "fmt": "table", "parallel": 1,
             "k_min": None, "k_max": None, "witnesses": False, "a0_bound": None, "u_bound": None}


def _options(*rows) -> dict:
    return {"-h": _HELP, "--help": _HELP, **{row[0]: row for row in rows}}


def _is_negative_number(token: str) -> bool:
    """argparse's ``^-\\d+$|^-\\d*\\.\\d+$``: such a token is a value, not an option."""
    whole, dot, fraction = token[1:].partition(".")
    return fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _lookup(token: str, options: dict):
    """None for a positional token; (row, value after "=" or None) for an
    option of ``options``; (None, None) for any other option."""
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return options[token], None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return options[name], value
    if token[1] == "-":
        matches = [option for option in options if option.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return options[matches[0]], value if eq else None
    elif token[:2] in options:  # -hX
        return options[token[:2]], token[2:]
    return None if _is_negative_number(token) or " " in token else (None, None)


def _classify(tokens: list, options: dict) -> list:
    """_lookup of every token before "--".  All are classified before any
    is read, so an ambiguous prefix is reported first, as argparse did."""
    if "--" in tokens:
        tokens = tokens[:tokens.index("--")]
    return [_lookup(token, options) for token in tokens]


def _convert(name: str, convert, text: str):
    try:
        return convert(text)
    except ValueError as exc:
        raise _UsageError(f"argument {name}: {exc}") from None


def _parse(argv):
    """The checked options of ``argv``, with the default degree window
    [-2n, 2n] filled in, or the help text when it asks for help.  Raises
    _UsageError, which carries the subcommand read so far."""
    command, tokens = None, list(argv)
    values, leftovers = dict(_DEFAULTS), []
    try:
        found, i = _classify(tokens, _options()), 0
        while i < len(tokens):
            token, kind = tokens[i], found[i] if i < len(found) else None
            i += 1
            if kind is None and command is None:
                command = _convert("subcommand", _choice(*_COMMANDS), token)
                tokens = tokens[i:]
                found, i = _classify(tokens, _options(*_COMMANDS[command][2])), 0
                continue
            if token == "--":  # what follows is positional, and no option takes it
                leftovers += tokens[i - 1:]
                break
            if kind is None or kind[0] is None:
                leftovers.append(token)
                continue
            (name, attr, convert, _, _), value = kind
            if convert is None:  # a flag, or -h/--help
                if value is not None:
                    raise _UsageError(f"argument {name}: ignored explicit argument {value!r}")
                if attr is None:
                    return _help(command)
                values[attr] = True
                continue
            if value is None:
                if i == len(found) or found[i] is not None:
                    raise _UsageError(f"argument {name}: expected one argument")
                value = tokens[i]
                i += 1
            values[attr] = _convert(name, convert, value)
        if command is None:
            raise _UsageError("the following arguments are required: subcommand")
        if values["exponents"] is None:
            raise _UsageError("the following arguments are required: --exponents")
        if leftovers:
            raise _UsageError(f"unrecognized arguments: {' '.join(leftovers)}")
        args = SimpleNamespace(command=_COMMANDS[command][0], **values)
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
    except _UsageError as exc:
        exc.command = command
        raise
    return args


def _spelled(row) -> str:
    return row[0] if row[3] is None else f"{row[0]} {row[3]}"


def _usage(command) -> str:
    if command is None:
        return f"usage: mfhh [-h] {{{','.join(_COMMANDS)}}} ..."
    words = (_spelled(row) if row is _EXPONENTS else f"[{_spelled(row)}]"
             for row in _COMMANDS[command][2])
    return " ".join([f"usage: mfhh {command} [-h]", *words])


def _help(command) -> str:
    if command is None:
        lines = ["subcommands (mfhh SUBCOMMAND -h lists its options):",
                 *(f"  {name:<8}{summary}" for name, (_, summary, _) in _COMMANDS.items()),
                 "", "exit codes:", *(f"  {code}  {text}" for code, text in enumerate(_EXITS)),
                 "", f"budgets: |ker chi| = prod(k_i) <= {ELEMENT_BUDGET}, window degrees <= "
                 f"{DEGREE_BUDGET}, strata x degrees <= {STRATUM_DEGREE_BUDGET}, witnesses <= "
                 f"{WITNESS_BUDGET}, oracle scan tests <= {SCAN_BUDGET}"]
    else:
        _, summary, rows = _COMMANDS[command]
        lines = [summary, "", "options:",
                 *(f"  {_spelled(row):<26}{row[4]}" for row in (_HELP, *rows))]
    return "\n".join([_usage(command), "", *lines])


def canonical_json(payload) -> str:
    """Serializer used for every JSON report: fixed key order as built, no
    whitespace, strings escaped as ``json.dumps`` escapes them by default.
    Reports hold only dicts with str keys, lists, tuples, bools, ints and
    strs; anything else raises TypeError."""
    if isinstance(payload, str):
        return _json_string(payload)
    if isinstance(payload, bool):
        return "true" if payload else "false"
    if isinstance(payload, int):
        return int.__repr__(payload)
    if isinstance(payload, (list, tuple)):
        return "[" + ",".join(map(canonical_json, payload)) + "]"
    if isinstance(payload, dict):
        items = (f"{_json_string(k)}:{canonical_json(v)}" for k, v in payload.items())
        return "{" + ",".join(items) + "}"
    raise TypeError(f"Object of type {type(payload).__name__} is not JSON serializable")


def _json_string(text) -> str:
    if not isinstance(text, str):  # a dict key
        raise TypeError(f"keys must be str, not {type(text).__name__}")
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # here, for a string no report holds: every report string is plain
    return json.dumps(text)


def _phase_strings(gamma: GroupElement) -> list[str]:
    return [str(q) for q in gamma.phases]


def _monomial_string(exponents, stabilized) -> str:
    parts = [f"z{v}^{a}" for v, a in enumerate(exponents, start=0 if stabilized else 1) if a]
    return " ".join(parts) if parts else "1"


def _header_line(exps, stabilized) -> str:
    tag = " (stabilized)" if stabilized else ""
    return f"exponents : {','.join(str(k) for k in exps)}{tag}"


# -- hh ---------------------------------------------------------------------

def _witness_payload(w):
    return {
        "gamma_index": w.gamma_index,
        "gamma": _phase_strings(w.gamma),
        "summand": w.summand,
        "monomial": list(w.exponents),
        "u": w.u,
    }


def _hh_payload(report: HHReport):
    rows = []
    for row in report.dimensions:
        item = {"k": row.degree, "dim": row.dim}
        if row.witnesses is not None:
            item["witnesses"] = [_witness_payload(w) for w in row.witnesses]
        rows.append(item)
    return {
        "exponents": list(report.exponents),
        "stabilized": report.stabilized,
        "kerchi_order": report.kerchi_order,
        "milnor": report.milnor,
        "hh": rows,
        "engine": report.engine,
    }


def _width(minimum: int, values) -> int:
    """Width of a table column: its longest entry, and at least ``minimum``."""
    return max([minimum, *(len(str(v)) for v in values)])


def _print_hh_table(report: HHReport, out):
    print(_header_line(report.exponents, report.stabilized), file=out)
    print(f"|ker chi| : {report.kerchi_order}", file=out)
    print(f"milnor    : {report.milnor}", file=out)
    print(f"engine    : {report.engine}", file=out)
    kw = _width(5, (row.degree for row in report.dimensions))
    dw = _width(8, (row.dim for row in report.dimensions))
    print(f"{'k':>{kw}} {'dim':>{dw}}", file=out)
    for row in report.dimensions:
        print(f"{row.degree:>{kw}} {row.dim:>{dw}}", file=out)
        if row.witnesses:
            for w in row.witnesses:
                phases = ",".join(_phase_strings(w.gamma))
                print(f"        gamma[{w.gamma_index}]=({phases})  {w.summand}"
                      f"  u={w.u}  {_monomial_string(w.exponents, report.stabilized)}",
                      file=out)


def cmd_hh(args, out) -> int:
    # csv prints no witnesses, so it never asks for them.
    report = HochschildEngine(DiagonalPolynomial(args.exponents, args.stabilize)).table(
        args.k_min, args.k_max, witnesses=args.witnesses and args.fmt != "csv")
    if args.fmt == "json":
        print(canonical_json(_hh_payload(report)), file=out)
    elif args.fmt == "csv":
        print("k,dim", file=out)
        for row in report.dimensions:
            print(f"{row.degree},{row.dim}", file=out)
    else:
        _print_hh_table(report, out)
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
            "kerchi_order": engine.kerchi_order,
            "elements": [_phase_strings(g) for g in engine.kernel],
        }
        print(canonical_json(payload), file=out)
    else:
        print(_header_line(args.exponents, args.stabilize), file=out)
        torsion = " + ".join(f"Z/{d}" for d in lat.torsion_mods)
        print(f"lattice   : Z{' + ' + torsion if torsion else ''}", file=out)
        print(f"|ker chi| : {engine.kerchi_order}", file=out)
        print("elements (phases, z0 first when stabilized):", file=out)
        for i, gamma in enumerate(engine.kernel):
            print(f"  {i:>6}  ({','.join(_phase_strings(gamma))})", file=out)
    return 0


def cmd_milnor(args, out) -> int:
    mu = milnor_number(DiagonalPolynomial(args.exponents, args.stabilize))
    try:
        text = str(mu)
    except ValueError as exc:  # Python converts no int of more than 4300 digits by default
        raise BudgetExceededError(f"the Milnor number is too long to print ({exc})") from None
    if args.fmt == "json":
        payload = {
            "exponents": list(args.exponents),
            "stabilized": args.stabilize,
            "milnor": mu,
        }
        print(canonical_json(payload), file=out)
    else:
        print(text, file=out)
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
        print(canonical_json(_hh_payload(oracle)), file=out)
    else:
        print(_header_line(args.exponents, args.stabilize), file=out)
        print(f"bounds    : a0 <= {a0_bound}, |u| <= {u_bound}", file=out)
        kw = _width(5, (row.degree for row in closed.dimensions))
        ew = _width(8, (row.dim for row in closed.dimensions))
        ow = _width(8, (row.dim for row in oracle.dimensions))
        print(f"{'k':>{kw}} {'engine':>{ew}} {'oracle':>{ow}}  agree", file=out)
        for c, o in zip(closed.dimensions, oracle.dimensions):
            print(f"{c.degree:>{kw}} {c.dim:>{ew}} {o.dim:>{ow}}"
                  f"  {'yes' if c.dim == o.dim else 'NO'}", file=out)
        print(f"status    : {'agree' if not mismatches else 'DISAGREE'}", file=out)
    for k, c, o in mismatches:
        print(f"oracle mismatch at k={k}: engine {c}, oracle {o}", file=sys.stderr)
    return 0 if not mismatches else 2


# Each subcommand's function, summary and option rows.
_COMMANDS = {
    "group": (cmd_group, "print the symmetry group data", (_EXPONENTS, _STABILIZE, _FORMAT)),
    "milnor": (cmd_milnor, "print the Milnor number", (_EXPONENTS, _STABILIZE, _FORMAT)),
    "hh": (cmd_hh, "print the dimension table",
           (_EXPONENTS, _STABILIZE, _HH_FORMAT, _PARALLEL, _K_MIN, _K_MAX, _WITNESSES)),
    "verify": (cmd_verify, "check the closed-form predictions", (_EXPONENTS, _STABILIZE, _FORMAT)),
    "oracle": (cmd_oracle, "compare the bounded rescan with the engine",
               (_EXPONENTS, _STABILIZE, _FORMAT, _K_MIN, _K_MAX, _A0_BOUND, _U_BOUND)),
}

# Errors that abort a computation with exit 4, and the name printed for each.
_ABORTS = {AmbiguousGradingError: "AmbiguousGrading", BudgetExceededError: "Budget"}

# What each exit code means, for top-level help.
_EXITS = ("success, or the oracle agrees", "usage error",
          "verify mismatch, or the oracle disagrees", "verify hypotheses not met",
          "AmbiguousGrading or Budget, named on stderr")


def run(argv, out=None) -> int:
    """Parse argv, print the help or usage error it gives or dispatch it,
    and return the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = _parse(argv)
    except _UsageError as exc:
        print(_usage(exc.command), f"mfhh: error: {exc}", sep="\n", file=sys.stderr)
        return 1
    if isinstance(args, str):  # the help asked for
        print(args, file=out)
        return 0
    try:
        return args.command(args, out)
    except tuple(_ABORTS) as exc:
        print(f"{_ABORTS[type(exc)]}: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    import os
    import signal  # here, not in run(), which tests and the benchmark call in-process
    if hasattr(signal, "SIGPIPE"):  # a reader that closes the pipe (| head) ends us quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run(sys.argv[1:])
    # The answer is printed, and the process ends next.  Interpreter
    # shutdown would only free every object still alive, so the script
    # flushes what its streams hold and leaves by os._exit, which runs no
    # atexit handlers (mfhh registers none).
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
