import gc
import io
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mfhh
import mfhh.cli as cli
from mfhh.cli import canonical_json, run
from mfhh.charlat import CharacterLattice, Weight
from mfhh.hhengine import (
    DEGREE_BUDGET,
    ELEMENT_BUDGET,
    SCAN_BUDGET,
    STRATUM_DEGREE_BUDGET,
    WITNESS_BUDGET,
    PropositionCheck,
    PropositionReport,
    oracle_bounds,
)


def invoke(*argv):
    buf = io.StringIO()
    code = run(list(argv), out=buf)
    return code, buf.getvalue()


def test_hh_json_report_values():
    code, out = invoke("hh", "--exponents", "2,2,3,5", "--stabilize",
                       "--k-min", "0", "--k-max", "3", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert list(report) == ["exponents", "stabilized", "kerchi_order",
                            "milnor", "hh", "engine"]
    assert report["exponents"] == [2, 2, 3, 5]
    assert report["stabilized"] is True
    assert report["kerchi_order"] == 60
    assert report["milnor"] == 8
    assert report["engine"] == "closed-form"
    by_k = {row["k"]: row["dim"] for row in report["hh"]}
    assert by_k[0] == 2 and by_k[3] == 8


def test_json_round_trip_is_byte_identical():
    for argv in [
        ("hh", "--exponents", "2,2,3,5", "--stabilize", "--k-min", "-2",
         "--k-max", "3", "--witnesses", "--format", "json"),
        ("group", "--exponents", "2,2,3", "--stabilize", "--format", "json"),
        ("milnor", "--exponents", "2,2,3,5", "--format", "json"),
        ("verify", "--exponents", "2,2,3,5", "--stabilize", "--format", "json"),
    ]:
        code, out = invoke(*argv)
        assert code == 0
        assert canonical_json(json.loads(out)) + "\n" == out


# Any code point, lone surrogates included, and the ones json.dumps treats
# specially drawn often.
json_chars = st.characters(exclude_categories=()) | st.sampled_from(
    '"\\\b\f\n\r\t\x00\x1f\x7f\x80\u2028\uffff\U0001f600')
json_values = st.recursive(
    st.booleans() | st.integers(min_value=-2**80, max_value=2**80) | st.text(json_chars),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(json_chars, max_size=4), children, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_canonical_json_matches_json_dumps(value):
    """Every control character, quote, backslash, non-ASCII and astral
    character is escaped as json.dumps escapes it, and integers past 2^64
    are written whole."""
    assert canonical_json(value) == json.dumps(value, separators=(",", ":"))


@pytest.mark.parametrize("value", [1.5, [0, 0.0], {"k": None}, {1: 2}])
def test_canonical_json_refuses_what_reports_never_hold(value):
    with pytest.raises(TypeError):
        canonical_json(value)


def test_hh_witness_payload():
    code, out = invoke("hh", "--exponents", "2,2,3,5", "--stabilize",
                       "--k-min", "3", "--k-max", "3", "--witnesses",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["hh"]
    assert len(rows) == 1 and rows[0]["dim"] == 8
    witnesses = rows[0]["witnesses"]
    assert len(witnesses) == 8
    for w in witnesses:
        assert list(w) == ["gamma_index", "gamma", "summand", "monomial", "u"]
        assert w["summand"] == "even"
        assert w["u"] == -1
        assert w["monomial"] == [0, 0, 0, 0, 0]
        assert all("." not in q for q in w["gamma"])  # exact fractions only


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, argv", [
    ("hh_2235_stabilized_witnesses.json",
     ("hh", "--exponents", "2,2,3,5", "--stabilize", "--witnesses", "--format", "json")),
    ("hh_233_stabilized_witnesses.txt",
     ("hh", "--exponents", "2,3,3", "--stabilize", "--witnesses", "--format", "table")),
    ("hh_223_witnesses.json",
     ("hh", "--exponents", "2,2,3", "--witnesses", "--format", "json")),
    # chi_0.free = L*q_0 = 1: every monomial shares one chi_0-coset; a_0 reaches 168
    ("hh_237_stabilized_witnesses.json",
     ("hh", "--exponents", "2,3,7", "--stabilize", "--k-min", "-8", "--k-max", "8",
      "--witnesses", "--format", "json")),
    # chi_0.free = -2: coset keys floor-divide by a negative divisor
    ("hh_3344_stabilized_witnesses.json",
     ("hh", "--exponents", "3,3,4,4", "--stabilize", "--k-min", "-10", "--k-max", "10",
      "--witnesses", "--format", "json")),
    # chi_0.free = 4, with torsion
    ("hh_446_stabilized_witnesses.txt",
     ("hh", "--exponents", "4,4,6", "--stabilize", "--k-min", "-8", "--k-max", "8",
      "--witnesses", "--format", "table")),
    # The lattice line names the Smith invariant factors; 2,3,5 has none.
    ("group_2244_stabilized.txt",
     ("group", "--exponents", "2,2,4,4", "--stabilize")),
    ("group_235_stabilized.json",
     ("group", "--exponents", "2,3,5", "--stabilize", "--format", "json")),
    # chi_0.free = L*q_0 = 1 over 400 degrees: coset buckets hold many
    # monomials, and a_0 reaches 178795
    ("hh_23743_stabilized_wide.csv",
     ("hh", "--exponents", "2,3,7,43", "--stabilize", "--k-min", "-200", "--k-max", "199",
      "--format", "csv")),
    # Six-digit degrees widen the k column past its minimum of 5.
    ("hh_237_stabilized_far.txt",
     ("hh", "--exponents", "2,3,7", "--stabilize", "--k-min", "99999", "--k-max", "100001")),
])
def test_witness_reports_match_golden_files(name, argv):
    """Witness lists, their order and their formatting, and the group
    reports, byte for byte."""
    code, out = invoke(*argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_stored_reports_reproduce_byte_for_byte():
    """Every report stored for the benchmark's checks comes back from
    ``hh --format json`` unchanged."""
    refs = json.loads((Path(__file__).parent.parent / "perfbench" / "reference"
                       / "reports.json").read_text())
    assert refs
    for key, ref in sorted(refs.items()):
        exps, _, stabilized = key.partition(" ")
        argv = ["hh", "--exponents", exps, "--format", "json"] + ["--stabilize"] * bool(stabilized)
        assert invoke(*argv) == (0, ref + "\n"), key


def test_degrees_past_64_bits():
    """Integers have no fixed width: degrees past 2^63 repeat the period of
    2,3,7 stabilized, dim 12 from degree 4 on."""
    code, out = invoke("hh", "--exponents", "2,3,7", "--stabilize", "--k-min",
                       "9223372036854775800", "--k-max", "9223372036854775809", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,dim", *(f"{k},12" for k in range(2**63 - 8, 2**63 + 2))]


def test_wide_window_on_few_large_exponents_is_fast():
    """Strata that fix z_0 look up exact chi_0-cosets, so a wide window on
    few large exponents stays cheap; the stored csv is the earlier engine's."""
    started = time.perf_counter()
    code, out = invoke("hh", "--exponents", "10,10,10,10,10", "--stabilize",
                       "--k-min", "-200", "--k-max", "199", "--format", "csv")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert out.encode() == (GOLDEN / "hh_10x5_stabilized_wide.csv").read_bytes()
    assert elapsed < 15.0, f"took {elapsed:.1f}s"


def test_wide_window_answers_under_an_address_space_cap():
    """A plain table counts each accepted term into its degree and keeps no
    list of terms: 2,3,7,43 over 5000 degrees accepts millions of terms,
    all within every budget, and the console script answers them under a
    256 MB address-space cap (keeping each term took over 400 MB)."""
    resource = pytest.importorskip("resource")
    cap = 256 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = Path(mfhh.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", "from mfhh.cli import main; main()", "hh", "--exponents",
         "2,3,7,43", "--stabilize", "--k-min", "0", "--k-max", "4999", "--format", "csv"],
        capture_output=True, text=True, timeout=120, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.splitlines()
    assert len(lines) == 5001 and lines[0] == "k,dim"
    golden = (GOLDEN / "hh_23743_stabilized_wide.csv").read_text().splitlines()
    assert lines[1:201] == golden[golden.index("0,1"):]


def test_no_floating_point_anywhere():
    code, out = invoke("hh", "--exponents", "2,2,3,5", "--stabilize",
                       "--witnesses", "--format", "json")
    assert code == 0

    def walk(node):
        assert not isinstance(node, float)
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(out))


def test_csv_format():
    code, out = invoke("hh", "--exponents", "2,2,3", "--stabilize",
                       "--k-min", "0", "--k-max", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,dim"
    assert lines[1:] == ["0,2", "1,2", "2,2"]


def test_csv_restricted_to_hh(capsys):
    for command in ("milnor", "group", "verify", "oracle"):
        code, out = invoke(command, "--exponents", "2,2,3", "--stabilize", "--format", "csv")
        assert code == 1 and out == "", command
        assert "invalid choice: 'csv'" in capsys.readouterr().err, command


def test_parallel_only_on_hh(capsys):
    for command in ("group", "milnor", "verify", "oracle"):
        code, out = invoke(command, "--exponents", "2,2,3", "--stabilize", "--parallel", "2")
        assert code == 1 and out == "", command
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err, command
    assert invoke("hh", "--exponents", "2,2,3", "--stabilize", "--parallel", "2")[0] == 0
    assert invoke("hh", "--exponents", "2,2,3", "--stabilize", "--parallel", "0")[0] == 1


def test_milnor_table_output():
    code, out = invoke("milnor", "--exponents", "2,2,3,5")
    assert code == 0
    assert out.strip() == "8"


def test_group_json():
    code, out = invoke("group", "--exponents", "2,2,3,5", "--stabilize",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["free_rank"] == 1
    assert payload["kerchi_order"] == 60
    assert len(payload["elements"]) == 60
    assert payload["elements"][0] == ["0", "0", "0", "0", "0"]
    assert all(len(el) == 5 for el in payload["elements"])


def test_group_needs_no_grading():
    """sum(1/k_i) = 1 leaves the stabilizer powers ungraded, which stops hh
    (AmbiguousGrading) but not the group data."""
    code, out = invoke("group", "--exponents", "2,3,6", "--stabilize")
    assert code == 0
    assert "lattice   : Z + Z/6\n|ker chi| : 36\n" in out
    assert len(out.splitlines()) == 4 + 36
    code, out = invoke("group", "--exponents", "2,3,6", "--stabilize", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["torsion"] == [6]
    assert payload["kerchi_order"] == len(payload["elements"]) == 36


def test_default_degree_range():
    code, out = invoke("hh", "--exponents", "2,2,3,5", "--stabilize",
                       "--format", "csv")
    assert code == 0
    ks = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
    # N - 1 = 3, so the default window is [-6, 6]
    assert ks == list(range(-6, 7))


def test_verify_json_payload():
    code, out = invoke("verify", "--exponents", "2,2,4,5", "--stabilize",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "exponents": [2, 2, 4, 5], "stabilized": True, "status": "pass", "reasons": [],
        "checks": [{"label": "dim HH^0", "degree": 0, "computed": 3, "expected": 3},
                   {"label": "dim HH^3", "degree": 3, "computed": 12, "expected": 12}]}
    code, out = invoke("verify", "--exponents", "2,3,5", "--stabilize", "--format", "json")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "hypotheses_not_met"
    assert payload["reasons"] == ["need two quadratic exponents, found 1"]
    assert payload["checks"] == []


def test_verify_mismatch_exit_code(monkeypatch):
    fake = PropositionReport(
        status="mismatch", reasons=(),
        checks=(PropositionCheck("dim HH^0", 0, 1, 2),))
    monkeypatch.setattr(cli, "verify_proposition", lambda p: fake)
    code, out = invoke("verify", "--exponents", "2,2,3,5", "--stabilize")
    assert code == 2
    assert "MISMATCH" in out


def test_oracle_agrees_and_exits_zero():
    code, out = invoke("oracle", "--exponents", "2,2,3,5", "--stabilize",
                       "--k-min", "-4", "--k-max", "4")
    assert code == 0
    assert "DISAGREE" not in out
    a0_bound, u_bound = oracle_bounds((2, 2, 3, 5), True, -4, 4)
    assert f"bounds    : a0 <= {a0_bound}, |u| <= {u_bound}" in out


def test_oracle_json_uses_fixed_schema():
    code, out = invoke("oracle", "--exponents", "2,2,3", "--stabilize",
                       "--k-min", "0", "--k-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "oracle"
    assert {row["k"]: row["dim"] for row in payload["hh"]} == {0: 2, 1: 2, 2: 2}


# (argv, exit code, report, the "mfhh: error:" line on stderr or None).
# Each expectation is what the argparse grammar answered: values spaced or
# after "=", unique prefixes, negative values, the last of a repeated option,
# -h anywhere, and the texts of its usage errors.
GRAMMAR = [
    (("hh", "--exponents=2,2,3", "--stabilize", "--k-min=0", "--k-max=2", "--format=csv"),
     0, "k,dim\n0,2\n1,2\n2,2\n", None),
    (("hh", "--exp", "2,2,3", "--stab", "--k-mi", "0", "--k-ma", "2", "--form", "csv"),
     0, "k,dim\n0,2\n1,2\n2,2\n", None),
    (("hh", "--exponents", "2,2,3", "--k-m", "0"),
     1, "", "mfhh: error: ambiguous option: --k-m could match --k-min, --k-max"),
    (("hh", "--exponents", "2,2,3", "--k-m=0"),
     1, "", "mfhh: error: ambiguous option: --k-m=0 could match --k-min, --k-max"),
    (("hh", "--exponents", "2,2,3,5", "--stabilize", "--k-min", "-2", "--k-max", "-1",
      "--format", "csv"), 0, "k,dim\n-2,1\n-1,1\n", None),
    (("hh", "--exponents", "2,2,3", "--k-min", "-1.5"),
     1, "", "mfhh: error: argument --k-min: invalid int value: '-1.5'"),
    (("milnor", "--exponents", "-2,3"),
     1, "", "mfhh: error: argument --exponents: expected one argument"),
    (("milnor", "--exponents=-2,3"),
     1, "", "mfhh: error: argument --exponents: every exponent must be >= 2"),
    (("milnor", "--exponents", "2,5", "--format", "json", "--format", "table",
      "--exponents", "2,3"), 0, "2\n", None),
    (("--help",), 0, cli._help(None) + "\n", None),
    (("-h",), 0, cli._help(None) + "\n", None),
    (("hh", "--help"), 0, cli._help("hh") + "\n", None),
    (("oracle", "--exponents", "2,2,3", "-h"), 0, cli._help("oracle") + "\n", None),
    (("hh", "--help", "--exponents", "x"), 0, cli._help("hh") + "\n", None),
    (("hh", "--exponents", "x", "--help"),
     1, "", "mfhh: error: argument --exponents: not a comma-separated integer list: 'x'"),
    (("hh", "--exponents", "2,x"),
     1, "", "mfhh: error: argument --exponents: not a comma-separated integer list: '2,x'"),
    (("milnor", "--exponents", "2,1"),
     1, "", "mfhh: error: argument --exponents: every exponent must be >= 2"),
    (("hh", "-hx"), 1, "", "mfhh: error: argument -h/--help: ignored explicit argument 'x'"),
    ((), 1, "", "mfhh: error: the following arguments are required: subcommand"),
    (("nonsense", "--exponents", "2,2"), 1, "",
     "mfhh: error: argument subcommand: invalid choice: 'nonsense'"
     " (choose from 'group', 'milnor', 'hh', 'verify', 'oracle')"),
    (("hh", "--stabilize"),
     1, "", "mfhh: error: the following arguments are required: --exponents"),
    (("group", "--exponents", "2,3", "--format", "csv"), 1, "",
     "mfhh: error: argument --format: invalid choice: 'csv' (choose from 'table', 'json')"),
    (("oracle", "--exponents", "2,2,3", "--stabilize", "--parallel", "2"),
     1, "", "mfhh: error: unrecognized arguments: --parallel 2"),
    (("hh", "--exponents", "2,2,3", "--k-min"),
     1, "", "mfhh: error: argument --k-min: expected one argument"),
    (("hh", "--exponents", "2,2,3", "--k-min", "--k-max", "3"),
     1, "", "mfhh: error: argument --k-min: expected one argument"),
    (("hh", "--exponents", "2,2,3", "--stabilize=1"),
     1, "", "mfhh: error: argument --stabilize: ignored explicit argument '1'"),
    (("hh", "--exponents", "2,2,3", "--parallel", "x"),
     1, "", "mfhh: error: argument --parallel: invalid int value: 'x'"),
    (("hh", "--exponents", "2,2,3", "foo"), 1, "", "mfhh: error: unrecognized arguments: foo"),
    (("hh", "--exponents", "2,2,3", "-x", "--bogus", "1", "--parallel=2", "y"),
     1, "", "mfhh: error: unrecognized arguments: -x --bogus 1 y"),
    (("--stab", "hh", "--exponents", "2,3"), 1, "", "mfhh: error: unrecognized arguments: --stab"),
    (("hh", "--exponents", "2,2,3", "--", "--stabilize"),
     1, "", "mfhh: error: unrecognized arguments: -- --stabilize"),
    # Value checks past the grammar: usage errors too, with the usage line.
    (("hh", "--exponents", "2,2,3", "--k-min", "4", "--k-max", "1"),
     1, "", "mfhh: error: --k-min 4 exceeds --k-max 1"),
    (("hh", "--exponents", "2,2,3", "--parallel", "0"),
     1, "", "mfhh: error: --parallel must be >= 1"),
    (("oracle", "--exponents", "2,2,3", "--a0-bound", "-1"),
     1, "", "mfhh: error: --a0-bound must be >= 0"),
    (("oracle", "--exponents", "2,2,3", "--u-bound", "-1"),
     1, "", "mfhh: error: --u-bound must be >= 0"),
]


@pytest.mark.parametrize("argv, code, report, error", GRAMMAR,
                         ids=[" ".join(case[0]) or "(no arguments)" for case in GRAMMAR])
def test_command_line_grammar(argv, code, report, error, capsys):
    assert invoke(*argv) == (code, report)  # help, too, goes to out
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if line.startswith("mfhh: error:")] == (
        [error] if error else [])
    assert captured.out == ""
    if code == 1:  # the usage line of the subcommand read, if any
        command = next((word for word in argv if word in cli._COMMANDS), None)
        assert captured.err.startswith(f"usage: mfhh {command}" if command else "usage: mfhh [-h]")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integer strings of any length")
@pytest.mark.parametrize("command, option", [
    pytest.param(command, option, id=option) for command, option in (
        ("milnor", "--exponents"), ("hh", "--k-min"), ("hh", "--k-max"), ("hh", "--parallel"),
        ("oracle", "--a0-bound"), ("oracle", "--u-bound"))])
def test_over_long_exponent_names_the_digit_limit(command, option, capsys):
    """An integer argument past Python's int-string limit, with or without
    underscores between its digits, is a usage error that says so: the
    usage line and one short error line, which echoes only the start of
    the argument."""
    limit = sys.get_int_max_str_digits()
    noun = "an exponent" if option == "--exponents" else "the value"
    for value in ("1" + "0" * (limit + 100), "1_" * (limit + 99) + "1"):
        argv = ((command, option, value + ",3") if option == "--exponents"
                else (command, "--exponents", "2,3", option, value))
        assert invoke(*argv) == (1, "")
        err = capsys.readouterr().err
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: mfhh {command} ")
        assert error.startswith(f"mfhh: error: argument {option}: {noun} is longer than"
                                f" {limit} digits")
        assert len(err) < 400


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python converts integer strings of any length")
@pytest.mark.parametrize("argv, error", [
    (("hh", "--exponents", "2,3", "--k-min", "x" * 5000),
     "argument --k-min: invalid int value: " + repr("x" * 40) + "... (5000 characters)"),
    (("milnor", "--exponents", "x" * 5000 + ",3"),
     "argument --exponents: not a comma-separated integer list: " + repr("x" * 40)
     + "... (5002 characters)"),
    # Refused by int for the trailing underscore, not for its 2300 or 4400 digits.
    (("hh", "--exponents", "2,3", "--k-min", "1_" * 2300),
     "argument --k-min: invalid int value: " + repr("1_" * 20) + "... (4600 characters)"),
    (("hh", "--exponents", "2,3", "--k-min", "1_" * 4400),
     "argument --k-min: invalid int value: " + repr("1_" * 20) + "... (8800 characters)"),
], ids=["--k-min", "--exponents", "--k-min underscores", "--k-min underscores past the limit"])
def test_over_long_non_number_is_not_called_too_long(argv, error, capsys):
    """The digit limit is named only when ``int`` refuses the first bad part
    for its length; a part it refuses as a bad literal, however long, keeps
    its converter's message, echoed cut."""
    assert invoke(*argv) == (1, "")
    assert capsys.readouterr().err.splitlines()[-1] == f"mfhh: error: {error}"


def test_milnor_past_64_bits_exits_zero():
    code, out = invoke("milnor", "--exponents", f"{2**40},{2**40}")
    assert (code, out) == (0, "1208925819612430151450625\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_milnor_too_long_to_print_is_refused(fmt, capsys):
    huge = "1" + "0" * 2200
    assert invoke("milnor", "--exponents", f"{huge},{huge}", "--format", fmt) == (4, "")
    assert capsys.readouterr().err.startswith("Budget: the Milnor number is too long to print")


def test_ambiguous_grading_exit_code(capsys):
    code, _ = invoke("hh", "--exponents", "2,3,6", "--stabilize",
                     "--k-min", "0", "--k-max", "0")
    assert code == 4
    assert "AmbiguousGrading" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["hh", "group"])
@pytest.mark.parametrize("instance", [["1000,1000,1000"], ["2,2,101,103,107,109", "--stabilize"],
                                      ["10,10,10,10,10,10", "--stabilize"]])
def test_over_budget_fails_fast(command, instance, capsys):
    started = time.perf_counter()
    code, out = invoke(command, "--exponents", *instance)
    assert time.perf_counter() - started < 1.0
    assert code == 4 and out == ""
    assert capsys.readouterr().err.startswith("Budget: ")


@pytest.mark.parametrize("command", ["hh", "oracle"])
def test_wide_degree_window_fails_fast(command, capsys):
    for argv in [
        ("--exponents", "2,3", "--k-min", "-100000000", "--k-max", "100000000"),
        # 4096 strata over 10^4 degrees: within the degree budget, over the
        # stratum-degree budget
        ("--exponents", ",".join(["2"] * 12), "--stabilize", "--k-min", "-5000", "--k-max", "4999"),
    ]:
        started = time.perf_counter()
        code, out = invoke(command, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 4 and out == ""
        assert capsys.readouterr().err.startswith("Budget: ")


def test_stratum_budget_refuses_before_any_stratum_is_built(monkeypatch, capsys):
    """Sixteen 2s give 65536 strata; over the default 61 degrees the
    refusal comes before a single dual weight is formed."""
    def refuse(self, other):
        raise AssertionError("built a stratum")

    monkeypatch.setattr(Weight, "__sub__", refuse)
    code, out = invoke("hh", "--exponents", ",".join(["2"] * 16), "--stabilize")
    assert code == 4 and out == ""
    assert capsys.readouterr().err == (
        "Budget: 65536 strata over 61 degrees give 3997696 stratum-degree pairs,"
        " more than the budget 2000000\n")


def test_group_builds_no_strata(monkeypatch):
    argv = ("group", "--exponents", "2,2,3,5", "--stabilize", "--format", "json")
    expected = invoke(*argv)

    def refuse(self):
        raise AssertionError("counted moving sets")

    monkeypatch.setattr(CharacterLattice, "moving_set_counts", refuse)
    assert invoke(*argv) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("bounds", [
    ("--k-min", "100000000", "--k-max", "100000000"),
    ("--u-bound", "100000000"),
    ("--a0-bound", "1000000000"),
])
def test_oracle_scan_window_fails_fast(bounds, capsys):
    """Windows needing more than the scan budget are refused before the
    scan; the u window costs no lookups, so a wide one answers with the rows
    of the default bounds."""
    started = time.perf_counter()
    code, out = invoke("oracle", "--exponents", "2,3", "--stabilize", *bounds)
    assert time.perf_counter() - started < 1.0
    if bounds[0] == "--u-bound":
        _, default = invoke("oracle", "--exponents", "2,3", "--stabilize")
        assert code == 0
        assert "bounds    : a0 <= 31, |u| <= 100000000\n" in out
        assert ([line for line in out.splitlines() if not line.startswith("bounds")]
                == [line for line in default.splitlines() if not line.startswith("bounds")])
        return
    assert code == 4 and out == ""
    assert capsys.readouterr().err.startswith("Budget: ")


@pytest.mark.parametrize("k, dim", [(10000, 2), (-10000, 0)])
def test_oracle_answers_far_degree_windows(k, dim):
    """The oracle's cost does not grow with |u|, so a one-degree window far
    from 0 is scanned like any other."""
    code, out = invoke("oracle", "--exponents", "2,3", "--stabilize",
                       "--k-min", str(k), "--k-max", str(k))
    assert code == 0
    assert "bounds    : a0 <= 30025, |u| <= 5002\n" in out
    assert f"{k:>5} {dim:>8} {dim:>8}  yes\n" in out
    assert out.endswith("status    : agree\n")


def test_oracle_table_columns_widen_to_their_longest_entry():
    code, out = invoke("oracle", "--exponents", "2,3,7", "--stabilize", "--k-min", "99999",
                       "--k-max", "100001", "--a0-bound", "0", "--u-bound", "0")
    assert code == 2
    assert "\n     k   engine   oracle  agree\n 99999       12        0  NO\n" in out
    assert "\n100000       12        0  NO\n" in out


def test_witness_budget_refuses_before_enumerating(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("enumerated ker chi")

    monkeypatch.setattr(CharacterLattice, "enumerate_ker_chi", refuse)
    code, out = invoke("hh", "--exponents", "10,10,10,10,10", "--stabilize",
                       "--k-min", "-200", "--k-max", "199", "--witnesses", "--format", "json")
    assert code == 4 and out == ""
    assert capsys.readouterr().err == (
        "Budget: degrees -200..199 have 283753 witnesses, more than the"
        " witness budget 100000\n")


@pytest.mark.parametrize("argv", [
    ("hh", "--witnesses", "--format", "table"),
    ("hh", "--witnesses", "--format", "json"),
    ("group", "--format", "table"),
    ("group", "--format", "json"),
])
def test_kernel_is_enumerated_once(argv, monkeypatch):
    calls = []
    enumerate_ker_chi = CharacterLattice.enumerate_ker_chi

    def counting(self):
        calls.append(self)
        return enumerate_ker_chi(self)

    monkeypatch.setattr(CharacterLattice, "enumerate_ker_chi", counting)
    code, out = invoke(*argv, "--exponents", "2,2,3,5", "--stabilize")
    assert code == 0 and out
    assert len(calls) == 1


def test_import_loads_no_heavy_standard_modules():
    """A fresh ``import mfhh, mfhh.cli`` loads nothing the hh path does not
    run: records are named tuples, fractions loads where phases are made,
    and the console script reads its options itself.  No JSON report of any
    subcommand loads json: every string a report holds is written without
    escapes."""
    src = Path(mfhh.__file__).resolve().parent.parent
    probe = textwrap.dedent("""\
        import io, sys, mfhh, mfhh.cli
        print(*sorted({'dataclasses', 'inspect', 'fractions', 'decimal', 'typing',
                       'argparse', 'gettext', 'json'} & set(sys.modules)))
        for argv in (("hh", "--exponents", "2,2,3,5", "--stabilize", "--witnesses"),
                     ("group", "--exponents", "2,3,5", "--stabilize"),
                     ("milnor", "--exponents", "2,2,3,5"),
                     ("verify", "--exponents", "2,2,3,5", "--stabilize"),
                     ("verify", "--exponents", "2,3,5", "--stabilize"),
                     ("oracle", "--exponents", "2,2,3", "--stabilize")):
            print(mfhh.cli.run([*argv, "--format", "json"], out=io.StringIO()), end=" ")
        print('json' in sys.modules)
    """)
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    loaded, codes = result.stdout.splitlines()
    assert loaded == ""
    assert codes == "0 0 0 0 3 0 False"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_quietly():
    """A reader that stops after one line (``mfhh group ... | head -n 1``)
    leaves no traceback on stderr."""
    src = Path(mfhh.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "mfhh.cli", "group", "--exponents", "2,2,5,7,11,13",
         "--stabilize"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline() == b"exponents : 2,2,5,7,11,13 (stabilized)\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""


@pytest.mark.parametrize("argv, expected", [
    (("group", "--exponents", "2,3,5", "--stabilize", "--format", "json"), 0),
    (("milnor", "--exponents", "2,2,3,5"), 0),
    (("hh", "--exponents", "2,2,3,5", "--stabilize", "--witnesses"), 0),
    (("verify", "--exponents", "2,2,3,5", "--stabilize"), 0),
    (("oracle", "--exponents", "2,2,3", "--stabilize"), 0),
    (("oracle", "--exponents", "2,2,3", "--stabilize", "--parallel", "2"), 1),  # usage
    (("verify", "--exponents", "2,3,5", "--stabilize"), 3),  # hypotheses not met
    (("hh", "--exponents", "2,2,101,103,107,109", "--stabilize"), 4),  # Budget
    (("hh", "--exponents", "2,3,6", "--stabilize"), 4),  # AmbiguousGrading
    (("hh", "--help"), 0),
    # about 200 KB on one line: nothing is lost between the flush and os._exit
    (("group", "--exponents", "2,2,3,5,7,11", "--stabilize", "--format", "json"), 0),
])
def test_console_entry_matches_run(argv, expected, capsys):
    """The console script flushes its streams and ends by ``os._exit``; what
    it prints and returns is what ``run()`` does in-process, and ``run()``
    itself neither exits nor freezes the collector's heap."""
    frozen = gc.get_freeze_count()
    code, out = invoke(*argv)
    assert gc.get_freeze_count() == frozen
    captured = capsys.readouterr()
    assert captured.out == ""  # run() prints help, too, to out
    err = captured.err
    assert code == expected
    src = Path(mfhh.__file__).resolve().parent.parent
    result = subprocess.run([sys.executable, "-c", "from mfhh.cli import main; main()", *argv],
                            capture_output=True, text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert (result.returncode, result.stdout, result.stderr) == (code, out, err)


def test_public_names_resolve():
    for name in mfhh.__all__:
        getattr(mfhh, name)


def test_plain_hh_never_enumerates_the_kernel(monkeypatch):
    def refuse(self):
        raise AssertionError("enumerated ker chi")

    monkeypatch.setattr(CharacterLattice, "enumerate_ker_chi", refuse)
    for args in (["json"], ["table"], ["csv"], ["csv", "--witnesses"]):
        code, out = invoke("hh", "--exponents", "2,2,3,5,7", "--stabilize", "--format", *args)
        assert code == 0 and out


def test_help_goes_to_out(capsys):
    """Top-level help lands in ``out``, not on sys.stdout, and is built from
    the tables: the subcommands, exit codes 0-4 and the five budgets."""
    buf = io.StringIO()
    assert run(["--help"], out=buf) == 0
    assert capsys.readouterr() == ("", "")
    text = buf.getvalue()
    assert text.startswith("usage: mfhh [-h] {group,milnor,hh,verify,oracle} ...\n")
    assert len(text.encode()) <= 1024
    lines = text.splitlines()
    for name in cli._COMMANDS:
        assert any(line.startswith(f"  {name} ") for line in lines), name
    assert [line[:5] for line in lines if line[2:3].isdigit()] == [
        f"  {code}  " for code in range(5)]
    budgets = [line for line in lines if line.startswith("budgets: ")]
    assert len(budgets) == 1
    assert re.findall(r"<= (\d+)", budgets[0]) == [str(value) for value in (
        ELEMENT_BUDGET, DEGREE_BUDGET, STRATUM_DEGREE_BUDGET, WITNESS_BUDGET, SCAN_BUDGET)]


def test_help_does_not_read_the_module_docstring(monkeypatch):
    expected = invoke("--help")
    monkeypatch.setattr(cli, "__doc__", "replaced")
    assert invoke("--help") == expected
