import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mfhh
import mfhh.cli as cli
from mfhh.cli import canonical_json, run
from mfhh.charlat import CharacterLattice, Weight
from mfhh.hhengine import PropositionCheck, PropositionReport, oracle_bounds


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
    # chi_0.free = 1: every monomial shares one chi_0-coset; a_0 reaches 168
    ("hh_237_stabilized_witnesses.json",
     ("hh", "--exponents", "2,3,7", "--stabilize", "--k-min", "-8", "--k-max", "8",
      "--witnesses", "--format", "json")),
    # chi_0.free = 2, with torsion
    ("hh_3344_stabilized_witnesses.json",
     ("hh", "--exponents", "3,3,4,4", "--stabilize", "--k-min", "-10", "--k-max", "10",
      "--witnesses", "--format", "json")),
    # chi_0.free = -4: coset keys floor-divide by a negative divisor
    ("hh_446_stabilized_witnesses.txt",
     ("hh", "--exponents", "4,4,6", "--stabilize", "--k-min", "-8", "--k-max", "8",
      "--witnesses", "--format", "table")),
])
def test_witness_reports_match_golden_files(name, argv):
    """Witness lists, their order and their formatting, byte for byte."""
    code, out = invoke(*argv)
    assert code == 0
    assert out.encode() == (GOLDEN / name).read_bytes()


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


def test_parallel_outputs_are_byte_identical():
    argv = ("hh", "--exponents", "2,2,3,5", "--stabilize", "--k-min", "-6",
            "--k-max", "6", "--witnesses", "--format", "json")
    code1, out1 = invoke(*argv, "--parallel", "1")
    code4, out4 = invoke(*argv, "--parallel", "4")
    assert code1 == code4 == 0
    assert out1 == out4


def test_verify_exit_codes():
    for exps in ("2,2,3,5", "2,2,4,5", "2,2,3,3", "2,2,2"):
        assert invoke("verify", "--exponents", exps, "--stabilize")[0] == 0, exps
    assert invoke("verify", "--exponents", "2,3,5", "--stabilize")[0] == 3
    assert invoke("verify", "--exponents", "2,2", "--stabilize")[0] == 3
    assert invoke("verify", "--exponents", "2,2,3,5")[0] == 3


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


def test_usage_errors_exit_one(capsys):
    assert invoke("hh", "--exponents", "2,x")[0] == 1
    assert invoke("hh", "--exponents", "2,2,3", "--k-min", "4", "--k-max", "1")[0] == 1
    assert invoke("hh", "--exponents", "2,2,3", "--parallel", "0")[0] == 1
    assert invoke("nonsense", "--exponents", "2,2")[0] == 1
    assert invoke()[0] == 1
    capsys.readouterr()


def test_exponents_below_two_rejected():
    assert invoke("milnor", "--exponents", "2,1")[0] == 1


def test_overflow_exit_code(capsys):
    code, _ = invoke("milnor", "--exponents",
                     f"{2**40},{2**40}")
    assert code == 4
    assert "Overflow" in capsys.readouterr().err


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
    run: records are named tuples, and fractions loads where phases or the
    oracle's bounds are made."""
    src = Path(mfhh.__file__).resolve().parent.parent
    probe = ("import sys, mfhh, mfhh.cli; print(*sorted({'dataclasses', 'inspect',"
             " 'fractions', 'decimal', 'typing'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                            text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []


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


def test_help_exits_zero(capsys):
    assert invoke("--help")[0] == 0
    capsys.readouterr()
