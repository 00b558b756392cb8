#!/usr/bin/env python3
"""Regenerate perfbench/reference/reports.json, the stored canonical reports.

For every instance the workloads compare against, this records the
``mfhh hh --format json`` line over the default window, after checking it
with the bounded recount under a-priori scan bounds (and, for the paper's
family, the closed forms).  It refuses to write a report that fails either.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from mfhh.cli import run  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.workloads import AUDIT_INSTANCES, make_pass  # noqa: E402


def reference_instances():
    seen = {(op.exponents, op.stabilized) for op in make_pass("hh-large", 0)}
    seen |= {(exps, stab) for exps, stab, _ in AUDIT_INSTANCES}
    return sorted(seen)


def main() -> int:
    reports = {}
    for exps, stab in reference_instances():
        argv = ["hh", "--exponents", ",".join(map(str, exps)), "--format", "json"]
        buf = io.StringIO()
        if run(argv + (["--stabilize"] if stab else []), out=buf) != 0:
            raise SystemExit(f"mfhh hh failed on {exps}")
        line = buf.getvalue().rstrip("\n")
        dims = {row["k"]: row["dim"] for row in json.loads(line)["hh"]}
        k_min, k_max = checks.default_window(exps)
        recount = dict(zip(range(k_min, k_max + 1), checks.bounded_recount(exps, stab, k_min, k_max)))
        if recount != dims:
            raise SystemExit(f"bounded recount disagrees on {exps}: {recount} vs {dims}")
        if checks.is_paper_family(exps, stab):
            checks.check_closed_forms(exps, dims)
        reports[checks.instance_key(exps, stab)] = line
        print(f"{checks.instance_key(exps, stab)}: ok")
    checks.REFERENCE_FILE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
