#!/usr/bin/env python3
"""Reproduce the closed-form degree-0 and top-degree dimensions for the
stabilized double suspensions with distinct odd prime exponents, with
timings.  Run after installing the package (pip install -e .).  Exits 2
if any instance disagrees with the closed forms."""

import argparse
import sys
import time

from mfhh.diagpoly import DiagonalPolynomial, milnor_number
from mfhh.hhengine import HochschildEngine

DEFAULT_INSTANCES = [
    (2, 2, 3),
    (2, 2, 3, 5),
    (2, 2, 3, 5, 7),
    (2, 2, 5, 7, 11, 13),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exponents", action="append", default=None,
                        metavar="k1,k2,...",
                        help="extra instance (repeatable); defaults to the built-in family")
    args = parser.parse_args()
    instances = list(DEFAULT_INSTANCES)
    for text in args.exponents or ():
        instances.append(tuple(int(k) for k in text.split(",")))

    print(f"{'exponents':>22} {'|ker chi|':>10} {'dim HH^0':>9} {'k3-1':>5}"
          f" {'dim HH^n':>9} {'mu':>6} {'seconds':>8}")
    mismatches = 0
    for exps in instances:
        started = time.perf_counter()
        p = DiagonalPolynomial(exps, stabilized=True)
        engine = HochschildEngine(p)
        n = len(exps) - 1
        report = engine.table(0, n)
        hh0 = report.dimension(0).dim
        hhn = report.dimension(n).dim
        elapsed = time.perf_counter() - started
        k3 = min(k for k in exps if k != 2)
        mu = milnor_number(p)
        mark = "" if (hh0, hhn) == (k3 - 1, mu) else "   <-- MISMATCH"
        mismatches += bool(mark)
        print(f"{','.join(map(str, exps)):>22} {report.kerchi_order:>10}"
              f" {hh0:>9} {k3 - 1:>5} {hhn:>9} {mu:>6} {elapsed:>8.2f}{mark}")
    sys.exit(0 if not mismatches else 2)


if __name__ == "__main__":
    main()
