#!/usr/bin/env python3
"""Sweep a degree window and compare the closed-form engine against the
bounded brute-force recount, instance by instance.  The recount's scan
bounds come from the degree equation (``oracle_bounds``), not from the
engine it checks."""

import argparse
import sys
import time

from mfhh.diagpoly import DiagonalPolynomial
from mfhh.hhengine import HochschildEngine, oracle_bounds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exponents", action="append", metavar="k1,k2,...",
                        default=None, help="instance to sweep (repeatable)")
    parser.add_argument("--unstabilized", action="store_true")
    parser.add_argument("--k-min", type=int, default=-10)
    parser.add_argument("--k-max", type=int, default=10)
    args = parser.parse_args()

    instances = [tuple(int(k) for k in text.split(","))
                 for text in (args.exponents or ["2,2,3", "2,2,3,5", "2,2,3,5,7"])]
    failures = 0
    for exps in instances:
        p = DiagonalPolynomial(exps, stabilized=not args.unstabilized)
        engine = HochschildEngine(p)
        started = time.perf_counter()
        report = engine.table(args.k_min, args.k_max)
        bounds = oracle_bounds(exps, p.stabilized, args.k_min, args.k_max)
        counts, oracle_max = engine.bruteforce_table(*bounds)
        elapsed = time.perf_counter() - started
        bad = [(row.degree, row.dim, counts.get(row.degree, 0))
               for row in report.dimensions if row.dim != counts.get(row.degree, 0)]
        failures += len(bad)
        nonzero = {row.degree: row.dim for row in report.dimensions if row.dim}
        print(f"{','.join(map(str, exps))}: engine max a0 {report.max_a0},"
              f" oracle max a0 {oracle_max}, {elapsed:.2f}s,"
              f" {'agree' if not bad else f'DISAGREE {bad}'}")
        print(f"    nonzero dims: {nonzero}")
    sys.exit(0 if not failures else 2)


if __name__ == "__main__":
    main()
