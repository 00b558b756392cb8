"""End-to-end and per-layer benchmark for the mfhh package.

Run ``python3 perfbench/run.py --workload <hh-large|sweep|audit|all>`` from
the repository root; see ``perfbench/README.md`` for the metrics.
"""
