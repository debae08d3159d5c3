"""Benchmark for spincat: seeded scenario workloads run through the CLI,
per-job correctness checks and an optional per-layer trace.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
