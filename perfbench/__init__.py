"""Benchmark of clothofit: seeded workloads, checked outputs, traced layers.

Entry point: ``python3 perfbench/run.py --help`` from the repository root.
"""
