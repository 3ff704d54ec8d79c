"""Benchmark of the Mix-GEMM reproduction; run ``perfbench/run.py``."""
