"""Benchmark harness shared by the ``benchmarks/`` suite.

Each experiment of the paper's Sec. 6 maps to one file under
``benchmarks/`` (see DESIGN.md's per-experiment index); the pieces those
files share — dataset/index fixtures, direct-vs-boosted comparisons, and
paper-style table printing — live here so benchmark code stays declarative.
"""
