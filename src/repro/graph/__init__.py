"""Directed labeled graph substrate.

This package implements the data-graph model of Sec. 2 of the paper: a
directed graph :math:`G = (V, E, L, \\Sigma)` with a label per vertex, plus
the traversal primitives (BFS, bounded shortest distances, reachability),
serialization, r-hop subgraph sampling (used by the index cost model), and a
BFS-grow partitioner standing in for METIS (used by the shard planner).
"""
