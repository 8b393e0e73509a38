"""Directed labeled graph substrate.

This package implements the data-graph model of Sec. 2 of the paper: a
directed graph :math:`G = (V, E, L, \\Sigma)` with a label per vertex, plus
the traversal primitives (BFS, bounded shortest distances, reachability),
serialization, r-hop subgraph sampling (used by the index cost model), and a
BFS-grow partitioner standing in for METIS (used by the Blinks bi-level
index).
"""

from repro.graph.digraph import Graph, LabelTable
from repro.graph.traversal import (
    bfs_distances,
    bounded_distance,
    reachable_within,
    shortest_path,
)
from repro.graph.sampling import sample_neighborhood, sample_neighborhoods
from repro.graph.partition import partition_bfs_grow, Partition
from repro.graph.io import (
    load_graph_tsv,
    save_graph_tsv,
    graph_from_edge_list,
)

__all__ = [
    "Graph",
    "LabelTable",
    "bfs_distances",
    "bounded_distance",
    "reachable_within",
    "shortest_path",
    "sample_neighborhood",
    "sample_neighborhoods",
    "partition_bfs_grow",
    "Partition",
    "load_graph_tsv",
    "save_graph_tsv",
    "graph_from_edge_list",
]
