"""Graph serialization.

Real-world inputs for the paper's datasets (YAGO3, DBpedia, IMDB) arrive as
edge lists plus vertex-label tables.  This module reads and writes a simple
TSV format so users with the actual dumps can load them:

``<path>.nodes``::

    <vertex-id>\t<label>[\t<name>]

``<path>.edges``::

    <source-id>\t<target-id>

Vertex ids in files may be arbitrary non-negative integers; they are
compacted to dense ids on load (the returned mapping reports the
correspondence).
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.graph.digraph import Graph, LabelTable
from repro.utils.errors import GraphError


def graph_from_edge_list(
    labels: Sequence[str],
    edges: Iterable[Tuple[int, int]],
    label_table: Optional[LabelTable] = None,
    names: Optional[Dict[int, str]] = None,
) -> Graph:
    """Build a graph from a dense label list and an edge iterable.

    ``labels[i]`` is the label of vertex ``i``; every edge must reference
    ids below ``len(labels)``.
    """
    graph = Graph(label_table)
    for i, label in enumerate(labels):
        name = names.get(i) if names else None
        graph.add_vertex(label, name=name)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


def save_graph_tsv(graph: Graph, path_prefix: str) -> Tuple[str, str]:
    """Write ``<prefix>.nodes`` and ``<prefix>.edges``; returns both paths."""
    nodes_path = path_prefix + ".nodes"
    edges_path = path_prefix + ".edges"
    with open(nodes_path, "w", encoding="utf-8") as nodes_file:
        for v in graph.vertices():
            name = graph.names.get(v)
            if name is not None:
                nodes_file.write(f"{v}\t{graph.label(v)}\t{name}\n")
            else:
                nodes_file.write(f"{v}\t{graph.label(v)}\n")
    with open(edges_path, "w", encoding="utf-8") as edges_file:
        for u, v in graph.edges():
            edges_file.write(f"{u}\t{v}\n")
    return nodes_path, edges_path


def load_graph_tsv(path_prefix: str) -> Tuple[Graph, Dict[int, int]]:
    """Load a graph saved by :func:`save_graph_tsv`.

    Returns the graph and a map from file vertex ids to dense graph ids.
    """
    nodes_path = path_prefix + ".nodes"
    edges_path = path_prefix + ".edges"
    if not os.path.exists(nodes_path):
        raise GraphError(f"missing node file: {nodes_path}")
    if not os.path.exists(edges_path):
        raise GraphError(f"missing edge file: {edges_path}")

    graph = Graph()
    id_map: Dict[int, int] = {}
    with open(nodes_path, "r", encoding="utf-8") as nodes_file:
        for line_no, raw in enumerate(nodes_file, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise GraphError(
                    f"{nodes_path}:{line_no}: expected '<id>\\t<label>', got {line!r}"
                )
            try:
                file_id = int(parts[0])
            except ValueError:
                raise GraphError(
                    f"{nodes_path}:{line_no}: non-integer vertex id {parts[0]!r}"
                ) from None
            if file_id in id_map:
                raise GraphError(f"{nodes_path}:{line_no}: duplicate id {file_id}")
            name = parts[2] if len(parts) > 2 else None
            id_map[file_id] = graph.add_vertex(parts[1], name=name)

    with open(edges_path, "r", encoding="utf-8") as edges_file:
        for line_no, raw in enumerate(edges_file, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GraphError(
                    f"{edges_path}:{line_no}: expected '<src>\\t<dst>', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphError(
                    f"{edges_path}:{line_no}: non-integer endpoint in {line!r}"
                ) from None
            if u not in id_map or v not in id_map:
                raise GraphError(
                    f"{edges_path}:{line_no}: edge references unknown vertex"
                )
            graph.add_edge(id_map[u], id_map[v])
    return graph, id_map
