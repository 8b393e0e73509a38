"""Summary graphs: ``Bisim(G)`` and its reverse ``Bisim^{-1}``.

Sec. 2 of the paper defines the summary graph of ``G`` under the maximal
bisimulation ``B``:

* ``V' = { [v]_equiv | v in V }`` — one supernode per equivalence class;
* ``E' = { ([u]_equiv, [v]_equiv) | (u, v) in E }``;
* ``L'([v]_equiv) = L(v)`` — well defined because equivalent vertices share
  a label.

``Bisim^{-1}`` — mapping a supernode back to its member vertices — "is
implemented by hash tables" in the paper; here it is the ``extent`` dict.
The summary graph is deliberately *yet another* :class:`~repro.graph.Graph`
so every index and search algorithm applies to it unchanged, which is the
crux of the framework's genericity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.bisim.refinement import maximal_bisimulation
from repro.graph.digraph import Graph
from repro.utils.errors import GraphError


@dataclass
class SummaryGraph:
    """A summary graph plus the two hash tables linking it to its base graph.

    Attributes
    ----------
    graph:
        The summary topology (a plain :class:`Graph` sharing the base
        graph's label table).
    supernode_of:
        ``supernode_of[v]`` is the supernode of base vertex ``v``
        (the paper's ``Bisim(v)``).
    extent:
        ``extent[s]`` lists the base vertices summarized by supernode ``s``
        (the paper's ``Bisim^{-1}``), sorted ascending.
    """

    graph: Graph
    supernode_of: List[int]
    extent: List[List[int]] = field(default_factory=list)

    def members(self, supernode: int) -> List[int]:
        """Base vertices of one supernode (``Bisim^{-1}``)."""
        try:
            return self.extent[supernode]
        except IndexError:
            raise GraphError(f"unknown supernode: {supernode}") from None

    def supernode(self, base_vertex: int) -> int:
        """Supernode of one base vertex (``Bisim``)."""
        try:
            return self.supernode_of[base_vertex]
        except IndexError:
            raise GraphError(f"unknown base vertex: {base_vertex}") from None

    def size_ratio(self, base_graph: Graph) -> float:
        """``|Bisim(G)| / |G|`` with ``|G| = |V| + |E|`` (Tab. 3's metric)."""
        return self.graph.size / base_graph.size if base_graph.size else 1.0


def summarize(
    graph: Graph,
    blocks: Sequence[int] | None = None,
) -> SummaryGraph:
    """Summarize ``graph`` by (maximal) bisimulation.

    Parameters
    ----------
    graph:
        The graph to summarize.
    blocks:
        Optional precomputed partition (block id per vertex); when omitted
        the maximal bisimulation is computed.  Index maintenance supplies
        the seeded refinement of the old partition here.

    Returns
    -------
    SummaryGraph
    """
    if blocks is None:
        block_of = maximal_bisimulation(graph)
    else:
        if len(blocks) != graph.num_vertices:
            raise GraphError("blocks must assign an id to every vertex")
        block_of = list(blocks)

    num_blocks = (max(block_of) + 1) if block_of else 0
    summary = Graph(graph.label_table)
    extent: List[List[int]] = [[] for _ in range(num_blocks)]
    for v in graph.vertices():
        extent[block_of[v]].append(v)

    for block_id in range(num_blocks):
        members = extent[block_id]
        if not members:
            raise GraphError(f"partition block {block_id} is empty")
        # L'([v]) = L(v): all members share a label by the bisim invariant.
        summary.add_vertex_with_label_id(graph.labels[members[0]])

    seen_edges = set()
    for u, v in graph.edges():
        edge = (block_of[u], block_of[v])
        if edge not in seen_edges:
            seen_edges.add(edge)
            summary.add_edge(*edge)

    return SummaryGraph(graph=summary, supernode_of=block_of, extent=extent)
