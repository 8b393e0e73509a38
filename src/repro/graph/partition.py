"""Balanced graph partitioning (METIS substitute).

The Blinks bi-level index (Sec. 5.3 / 6.2) partitions the data graph into
blocks of roughly constant size (the paper uses METIS with average block
size 1000) and stores intra-block distance indexes plus *portal* vertices —
vertices incident to an edge that crosses blocks.

METIS is a native library we neither ship nor need at reproduction scale, so
this module implements a deterministic BFS-grow partitioner: repeatedly seed
an unassigned vertex and grow a block breadth-first (ignoring direction)
until the block reaches the target size.  Blocks are therefore connected in
the undirected sense whenever the graph region is, which is the property the
bi-level index actually relies on; edge-cut quality only shifts constants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.graph.digraph import Graph
from repro.utils.errors import GraphError


@dataclass
class Partition:
    """A disjoint partition of a graph's vertices into numbered blocks."""

    #: block id for every vertex (dense list indexed by vertex id).
    block_of: List[int]
    #: vertex lists per block.
    blocks: List[List[int]]
    #: portal vertices: endpoints of edges crossing block boundaries.
    portals: Set[int] = field(default_factory=set)

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the partition."""
        return len(self.blocks)

    def block_members(self, block_id: int) -> List[int]:
        """The vertices of one block."""
        try:
            return self.blocks[block_id]
        except IndexError:
            raise GraphError(f"unknown block id: {block_id}") from None

    def cut_edges(self, graph: Graph) -> List[Tuple[int, int]]:
        """All edges whose endpoints live in different blocks.

        Sorted by ``(src, dst)`` so the ordering is deterministic no
        matter how the graph stores adjacency — shard planning and the
        sharded manifest digests both key off this list.
        """
        return sorted(
            (u, v)
            for (u, v) in graph.edges()
            if self.block_of[u] != self.block_of[v]
        )


def partition_bfs_grow(graph: Graph, target_block_size: int) -> Partition:
    """Partition ``graph`` into blocks of about ``target_block_size`` vertices.

    Deterministic: seeds are chosen in ascending vertex id order and BFS
    visits neighbors in adjacency order, so repeated runs produce identical
    partitions (important for reproducible benchmarks).

    Parameters
    ----------
    graph:
        Graph to partition.
    target_block_size:
        Soft upper bound on block vertex count (the last block per region
        may be smaller).

    Returns
    -------
    Partition
        Blocks, vertex->block map, and the derived portal set.
    """
    if target_block_size <= 0:
        raise GraphError("target_block_size must be positive")
    n = graph.num_vertices
    block_of = [-1] * n
    blocks: List[List[int]] = []
    for seed in range(n):
        if block_of[seed] != -1:
            continue
        block_id = len(blocks)
        members: List[int] = []
        queue: deque = deque([seed])
        block_of[seed] = block_id
        while queue and len(members) < target_block_size:
            v = queue.popleft()
            members.append(v)
            for w in [*graph.out_neighbors(v), *graph.in_neighbors(v)]:
                if block_of[w] == -1 and len(members) + len(queue) < target_block_size:
                    block_of[w] = block_id
                    queue.append(w)
        # Return any over-provisioned queue entries to the pool.
        while queue:
            leftover = queue.popleft()
            block_of[leftover] = -1
        blocks.append(members)
    portals: Set[int] = set()
    for u, v in graph.edges():
        if block_of[u] != block_of[v]:
            portals.add(u)
            portals.add(v)
    return Partition(block_of=block_of, blocks=blocks, portals=portals)
