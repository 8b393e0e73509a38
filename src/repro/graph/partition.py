"""Balanced graph partitioning (METIS substitute) for the shard planner.

:func:`repro.core.sharding.plan_shards` cuts the data graph into blocks of
roughly constant size and packs them onto shards; the cut edges between
shards then define the portal zone.  The paper's Blinks baseline uses
METIS for its bi-level blocks (average size 1000); METIS is a native
library we neither ship nor need at reproduction scale, so this module
implements a deterministic BFS-grow partitioner: repeatedly seed an
unassigned vertex and grow a block breadth-first (ignoring direction)
until the block reaches the target size.  Blocks are therefore connected
in the undirected sense whenever the graph region is, which keeps most
edges inside a shard; edge-cut quality only shifts the zone's size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List

from repro.graph.digraph import Graph
from repro.utils.errors import GraphError


@dataclass
class Partition:
    """A disjoint partition of a graph's vertices into numbered blocks."""

    #: block id for every vertex (dense list indexed by vertex id).
    block_of: List[int]
    #: vertex lists per block.
    blocks: List[List[int]]

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the partition."""
        return len(self.blocks)


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
        Blocks and the vertex->block map.
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
    return Partition(block_of=block_of, blocks=blocks)
