"""Maximal bisimulation via partition refinement.

Definition (Sec. 2 of the paper)
--------------------------------
A binary relation ``B`` over vertices is a bisimulation when for every pair
``(u_i, u_j) in B``:

* ``L(u_i) = L(u_j)``;
* every edge ``(u_i, v_i)`` is matched by an edge ``(u_j, v_j)`` with
  ``(v_i, v_j) in B``; and symmetrically
* every edge ``(u_j, v_j)`` is matched by an edge ``(u_i, v_i)`` with
  ``(v_i, v_j) in B``.

Every graph has a unique *maximal* bisimulation, which is an equivalence
relation.  The paper's running example (the 100 Person vertices of Fig. 1
collapsing because they share the one Univ. successor) shows the relation
matches on *successors*; the paper calls the formalism backward bisimulation
because it preserves the backward traversals keyword search performs.  That
is the only rule here: two vertices are equivalent when their labels agree
and the *sets* of blocks of their successors agree.

Algorithm
---------
Worklist-driven signature refinement.  The classical Kanellakis–Smolka
loop (kept as :func:`repro.verify.auditor.reference_bisimulation` for
differential testing) re-signatures **all** ``n`` vertices every round and pays a full
confirmation round to detect stability; stable regions of the graph are
re-hashed again and again, which dominates construction cost at scale
(cf. Luo et al., *I/O-efficient localized bisimulation partition
construction*, and Rau et al., *Computing k-Bisimulations for Large
Graphs*).  The worklist variant instead tracks **dirty blocks**: after a
round splits some blocks, only the vertices with an edge into a *moved*
vertex can change signature, so only their blocks are re-examined in the
next round.  Signatures are sorted deduplicated int tuples of successor
blocks (no per-vertex frozensets).  The worklist itself is
:func:`refine_blocks`; it reads adjacency through two row lookups, so
:func:`maximal_bisimulation` runs it over a CSR snapshot of a whole
graph and index maintenance over the heap rows around one edge update,
seeded with the only block that update can unsettle (Luo et al.'s
localized maintenance).

Both implementations converge to the same fixpoint — the coarsest stable
refinement of the start partition is unique regardless of split order —
and both renumber blocks canonically (by smallest member vertex), so the
returned arrays are byte-identical.  The test-suite and the hierarchical
index rely on that determinism; ``tests/test_properties.py`` checks the
equivalence on randomized graphs and seed partitions.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    MutableMapping,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.digraph import Graph
from repro.obs.runtime import OBS


def maximal_bisimulation(
    graph: Graph,
    initial_blocks: Sequence[int] | None = None,
    labels: Sequence[int] | None = None,
) -> List[int]:
    """Compute the maximal bisimulation partition of ``graph``.

    Parameters
    ----------
    graph:
        The graph to partition.
    initial_blocks:
        Optional starting partition (block id per vertex).  The result is
        the coarsest *stable* refinement of this partition that also refines
        the label partition.  Used by index maintenance; when omitted the
        label partition is the start, yielding the maximal bisimulation.
    labels:
        Optional label id per vertex, read instead of ``graph.labels``
        (the cost model passes ``Gen(C)``'s labels here instead of
        building the relabelled copy).

    Returns
    -------
    list[int]
        ``block[v]`` is the equivalence-class id of vertex ``v``.  Ids are
        dense ``0..k-1`` and canonical: blocks are numbered by their
        smallest member vertex.
    """
    n = graph.num_vertices
    if n == 0:
        return []
    if initial_blocks is not None and len(initial_blocks) != n:
        raise ValueError("initial_blocks must cover every vertex")

    successors, predecessors = graph.rows()

    if labels is None:
        labels = graph.labels
    if initial_blocks is None:
        block: List[int] = list(labels)
        # The start partition *is* the label partition: folding the label
        # into the first-round signature would be a no-op.
        first_round_labels = None
    else:
        block = list(initial_blocks)
        # Label refinement is fused into the first worklist round instead
        # of allocating a (initial_block, label)-keyed dict up front: the
        # first round groups every block's members by signature anyway, so
        # the label simply rides along as the signature's first component.
        first_round_labels = labels

    # Block bookkeeping: member lists per block id, in ascending vertex order.
    members: Dict[int, List[int]] = {}
    for v in range(n):
        b = block[v]
        got = members.get(b)
        if got is None:
            members[b] = [v]
        else:
            got.append(v)

    refine_blocks(
        block,
        members,
        list(members),
        max(members) + 1,
        successors.__getitem__,
        predecessors.__getitem__,
        first_round_labels,
    )
    if OBS.enabled:
        OBS.metrics.gauge("refine.blocks", len(members))
    return _canonicalize(block, n, len(members))


def refine_blocks(
    block: List[int],
    members: MutableMapping[int, Sequence[int]],
    dirty: Iterable[int],
    next_id: int,
    successors: Callable[[int], Sequence[int]],
    predecessors: Callable[[int], Sequence[int]],
    first_round_labels: Sequence[int] | None = None,
) -> Tuple[List[int], int]:
    """The splitter worklist: refine ``block`` until every block is stable.

    The one split rule every partition in this package goes through —
    :func:`maximal_bisimulation` runs it over a whole graph, index
    maintenance (:meth:`repro.core.index.BiGIndex.insert_edge`) over the
    handful of blocks one edge update can unsettle.  Each round re-signs
    the members of every ``dirty`` block: the sorted deduplicated tuple
    of its successors' blocks (plus the vertex label when
    ``first_round_labels`` is given, fused into the first round only).
    A block whose members disagree splits; the largest group keeps the
    id, and every other group takes the next fresh id in order of its
    smallest member; dirty blocks are processed in ascending id, so the
    numbering is a function of the input alone.  Only the blocks
    of predecessors of moved vertices are dirty in the next round, since
    only their signatures can have changed.

    ``block`` (vertex -> id) and ``members`` (id -> members in ascending
    order; read with ``[]`` and rebound, never edited in place) are
    updated in place.  Blocks outside ``dirty`` must be stable; the
    result is then the coarsest stable refinement of the start partition.
    Returns the ids of the blocks that split and the next unused id — the
    fresh blocks are the ids from the ``next_id`` given up to it.
    """
    split: List[int] = []
    dirty = list(dirty)
    in_dirty: Set[int] = set()

    # Telemetry rides in plain local ints (free on the hot path) and is
    # flushed to the metrics registry once, after the fixpoint.
    rounds = 0
    vertices_moved = 0

    while dirty:
        rounds += 1
        moved: List[int] = []
        process, dirty = sorted(dirty), []
        in_dirty.clear()
        bg = block.__getitem__
        lbls = first_round_labels
        for b in process:
            mem = members[b]
            if len(mem) == 1:
                continue  # singletons cannot split
            # Group members by signature: the sorted deduplicated tuple of
            # successor blocks (plus the vertex label in the fused first
            # round).
            groups: Dict[Tuple, List[int]] = {}
            for v in mem:
                ids = sorted(map(bg, successors(v)))
                if ids:
                    last = ids[0]
                    sig = [last]
                    for x in ids:
                        if x != last:
                            sig.append(x)
                            last = x
                    key = tuple(sig)
                else:
                    key = ()
                if lbls is not None:
                    key = (lbls[v], key)
                got = groups.get(key)
                if got is None:
                    groups[key] = [v]
                else:
                    got.append(v)
            if len(groups) == 1:
                continue
            # Split: the largest group keeps the old id (fewest moved
            # vertices => fewest dirty neighbors next round; ties go to
            # the smallest member); every other group gets a fresh id in
            # order of its smallest member and its members are marked
            # moved.  Groups come out in smallest-member order because
            # ``mem`` is ascending.
            ordered = list(groups.values())
            keep = max(ordered, key=len)
            members[b] = keep
            split.append(b)
            for group in ordered:
                if group is keep:
                    continue
                fresh = next_id
                next_id += 1
                members[fresh] = group
                for v in group:
                    block[v] = fresh
                moved.extend(group)
        if not moved:
            break
        vertices_moved += len(moved)
        first_round_labels = None
        # A vertex's signature mentions block[w] for its successors w, so
        # only the predecessors of a moved vertex can have changed
        # signature — mark their blocks dirty.  block ids are mapped at C
        # speed; the set may pick up clean singleton blocks, which the
        # next round skips for free.
        bg = block.__getitem__
        for w in moved:
            in_dirty.update(map(bg, predecessors(w)))
        dirty = list(in_dirty)

    if OBS.enabled:
        metrics = OBS.metrics
        metrics.inc("refine.calls")
        metrics.inc("refine.rounds", rounds)
        metrics.inc("refine.blocks_split", len(split))
        metrics.inc("refine.vertices_moved", vertices_moved)
    return split, next_id


def _canonicalize(
    block: List[int], n: int, num_blocks: int | None = None
) -> List[int]:
    """Renumber blocks by smallest member vertex for determinism.

    When the caller knows the block count, the discovery scan stops as
    soon as every id has been seen and the remap runs at C speed.
    """
    first_seen: Dict[int, int] = {}
    if num_blocks is None:
        num_blocks = len(set(block))
    seen = 0
    for old in block:
        if old not in first_seen:
            first_seen[old] = seen
            seen += 1
            if seen == num_blocks:
                break
    return list(map(first_seen.__getitem__, block))


def is_bisimulation_partition(graph: Graph, block: Sequence[int]) -> bool:
    """Check the bisimulation conditions for a candidate partition.

    Used by tests and the auditor to validate results: a partition is a
    bisimulation iff same-block vertices share a label and the same *set*
    of successor blocks.
    """
    n = graph.num_vertices
    if len(block) != n:
        return False
    successors = graph.rows()[0]
    rep_signature: Dict[int, Tuple] = {}
    for v in range(n):
        succ = frozenset(block[w] for w in successors[v])
        sig = (graph.labels[v], succ)
        existing = rep_signature.get(block[v])
        if existing is None:
            rep_signature[block[v]] = sig
        elif existing != sig:
            return False
    return True
