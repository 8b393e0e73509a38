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
because it preserves the backward traversals keyword search performs.  We
expose the matching direction explicitly:

* ``BisimDirection.SUCCESSORS`` — vertices are equivalent when their labels
  agree and their successor blocks agree (the paper's definition; default).
* ``BisimDirection.PREDECESSORS`` — match on predecessor blocks.
* ``BisimDirection.BOTH`` — match on both sides (finer partition).

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
next round.  Signatures are sorted int tuples built from the graph's CSR
adjacency snapshot (no per-vertex frozensets), and a block's own id is
excluded from its members' signatures (it is constant within the block,
and the worklist never merges blocks).

Both implementations converge to the same fixpoint — the coarsest stable
refinement of the start partition is unique regardless of split order —
and both renumber blocks canonically (by smallest member vertex), so the
returned arrays are byte-identical.  The test-suite and the hierarchical
index rely on that determinism; ``tests/test_properties.py`` checks the
equivalence on randomized graphs across all three directions.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Sequence, Tuple

from repro.graph.digraph import Graph
from repro.obs.runtime import OBS


class BisimDirection(str, Enum):
    """Which neighbor sets the bisimulation matches on."""

    SUCCESSORS = "successors"
    PREDECESSORS = "predecessors"
    BOTH = "both"


def maximal_bisimulation(
    graph: Graph,
    direction: BisimDirection = BisimDirection.SUCCESSORS,
    initial_blocks: Sequence[int] | None = None,
) -> List[int]:
    """Compute the maximal bisimulation partition of ``graph``.

    Parameters
    ----------
    graph:
        The graph to partition.
    direction:
        Neighbor side(s) on which equivalent vertices must agree.
    initial_blocks:
        Optional starting partition (block id per vertex).  The result is
        the coarsest *stable* refinement of this partition that also refines
        the label partition.  Used by incremental maintenance; when omitted
        the label partition is the start, yielding the maximal bisimulation.

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

    use_out = direction in (BisimDirection.SUCCESSORS, BisimDirection.BOTH)
    use_in = direction in (BisimDirection.PREDECESSORS, BisimDirection.BOTH)

    csr = graph.csr()
    # Offsets as plain lists: CPython caches small ints in lists, while
    # ``array('i').__getitem__`` boxes a fresh int every access, and the
    # offsets are read twice per vertex per round.
    out_off, out_tgt = csr.out_offsets.tolist(), csr.out_targets
    in_off, in_tgt = csr.in_offsets.tolist(), csr.in_targets

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

    # Block bookkeeping: member lists per block id, worklist of dirty ids.
    members: Dict[int, List[int]] = {}
    for v in range(n):
        b = block[v]
        got = members.get(b)
        if got is None:
            members[b] = [v]
        else:
            got.append(v)

    next_id = max(members) + 1
    dirty = list(members)
    in_dirty = set(dirty)

    # Telemetry rides in plain local ints (free on the hot path) and is
    # flushed to the metrics registry once, after the fixpoint.
    rounds = 0
    blocks_split = 0
    vertices_moved = 0

    while dirty:
        rounds += 1
        moved: List[int] = []
        process, dirty = dirty, []
        in_dirty.clear()
        bg = block.__getitem__
        lbls = first_round_labels
        for b in process:
            mem = members[b]
            if len(mem) == 1:
                continue  # singletons cannot split
            # Group members by signature: sorted deduped neighbor-block
            # tuples (plus the vertex label in the fused first round).
            # The three direction cases are split into separate loops so
            # the dominant successor-only path pays for exactly one
            # signature and no wrapper tuple.
            groups: Dict[Tuple, List[int]] = {}
            for v in mem:
                if use_out:
                    ids = sorted(map(bg, out_tgt[out_off[v] : out_off[v + 1]]))
                    if ids:
                        last = ids[0]
                        sig = [last]
                        for x in ids:
                            if x != last:
                                sig.append(x)
                                last = x
                        succ = tuple(sig)
                    else:
                        succ = ()
                    if not use_in:
                        key = succ if lbls is None else (lbls[v], succ)
                        got = groups.get(key)
                        if got is None:
                            groups[key] = [v]
                        else:
                            got.append(v)
                        continue
                else:
                    succ = ()
                ids = sorted(map(bg, in_tgt[in_off[v] : in_off[v + 1]]))
                if ids:
                    last = ids[0]
                    sig = [last]
                    for x in ids:
                        if x != last:
                            sig.append(x)
                            last = x
                    pred = tuple(sig)
                else:
                    pred = ()
                if use_out:
                    key = (succ, pred) if lbls is None else (lbls[v], succ, pred)
                else:
                    key = pred if lbls is None else (lbls[v], pred)
                got = groups.get(key)
                if got is None:
                    groups[key] = [v]
                else:
                    got.append(v)
            if len(groups) == 1:
                continue
            # Split: the largest group keeps the old id (fewest moved
            # vertices => fewest dirty neighbors next round); every other
            # group gets a fresh id and its members are marked moved.
            ordered = sorted(groups.values(), key=len, reverse=True)
            members[b] = ordered[0]
            blocks_split += 1
            for group in ordered[1:]:
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
        # A vertex's signature mentions block[w] for its out-neighbors w
        # (successor matching) and in-neighbors (predecessor matching);
        # only vertices with an edge *to* a moved vertex (resp. *from*)
        # can have changed signature — mark their blocks dirty.  block
        # ids are mapped at C speed; the set may pick up clean singleton
        # blocks, which the next round skips for free.
        bg = block.__getitem__
        for w in moved:
            if use_out:
                in_dirty.update(map(bg, in_tgt[in_off[w] : in_off[w + 1]]))
            if use_in:
                in_dirty.update(map(bg, out_tgt[out_off[w] : out_off[w + 1]]))
        dirty = list(in_dirty)

    if OBS.enabled:
        metrics = OBS.metrics
        metrics.inc("refine.calls")
        metrics.inc("refine.rounds", rounds)
        metrics.inc("refine.blocks_split", blocks_split)
        metrics.inc("refine.vertices_moved", vertices_moved)
        metrics.gauge("refine.blocks", len(members))
    return _canonicalize(block, n, len(members))


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


def is_bisimulation_partition(
    graph: Graph,
    block: Sequence[int],
    direction: BisimDirection = BisimDirection.SUCCESSORS,
) -> bool:
    """Check the bisimulation conditions for a candidate partition.

    Used by tests and by incremental maintenance to validate results: a
    partition is a bisimulation iff same-block vertices share a label and
    the same *set* of neighbor blocks on the matched side(s).
    """
    n = graph.num_vertices
    if len(block) != n:
        return False
    use_out = direction in (BisimDirection.SUCCESSORS, BisimDirection.BOTH)
    use_in = direction in (BisimDirection.PREDECESSORS, BisimDirection.BOTH)
    csr = graph.csr()
    rep_signature: Dict[int, Tuple] = {}
    for v in range(n):
        succ = (
            frozenset(block[w] for w in csr.out_neighbors(v)) if use_out else None
        )
        pred = (
            frozenset(block[w] for w in csr.in_neighbors(v)) if use_in else None
        )
        sig = (graph.labels[v], succ, pred)
        existing = rep_signature.get(block[v])
        if existing is None:
            rep_signature[block[v]] = sig
        elif existing != sig:
            return False
    return True
