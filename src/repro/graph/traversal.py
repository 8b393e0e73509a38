"""Graph traversal primitives.

All keyword-search algorithms reproduced in :mod:`repro.search` are built on
unweighted breadth-first traversals: backward expansion (BANKS, Blinks) and
bounded shortest distances (r-clique, answer verification).  The helpers here
take a ``direction`` argument because the paper's algorithms mix forward
("can this root reach the keyword?") and backward ("which vertices reach the
keyword node?") searches.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.digraph import Graph
from repro.utils.errors import GraphError

#: Traversal direction constants.
FORWARD = "forward"
BACKWARD = "backward"
BOTH = "both"


def _neighbor_fn(graph: Graph, direction: str):
    # Index only the direction walked: an mmap-loaded graph builds each
    # direction's rows on first use.
    rows = graph.rows()
    if direction == FORWARD:
        return rows[0].__getitem__
    if direction == BACKWARD:
        return rows[1].__getitem__
    if direction == BOTH:
        successors, predecessors = rows
        return lambda v: [*successors[v], *predecessors[v]]
    raise GraphError(f"unknown traversal direction: {direction!r}")


def bfs_distances(
    graph: Graph,
    sources: Iterable[int],
    max_depth: Optional[int] = None,
    direction: str = FORWARD,
) -> Dict[int, int]:
    """Unweighted shortest distances from a set of sources.

    Parameters
    ----------
    graph:
        The graph to traverse.
    sources:
        One or more start vertices; distances are to the *nearest* source.
    max_depth:
        Stop expanding past this hop count (inclusive).  ``None`` explores
        everything reachable.
    direction:
        ``"forward"`` follows out-edges, ``"backward"`` in-edges, ``"both"``
        treats the graph as undirected.

    Returns
    -------
    dict
        Map of reached vertex -> hop distance (sources map to 0).
    """
    neighbors = _neighbor_fn(graph, direction)
    dist: Dict[int, int] = {}
    queue: deque = deque()
    for s in sources:
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        d = dist[v]
        if max_depth is not None and d >= max_depth:
            continue
        for w in neighbors(v):
            if w not in dist:
                dist[w] = d + 1
                queue.append(w)
    return dist


def reachable_within(
    graph: Graph,
    source: int,
    hops: int,
    direction: str = FORWARD,
) -> Set[int]:
    """Vertices reachable from ``source`` within ``hops`` edges.

    Used by the cost-model sampler (Sec. 3.2): sample graphs are the
    node-induced subgraphs of such r-hop balls.
    """
    return set(bfs_distances(graph, [source], max_depth=hops, direction=direction))


def bounded_distance(
    graph: Graph,
    source: int,
    target: int,
    max_depth: Optional[int] = None,
    direction: str = FORWARD,
) -> Optional[int]:
    """Shortest distance from ``source`` to ``target``; ``None`` if farther
    than ``max_depth`` (or unreachable)."""
    if source == target:
        return 0
    neighbors = _neighbor_fn(graph, direction)
    dist: Dict[int, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if max_depth is not None and d >= max_depth:
            continue
        for w in neighbors(v):
            if w in dist:
                continue
            if w == target:
                return d + 1
            dist[w] = d + 1
            queue.append(w)
    return None


def shortest_path(
    graph: Graph,
    source: int,
    target: int,
    max_depth: Optional[int] = None,
    direction: str = FORWARD,
) -> Optional[List[int]]:
    """One shortest path from ``source`` to ``target`` as a vertex list.

    Used during answer-graph materialization: BANKS-style answers are trees
    of root-to-keyword shortest paths.
    """
    if source == target:
        return [source]
    neighbors = _neighbor_fn(graph, direction)
    parent: Dict[int, int] = {source: source}
    dist: Dict[int, int] = {source: 0}
    queue: deque = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v]
        if max_depth is not None and d >= max_depth:
            continue
        for w in neighbors(v):
            if w in parent:
                continue
            parent[w] = v
            dist[w] = d + 1
            if w == target:
                path = [w]
                while path[-1] != source:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            queue.append(w)
    return None


def nearest_labeled_forward(
    graph: Graph, root: int, keywords: Set[str], d_max: int
) -> Optional[Dict[str, Tuple[int, int]]]:
    """Forward BFS recording the nearest vertex of each keyword label.

    Stops as soon as every keyword has been found (so verifying a good
    candidate answer root touches a small ball); returns ``None`` if any
    keyword is unreachable within ``d_max``.  Result maps each keyword to
    ``(distance, vertex)``.

    Ties are canonical: among equal-distance matches of a keyword the
    smallest vertex id wins, so direct evaluation and BiG-index
    root-verification produce identical answer signatures (the
    differential oracle compares them vertex-for-vertex).
    """
    # Compare interned label ids, not strings: one array read per vertex.
    wanted: Dict[int, str] = {}
    for keyword in keywords:
        label_id = graph.label_table.get_id(keyword)
        if label_id is None:
            return None  # no vertex carries it: unreachable
        wanted[label_id] = keyword
    labels = graph.labels
    successors = graph.rows()[0]
    found: Dict[int, Tuple[int, int]] = {}
    remaining = set(wanted)
    root_label = labels[root]
    if root_label in remaining:
        found[root_label] = (0, root)
        remaining.discard(root_label)
    seen: Set[int] = {root}
    frontier = [root]
    depth = 0
    while frontier and remaining and depth < d_max:
        depth += 1
        next_frontier: List[int] = []
        for v in frontier:
            for w in successors[v]:
                if w in seen:
                    continue
                seen.add(w)
                next_frontier.append(w)
                # The smallest match of the level wins, so the choice
                # does not depend on adjacency-list order.
                label_id = labels[w]
                if label_id in remaining:
                    best = found.get(label_id)
                    if best is None or w < best[1]:
                        found[label_id] = (depth, w)
        remaining -= found.keys()
        frontier = next_frontier
    if remaining:
        return None
    return {wanted[label_id]: match for label_id, match in found.items()}


def nearest_labeled(
    graph: Graph, root: int, keywords: Iterable[str], d_max: int
) -> Optional[Dict[str, Tuple[int, int]]]:
    """:func:`nearest_labeled_forward`, read on a frozen graph from the root's
    memoized profile (Blinks' node-keyword map: the forward ball's label ids,
    ascending, each with its smallest ``depth * |V| + vertex`` code)."""
    memo = graph.profile_memo()
    if memo is None:
        return nearest_labeled_forward(graph, root, set(keywords), d_max)
    n = graph.num_vertices
    profile = memo.get((root, d_max))
    if profile is None:
        successors, seen, frontier, ball = graph.rows()[0], {root}, {root}, [root]
        for depth in range(1, d_max + 1):
            frontier = {w for v in frontier for w in successors[v]} - seen
            seen |= frontier
            ball += [depth * n + w for w in frontier]
        ball.sort(reverse=True)  # a label's smallest code is written last
        nearest = dict(zip([graph.labels[code % n] for code in ball], ball))
        ids = sorted(nearest)
        profile = (array("i", ids), array("q", map(nearest.__getitem__, ids)))
        memo.put((root, d_max), profile)
    ids, codes = profile
    found = {}
    for keyword in keywords:
        label_id = graph.label_table.get_id(keyword)
        if label_id is None:
            return None  # no vertex carries it: unreachable
        i = bisect_left(ids, label_id)
        if i == len(ids) or ids[i] != label_id:
            return None
        found[keyword] = divmod(codes[i], n)
    return found
