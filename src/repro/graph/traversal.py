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
from itertools import repeat
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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
    than ``max_depth`` (or unreachable).

    Kept as the tests' reference for Blinks' level cursors and for the
    distance bound a bisimulation summary preserves.
    """
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
    wanted = _label_ids(graph, sorted(keywords))
    return None if wanted is None else _forward(graph, root, wanted, d_max)


def _label_ids(graph: Graph, keywords: Sequence[str]) -> Optional[Dict[int, str]]:
    """Each keyword's interned label id -> the keyword, in order; ``None``
    if some keyword labels no vertex (it is unreachable from any root)."""
    ids = [graph.label_table.get_id(keyword) for keyword in keywords]
    return None if None in ids else dict(zip(ids, keywords))


def _forward(
    graph: Graph, root: int, wanted: Dict[int, str], d_max: int
) -> Optional[Dict[str, Tuple[int, int]]]:
    """:func:`nearest_labeled_forward` over interned label ids (one array
    read per vertex), keyed in ``wanted``'s order."""
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
    return {keyword: found[label_id] for label_id, keyword in wanted.items()}


def _profile(graph: Graph, root: int, d_max: int) -> Tuple[array, array]:
    """The forward ball's label ids, ascending, each with its smallest
    ``depth * |V| + vertex`` code."""
    n = graph.num_vertices
    successors, seen, frontier, ball = graph.rows()[0], {root}, {root}, [root]
    for depth in range(1, d_max + 1):
        frontier = {w for v in frontier for w in successors[v]} - seen
        seen |= frontier
        ball += [depth * n + w for w in frontier]
    ball.sort(reverse=True)  # a label's smallest code is written last
    nearest = dict(zip([graph.labels[code % n] for code in ball], ball))
    ids = sorted(nearest)
    return array("i", ids), array("q", map(nearest.__getitem__, ids))


def nearest_labeled_reader(
    graph: Graph, keywords: Sequence[str], d_max: int
) -> Callable[[Sequence[int]], Iterator[Optional[Dict[str, Tuple[int, int]]]]]:
    """:func:`nearest_labeled_forward` for one keyword set, its label ids
    resolved once: the returned function maps a root list to each root's
    result, lazily and in order, each keyed in ``keywords``' order.

    On a frozen graph a call reads its roots' memoized
    profiles (Blinks' node-keyword map, :func:`_profile`) in one memo
    batch when its first result is read, and computes a miss when that
    root is reached; a heap graph runs :func:`_forward` per root."""
    wanted = _label_ids(graph, keywords)
    if wanted is None:
        return lambda roots: repeat(None, len(roots))
    memo = graph.profile_memo()
    if memo is None:
        return lambda roots: (_forward(graph, r, wanted, d_max) for r in roots)
    n = graph.num_vertices
    lookups = list(wanted.items())

    def read(roots: Sequence[int]) -> Iterator[Optional[Dict[str, Tuple[int, int]]]]:
        profiles = memo.get_many([(root, d_max) for root in roots])
        for root, profile in zip(roots, profiles):
            if profile is None:
                profile = _profile(graph, root, d_max)
                memo.put((root, d_max), profile)
            ids, codes = profile
            found = {}
            for label_id, keyword in lookups:
                i = bisect_left(ids, label_id)
                if i == len(ids) or ids[i] != label_id:
                    found = None
                    break
                found[keyword] = divmod(codes[i], n)
            yield found

    return read
