"""Blinks: ranked keyword search with precomputed distance indexes.

Reproduces He et al. (SIGMOD 2007) as described in Sec. 5.3 of the paper
(``rkws``), with both index variants:

* **Single-level index** — for every label ``l``, a *keyword-node list* of
  the vertices that can reach an ``l``-labeled vertex within ``d_max``
  hops, sorted by distance, and a *node-keyword map* giving the exact
  distance ``dist(v, l)``.  Queries then cost almost nothing, but the
  index needs ``O(|V| * |Sigma|)`` space — the paper notes it is
  infeasible for large graphs, which is why the experiments use:
* **Bi-level index** — the graph is partitioned into blocks of roughly
  ``block_size`` vertices (the paper uses METIS with average block size
  1000; we use the deterministic BFS-grow partitioner).  Each block stores
  a *local keyword map* (intra-block node -> keyword distances) and its
  *portal* vertices.  Per query, each keyword's reachable set is computed
  at runtime by a bounded backward expansion over the graph — the
  intra-block maps bound the storage, and the expansion work is what
  queries pay.  That per-query traversal cost is exactly what shrinks
  when the same searcher runs on a BiG-index summary layer.

Search (both variants): cursors walk each query keyword's keyword-node
list in ascending distance order, round-robin (the paper's "expand each
keyword in a round-robin manner by traversing the vertex v backward in
the keyword-node list").  Every vertex popped is probed against the other
keywords' distance maps to decide whether it is an answer root; the search
stops when the top-k scores are proven final: the sum of the cursors'
current distances lower-bounds every undiscovered root's score.

The ranking function is pluggable via ``scr`` (Sec. 5.3's
``rank(a, Q, G, scr)`` API); the default is the distance sum used by the
paper's experiments.
"""

from __future__ import annotations

import threading
from bisect import insort
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.digraph import Graph
from repro.graph.partition import Partition, partition_bfs_grow
from repro.search.base import (
    USE_BOUND_K,
    BackwardFrontier,
    KeywordQuery,
    RootedSearcher,
    RootedTreeAlgorithm,
    RootHit,
    ScoreFunction,
    top_k,
)
from repro.obs.runtime import OBS, charge_expansions
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded, QueryError

#: Per-keyword reachability: vertex -> (distance, nearest keyword vertex).
DistanceMap = Dict[int, Tuple[int, int]]


def distance_sum_score(distances: Mapping[str, int]) -> float:
    """The paper's default ``scr``: the sum of root-to-keyword distances."""
    return float(sum(distances.values()))


def _backward_distance_map(
    graph: Graph, sources: Sequence[int], d_max: int
) -> DistanceMap:
    """Multi-source backward BFS tracking the nearest source per vertex.

    One shared frontier run to completion, so the nearest source is the
    kernel's canonical one and index entries are independent of
    adjacency order.
    """
    frontier = BackwardFrontier(graph, sources, d_max)
    frontier.run_to_completion()
    dist, origin = frontier.dist, frontier.origin
    return {v: (dist[v], origin[v]) for v in frontier.settled}


class BlinksSingleLevelIndex:
    """Full keyword-node lists and node-keyword maps for every label.

    Parameters
    ----------
    graph:
        Graph to index.
    d_max:
        Distance bound; entries farther than this are not stored (keyword
        search semantics are bounded, Sec. 3.2).
    """

    kind = "single-level"

    def __init__(self, graph: Graph, d_max: int) -> None:
        self.graph = graph
        self.d_max = d_max
        #: label -> {vertex: (distance, nearest keyword vertex)}.
        self._maps: Dict[str, DistanceMap] = {}
        for label in sorted(graph.distinct_labels()):
            self._maps[label] = _backward_distance_map(
                graph, graph.sorted_vertices_with_label(label), d_max
            )

    @property
    def num_entries(self) -> int:
        """Total stored (vertex, keyword) pairs — the index's size metric."""
        return sum(len(m) for m in self._maps.values())

    def keyword_distances(self, label: str) -> DistanceMap:
        """The precomputed distance map of ``label`` (O(1))."""
        return self._maps.get(label, {})

    def keyword_cursor(self, label: str) -> Iterator[Tuple[int, int]]:
        """(distance, vertex) pairs for ``label`` in ascending distance."""
        entries = sorted(
            (dist, v) for v, (dist, _) in self.keyword_distances(label).items()
        )
        return iter(entries)

    def distance(self, vertex: int, label: str) -> Optional[int]:
        """Exact ``dist(vertex, label)`` if within ``d_max``, else ``None``."""
        entry = self.keyword_distances(label).get(vertex)
        return entry[0] if entry is not None else None


class BlinksBiLevelIndex:
    """Partitioned index: per-block local keyword maps + portals.

    The persistent structures are the partition, the portal set, and each
    block's local keyword map — whose sizes are what the Blinks paper
    reports; global reachability is *not* materialized.  Each query pays a
    bounded backward expansion per keyword (:meth:`keyword_distances`),
    which is the runtime cost BiG-index reduces by running the same
    searcher on a smaller summary graph.
    """

    kind = "bi-level"

    def __init__(self, graph: Graph, d_max: int, block_size: int = 1000) -> None:
        self.graph = graph
        self.d_max = d_max
        self.partition: Partition = partition_bfs_grow(graph, block_size)
        #: per block: {vertex: {label: intra-block distance}}.
        self.local_keyword_maps: List[Dict[int, Dict[str, int]]] = []
        self._build_local_maps()

    def _build_local_maps(self) -> None:
        for block_id in range(self.partition.num_blocks):
            members = set(self.partition.block_members(block_id))
            local: Dict[int, Dict[str, int]] = {v: {} for v in members}
            labels_here = sorted({self.graph.label(v) for v in members})
            for label in labels_here:
                sources = {v for v in members if self.graph.label(v) == label}
                dist = self._intra_block_backward_bfs(sources, members)
                for v, d in dist.items():
                    local[v][label] = d
            self.local_keyword_maps.append(local)

    def _intra_block_backward_bfs(
        self, sources: Set[int], members: Set[int]
    ) -> Dict[int, int]:
        predecessors = self.graph.rows()[1]
        dist = {v: 0 for v in sources}
        frontier = sorted(sources)
        depth = 0
        while frontier and depth < self.d_max:
            next_frontier = []
            for v in frontier:
                for u in predecessors[v]:
                    if u in members and u not in dist:
                        dist[u] = depth + 1
                        next_frontier.append(u)
            frontier = next_frontier
            depth += 1
        return dist

    @property
    def num_entries(self) -> int:
        """Stored (vertex, keyword) pairs across the block-local maps."""
        return sum(
            len(kw_map)
            for block in self.local_keyword_maps
            for kw_map in block.values()
        )

    def keyword_distances(self, label: str) -> DistanceMap:
        """Per-query bounded backward expansion from the label's vertices.

        Not cached: this is the runtime work a Blinks query performs
        (intra-block distances are already in the local maps; the global
        expansion resolves the portal crossings).
        """
        sources = self.graph.sorted_vertices_with_label(label)
        return _backward_distance_map(self.graph, sources, self.d_max)

    keyword_cursor = BlinksSingleLevelIndex.keyword_cursor

    def distance(self, vertex: int, label: str) -> Optional[int]:
        """Exact ``dist(vertex, label)``; prefers the local map's entry.

        Falls back to a global expansion when the block-local entry is
        missing or improvable through portals.
        """
        block_id = self.partition.block_of[vertex]
        local = self.local_keyword_maps[block_id].get(vertex, {})
        local_d = local.get(label)
        if local_d in (0, 1):
            return local_d  # cannot be improved by leaving the block
        entry = self.keyword_distances(label).get(vertex)
        return entry[0] if entry is not None else None


class _LevelCursor:
    """One keyword's reachable set, handed out level by level.

    With a single-level index the distance map is precomputed and
    "expansion" is instantaneous; with the bi-level index the levels come
    from a live :class:`BackwardFrontier` and each one performs real
    traversal work — the per-query cost the paper measures.  Either way
    ``dist`` / ``origin`` are the frontier's per-query arrays (``-1`` =
    not reached).
    """

    def __init__(self, graph: Graph, index, keyword: str, d_max: int) -> None:
        self.depth = 0
        if index.kind == "single-level":
            self._frontier: Optional[BackwardFrontier] = None
            #: vertex -> distance / nearest keyword vertex (-1: unreached).
            self.dist: List[int] = [-1] * graph.num_vertices
            self.origin: List[int] = [-1] * graph.num_vertices
            self._levels: Dict[int, List[int]] = {}
            for v, (d, o) in index.keyword_distances(keyword).items():
                self.dist[v] = d
                self.origin[v] = o
                self._levels.setdefault(d, []).append(v)
            self._last = max(self._levels, default=-1)
        else:
            sources = graph.sorted_vertices_with_label(keyword)
            self._frontier = BackwardFrontier(graph, sources, d_max)
            self.dist = self._frontier.dist
            self.origin = self._frontier.origin
            self._levels = {0: list(sources)}
            self._last = d_max if sources else -1

    @property
    def exhausted(self) -> bool:
        return self.depth > self._last

    def take_level(self, budget: Optional[Budget] = None) -> List[int]:
        """Vertices settled at the current depth; advances the cursor.

        A budget is charged one unit per vertex in the level *before*
        any expansion work, so exhaustion leaves the settled maps and the
        stream's lower bound consistent.  A live frontier charges exactly
        this level (it *is* its frontier) when it grows the next one;
        only a level with nothing behind it — precomputed, or the final
        one — is charged here: one tap per level.
        """
        level = self._levels.get(self.depth, [])
        frontier = self._frontier
        if frontier is not None and not frontier.exhausted:
            settled = frontier.expand_level(budget)
            self._levels[self.depth + 1] = sorted(settled)
        else:
            charge_expansions(budget, len(level))
            if OBS.enabled:
                OBS.metrics.inc("search.levels_expanded")
        self.depth += 1
        return level


class BlinksSearcher(RootedSearcher):
    """Blinks bound to one graph with its index built."""

    def __init__(self, graph: Graph, index, algorithm: "Blinks") -> None:
        super().__init__(graph, algorithm)
        self.index = index
        self._stream = threading.local()

    def search_hits(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: object = USE_BOUND_K,
    ) -> List[RootHit]:
        """Distinct-root top-k via round-robin backward expansion.

        Collects discovered hits and stops once the k-th best score is
        at most the stream's lower bound — every undiscovered root must
        then score worse.
        """
        k = self._resolve_k(k)
        hits: List[RootHit] = []
        scores: List[float] = []
        try:
            for hit in self.iter_hits(query, budget=budget):
                hits.append(hit)
                if k is None:
                    continue
                insort(scores, hit.score)
                if len(scores) >= k and scores[k - 1] <= self.stream_lower_bound:
                    break
        except BudgetExceeded as exc:
            # Unseen roots score at least the stream bound, so the
            # emitted hits strictly below it are a ranking prefix.
            lower_bound = self.stream_lower_bound
            exc.partial = top_k([h for h in hits if h.score < lower_bound], k)
            exc.lower_bound = lower_bound
            raise
        return top_k(hits, k)

    @property
    def stream_lower_bound(self) -> float:
        """The bound of this thread's stream (see :meth:`iter_hits`): one
        searcher serves concurrent queries, one stream per thread."""
        return getattr(self._stream, "lower_bound", 0.0)

    def iter_hits(self, query: KeywordQuery, budget: Optional[Budget] = None):
        """Lazily yield distinct-root hits as they are discovered.

        Yields are *not* globally score-sorted (sorting would force full
        expansion before the first emission); instead
        :attr:`stream_lower_bound` always holds a sound lower bound on
        every unseen hit's score: a root not yet yielded is missing
        from at least one cursor's settled set, so its score is at least
        that cursor's next depth — at least the minimum active depth.
        """
        stream = self._stream
        stream.lower_bound = 0.0
        algorithm = self.algorithm
        cursors: Dict[str, _LevelCursor] = {}
        for keyword in query:
            cursor = _LevelCursor(self.graph, self.index, keyword, algorithm.d_max)
            if cursor.exhausted:
                stream.lower_bound = float("inf")
                return
            cursors[keyword] = cursor

        keywords = query.keywords
        ordered = sorted(keywords)
        dists = [cursors[kw].dist for kw in ordered]
        origins = [cursors[kw].origin for kw in ordered]
        emitted: Set[int] = set()

        while True:
            active = [kw for kw in keywords if not cursors[kw].exhausted]
            if not active:
                break
            # Round-robin: advance the cursor with the smallest depth
            # (ties by keyword order), the paper's expansion strategy.
            keyword = min(active, key=lambda kw: cursors[kw].depth)
            for vertex in cursors[keyword].take_level(budget):
                if vertex in emitted:
                    continue
                distances = [d[vertex] for d in dists]
                if -1 in distances:
                    continue
                # settled by every cursor: an answer root
                emitted.add(vertex)
                yield RootHit(
                    algorithm.scr(dict(zip(ordered, distances))),
                    vertex,
                    tuple(zip(ordered, [o[vertex] for o in origins])),
                )
            active_now = [c for c in cursors.values() if not c.exhausted]
            stream.lower_bound = (
                min(c.depth for c in active_now) if active_now else float("inf")
            )
        stream.lower_bound = float("inf")


class Blinks(RootedTreeAlgorithm):
    """The ``rkws`` algorithm: Blinks ranked keyword search.

    Parameters
    ----------
    d_max:
        Distance bound (the paper's pruning threshold ``tau_prune``; set to
        5 in Sec. 6.2).
    k:
        Top-k answers; ``None`` returns all qualifying roots.
    index_kind:
        ``"bi-level"`` (default, as in the paper's experiments) or
        ``"single-level"``.
    block_size:
        Average partition block size for the bi-level index (paper: 1000).
    scr:
        Score function over per-keyword root distances (default: sum).
    """

    name = "blinks"

    def __init__(
        self,
        d_max: int = 5,
        k: Optional[int] = None,
        index_kind: str = "bi-level",
        block_size: int = 1000,
        scr: ScoreFunction = distance_sum_score,
    ) -> None:
        if index_kind not in ("bi-level", "single-level"):
            raise QueryError(f"unknown Blinks index kind: {index_kind!r}")
        super().__init__(d_max, k, scr)
        self.index_kind = index_kind
        self.block_size = block_size

    def bind(self, graph: Graph) -> BlinksSearcher:
        """Build the configured index over ``graph`` and return a searcher."""
        if self.index_kind == "single-level":
            index = BlinksSingleLevelIndex(graph, self.d_max)
        else:
            index = BlinksBiLevelIndex(graph, self.d_max, self.block_size)
        return BlinksSearcher(graph, index, self)
