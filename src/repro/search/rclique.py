"""r-clique distance-based keyword search (``dkws``, Sec. 5.2).

Reproduces Kargar & An (PVLDB 2011): an answer to ``Q = {q_1, ..., q_n}``
is a set of vertices ``{u_1, ..., u_n}``, one per keyword, such that every
pair is within ``r`` hops of each other; answers are ranked by the total
pairwise distance (lower is better) and the top-k are returned via
branch-and-bound search-space decomposition.

Distances
---------
"All pairs of the vertices that contain the keywords are reachable to each
other within r hops" — we use undirected hop distance by default so
reachability is symmetric (matching the r-clique paper's treatment of
informative graphs); pass ``direction="forward"`` for strictly directed
semantics.  Either choice is preserved by bisimulation summaries
(Prop. 5.2 applies edgewise in both directions).

Neighbor index
--------------
Kargar & An precompute, for every vertex, the vertices within ``R`` hops
with their distances — the *neighbor list* the paper's Sec. 6.2 measures.
Its size is ``O(m * n)`` where ``m`` is the average neighborhood size; the
paper reports that on IMDB ``m ~ 105K`` making the list an estimated 16 TB,
so r-clique "can not handle the IMDB dataset".  :class:`NeighborIndex`
reproduces that behaviour with ``max_entries``: construction aborts with
:class:`NeighborIndexTooLarge` once the entry count exceeds the budget.

Top-k search
------------
The search space ``SP = (V_{q_1}, ..., V_{q_n})`` is explored Lawler-style
(Sec. 5.2 "search space decomposition"): a priority queue holds
``(SP, best answer of SP)`` pairs ordered by answer weight; popping emits
the answer and splits ``SP`` into ``n`` subspaces ``SP_i`` that fix the
first ``i-1`` choices and exclude ``u_i`` from ``V_{q_i}``, which
enumerates answers in non-decreasing weight without duplicates.  The best
answer of a space is found with the original polynomial-time greedy: try
each candidate for the first keyword, attach the nearest allowed candidate
for every other keyword, keep the lightest valid combination (a
2-approximation of the true minimum).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graph.digraph import Graph
from repro.graph.traversal import bfs_distances
from repro.search.base import (
    USE_BOUND_K,
    Answer,
    GraphSearcher,
    KeywordQuery,
    KeywordSearchAlgorithm,
    top_k,
)
from repro.obs.runtime import OBS, charge_expansions
from repro.utils.budget import Budget
from repro.utils.errors import BigIndexError, BudgetExceeded, QueryError


class NeighborIndexTooLarge(BigIndexError):
    """Raised when the neighbor list would exceed its memory budget.

    Reproduces the paper's observation that r-clique's ``O(mn)`` neighbor
    list is infeasible on IMDB (estimated 16 TB).
    """


class NeighborIndex:
    """Per-vertex distances to all vertices within ``R`` hops.

    Parameters
    ----------
    graph:
        Graph to index.
    radius:
        Hop bound ``R``.
    direction:
        ``"both"`` (default) for undirected distances, ``"forward"`` for
        directed.
    max_entries:
        Abort with :class:`NeighborIndexTooLarge` when the total number of
        stored (vertex, neighbor) entries exceeds this budget.
    """

    def __init__(
        self,
        graph: Graph,
        radius: int,
        direction: str = "both",
        max_entries: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.radius = radius
        self.direction = direction
        self.neighbor_lists: List[Dict[int, int]] = []
        total = 0
        for v in graph.vertices():
            dist = bfs_distances(
                graph, [v], max_depth=radius, direction=direction
            )
            dist.pop(v, None)
            self.neighbor_lists.append(dist)
            total += len(dist)
            if max_entries is not None and total > max_entries:
                raise NeighborIndexTooLarge(
                    f"neighbor index exceeded {max_entries} entries at "
                    f"vertex {v}/{graph.num_vertices} "
                    f"(average neighborhood so far: {total / (v + 1):.0f})"
                )
        self.num_entries = total

    def distance(self, u: int, v: int) -> Optional[int]:
        """``dist(u, v)`` if within ``R`` hops, else ``None``."""
        if u == v:
            return 0
        return self.neighbor_lists[u].get(v)


@dataclass(frozen=True)
class _SearchSpace:
    """One Lawler subspace: per-keyword fixed choice or exclusion set."""

    #: fixed[i] is the forced vertex for keyword i, or None.
    fixed: Tuple[Optional[int], ...]
    #: excluded[i] are vertices banned for keyword i.
    excluded: Tuple[FrozenSet[int], ...]


class RCliqueSearcher(GraphSearcher):
    """r-clique bound to one graph with its neighbor index built."""

    def __init__(
        self,
        graph: Graph,
        index: NeighborIndex,
        radius: int,
        k: Optional[int],
    ) -> None:
        super().__init__(graph)
        self.index = index
        self.radius = radius
        self.k = k

    def search(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: object = USE_BOUND_K,
    ) -> List[Answer]:
        """Top-k r-cliques by total pairwise distance (branch and bound)."""
        k = self._resolve_k(k)
        answers: List[Answer] = []
        try:
            for answer in self.iter_search(query, budget=budget):
                answers.append(answer)
                if k is not None and len(answers) >= k:
                    break
        except BudgetExceeded as exc:
            # Lawler decomposition emits in non-decreasing weight, so
            # every unseen clique weighs at least the last emitted weight.
            # Emitted answers *tying* that weight are dropped from the
            # proven prefix: an unseen clique could tie too, and the
            # prefix contract is strict (complete below the bound).
            lower_bound = answers[-1].score if answers else 0.0
            exc.partial = top_k(
                [a for a in answers if a.score < lower_bound], k
            )
            exc.lower_bound = lower_bound
            raise
        return top_k(answers, k)

    def iter_search(self, query: KeywordQuery, budget: Optional[Budget] = None):
        """Lazily yield r-cliques in non-decreasing weight order.

        This is the search-space decomposition loop itself; consuming it
        partially performs exactly as many ``best_answer`` computations as
        needed, which lets boost-dkws interleave specialization with
        decomposition (Sec. 5.2).  A budget is charged one unit per
        ``best_answer`` computation — the unit of work the paper's
        Sec. 5.2 decomposition counts.
        """
        keywords = list(query.keywords)
        keyword_sets: List[List[int]] = []
        for keyword in keywords:
            nodes = list(self.graph.sorted_vertices_with_label(keyword))
            if not nodes:
                return
            keyword_sets.append(nodes)

        root_space = _SearchSpace(
            fixed=tuple(None for _ in keywords),
            excluded=tuple(frozenset() for _ in keywords),
        )
        counter = itertools.count()
        heap: List[Tuple[float, int, _SearchSpace, Tuple[int, ...]]] = []
        charge_expansions(budget, 1)
        first = self._best_answer(keywords, keyword_sets, root_space)
        if first is not None:
            weight, assignment = first
            heapq.heappush(heap, (weight, next(counter), root_space, assignment))

        emitted: Set[Tuple[int, ...]] = set()
        while heap:
            weight, _, space, assignment = heapq.heappop(heap)
            if OBS.enabled:
                OBS.metrics.inc("search.heap_pops")
            if assignment not in emitted:
                emitted.add(assignment)
                yield Answer.make(
                    dict(zip(keywords, assignment)),
                    score=weight,
                    root=None,
                )
            for i in range(len(keywords)):
                fixed = list(space.fixed)
                excluded = [set(x) for x in space.excluded]
                for j in range(i):
                    fixed[j] = assignment[j]
                if fixed[i] is not None:
                    continue  # cannot exclude a fixed position
                excluded[i].add(assignment[i])
                subspace = _SearchSpace(
                    fixed=tuple(fixed),
                    excluded=tuple(frozenset(x) for x in excluded),
                )
                charge_expansions(budget, 1)
                best = self._best_answer(keywords, keyword_sets, subspace)
                if best is not None:
                    sub_weight, sub_assignment = best
                    heapq.heappush(
                        heap, (sub_weight, next(counter), subspace, sub_assignment)
                    )

    # ------------------------------------------------------------------
    def _allowed(
        self, keyword_sets: List[List[int]], space: _SearchSpace, i: int
    ) -> List[int]:
        if space.fixed[i] is not None:
            return [space.fixed[i]]  # type: ignore[list-item]
        banned = space.excluded[i]
        return [v for v in keyword_sets[i] if v not in banned]

    def _best_answer(
        self,
        keywords: List[str],
        keyword_sets: List[List[int]],
        space: _SearchSpace,
    ) -> Optional[Tuple[float, Tuple[int, ...]]]:
        """Greedy best answer of a subspace (Kargar & An's PTIME procedure).

        For each candidate of the first keyword, greedily attach the
        nearest allowed candidate of every other keyword, then validate the
        full pairwise constraint and weight.  Returns the lightest valid
        assignment or ``None``.
        """
        candidates_first = self._allowed(keyword_sets, space, 0)
        best: Optional[Tuple[float, Tuple[int, ...]]] = None
        for center in candidates_first:
            assignment: List[int] = [center]
            feasible = True
            for i in range(1, len(keywords)):
                allowed = self._allowed(keyword_sets, space, i)
                nearest = None
                nearest_d = None
                for v in allowed:
                    d = self.index.distance(center, v)
                    if d is None or d > self.radius:
                        continue
                    if nearest_d is None or d < nearest_d or (
                        d == nearest_d and v < nearest  # type: ignore[operator]
                    ):
                        nearest, nearest_d = v, d
                if nearest is None:
                    feasible = False
                    break
                assignment.append(nearest)
            if not feasible:
                continue
            weight = self._validate_weight(assignment)
            if weight is None:
                continue
            key = (weight, tuple(assignment))
            if best is None or key < best:
                best = key
        return best

    def _validate_weight(self, assignment: Sequence[int]) -> Optional[float]:
        """Total pairwise distance if all pairs are within R, else None."""
        total = 0
        for a, b in itertools.combinations(assignment, 2):
            d = self.index.distance(a, b)
            if d is None or d > self.radius:
                return None
            total += d
        return float(total)


class RClique(KeywordSearchAlgorithm):
    """The ``dkws`` algorithm: top-k r-cliques of keyword vertices.

    Parameters
    ----------
    radius:
        The ``r`` bound on every pairwise distance (paper experiments: 4).
    k:
        Number of answers; ``None`` enumerates every r-clique the
        decomposition reaches (use only on small graphs/tests).
    direction:
        Distance direction (see :class:`NeighborIndex`).
    max_index_entries:
        Memory budget for the neighbor index (reproduces the IMDB
        infeasibility result when exceeded).
    """

    name = "r-clique"

    def __init__(
        self,
        radius: int = 4,
        k: Optional[int] = 10,
        direction: str = "both",
        max_index_entries: Optional[int] = None,
    ) -> None:
        if radius < 0:
            raise QueryError("radius must be non-negative")
        self.radius = radius
        self.k = k
        self.direction = direction
        self.max_index_entries = max_index_entries
        # Per-graph neighbor indexes; binding a graph caches its index so
        # verification during BiG-index answer generation reuses it
        # (distance checks become O(1) lookups, as in the original system
        # where the neighbor list is the algorithm's persistent index).
        # Keyed by weak reference: an ``id()``-keyed dict would hand the
        # distances of a garbage-collected graph to whatever new graph
        # the allocator places at the same address.  Each entry carries
        # the graph's ``mutation_epoch`` it was built at, so an in-place
        # write retires it.
        self._index_cache: "weakref.WeakKeyDictionary[Graph, tuple]" = (
            weakref.WeakKeyDictionary()
        )
        # Concurrent binds of one graph state build its index once.
        self._index_lock = threading.Lock()

    def _index_for(self, graph: Graph) -> Optional[NeighborIndex]:
        """The neighbor index bound for ``graph`` as it is now, if any."""
        epoch, index = self._index_cache.get(graph, (None, None))
        return index if epoch == graph.mutation_epoch else None

    def bind(self, graph: Graph) -> RCliqueSearcher:
        """Build the neighbor index (may raise NeighborIndexTooLarge)."""
        with self._index_lock:
            index = self._index_for(graph)
            if index is None:
                index = NeighborIndex(
                    graph,
                    self.radius,
                    direction=self.direction,
                    max_entries=self.max_index_entries,
                )
                self._index_cache[graph] = (graph.mutation_epoch, index)
        return RCliqueSearcher(graph, index, self.radius, self.k)

    def verify(
        self,
        graph: Graph,
        keyword_nodes: Mapping[str, int],
        query: KeywordQuery,
        root: Optional[int] = None,
    ) -> Optional[Answer]:
        """Exact pairwise-distance check of a candidate clique on ``graph``."""
        nodes: List[int] = []
        for keyword in query:
            node = keyword_nodes.get(keyword)
            if node is None or graph.label(node) != keyword:
                return None
            nodes.append(node)
        total = 0
        for idx, a in enumerate(nodes):
            dist = self._within_radius(graph, a)
            for b in nodes[idx + 1 :]:
                d = dist.get(b) if a != b else 0
                if d is None:
                    return None
                total += d
        return Answer.make(dict(keyword_nodes), score=float(total), root=None)

    def enlarge_ok(
        self,
        graph: Graph,
        partial: Mapping[str, int],
        keyword: str,
        vertex: int,
        query: KeywordQuery,
    ) -> bool:
        """Prune candidates that already violate a pairwise bound: the new
        vertex must be within ``radius`` of every vertex already in the
        partial assignment."""
        if not partial:
            return True
        dist = self._within_radius(graph, vertex)
        return all(other == vertex or other in dist for other in partial.values())

    def _within_radius(self, graph: Graph, v: int) -> Mapping[int, int]:
        """Hop distances from ``v`` up to ``radius``: ``graph``'s bound
        neighbor list, else one bounded BFS."""
        index = self._index_for(graph)
        if index is not None:
            return index.neighbor_lists[v]
        return bfs_distances(
            graph, [v], max_depth=self.radius, direction=self.direction
        )
