"""Blinks: ranked keyword search by round-robin backward expansion.

Reproduces the search of He et al. (SIGMOD 2007), the paper's ``rkws``
baseline (Sec. 5.3, ref [12]).  Blinks precomputes a distance index —
single-level (a keyword-node list per label, ``O(|V| * |Sigma|)`` space)
or bi-level (METIS blocks with intra-block keyword maps and portals, the
variant the paper's experiments use).  Here no index is built: each
query computes its keywords' node lists by a bounded backward expansion
(:class:`~repro.search.base.BackwardFrontier`), which is the runtime work
a bi-level Blinks query pays for the crossings its block maps leave open,
and exactly what shrinks when the same searcher runs on a BiG-index
summary layer.  ``bind`` is therefore O(1).

Search: cursors walk each query keyword's node list in ascending distance
order, round-robin (the paper's "expand each keyword in a round-robin
manner by traversing the vertex v backward in the keyword-node list").
Every vertex popped is probed against the other keywords' distance maps
to decide whether it is an answer root; the search stops when the top-k
scores are proven final: the sum of the cursors' current distances
lower-bounds every undiscovered root's score.

The ranking function is pluggable via ``scr`` (Sec. 5.3's
``rank(a, Q, G, scr)`` API); the default is the distance sum used by the
paper's experiments.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.graph.digraph import Graph
from repro.search.base import (
    USE_BOUND_K,
    BackwardFrontier,
    KeywordQuery,
    RootBatch,
    RootedSearcher,
    RootedTreeAlgorithm,
    RootHit,
    ScoreFunction,
)
from repro.obs.runtime import OBS, charge_expansions
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded


def distance_sum_score(distances: Mapping[str, int]) -> float:
    """The paper's default ``scr``: the sum of root-to-keyword distances."""
    return float(sum(distances.values()))


class _LevelCursor:
    """One keyword's reachable set, handed out level by level.

    The levels come from a live :class:`BackwardFrontier`; each one
    performs real traversal work — the per-query cost the paper
    measures.  ``dist`` / ``origin`` are the frontier's per-query arrays
    (``-1`` = not reached).
    """

    def __init__(self, graph: Graph, keyword: str, d_max: int) -> None:
        self.depth = 0
        sources = graph.sorted_vertices_with_label(keyword)
        self._frontier = BackwardFrontier(graph, sources, d_max)
        self.dist = self._frontier.dist
        self.origin = self._frontier.origin
        self._level = list(sources)  # the vertices at ``depth``
        self._last = d_max if sources else -1

    @property
    def exhausted(self) -> bool:
        return self.depth > self._last

    def take_level(self, budget: Optional[Budget] = None) -> List[int]:
        """Vertices settled at the current depth; advances the cursor.

        A budget is charged one unit per vertex in the level *before*
        any expansion work, so exhaustion leaves the settled maps and the
        stream's lower bound consistent.  The frontier charges this level
        (it *is* its frontier) when it grows the next one; only the final
        level, with nothing behind it, is charged here: one tap per level.
        """
        level = self._level
        frontier = self._frontier
        if not frontier.exhausted:
            self._level = sorted(frontier.expand_level(budget))
        else:
            charge_expansions(budget, len(level))
            if OBS.enabled:
                OBS.metrics.inc("search.levels_expanded")
            self._level = []
        self.depth += 1
        return level


class BlinksSearcher(RootedSearcher):
    """Blinks bound to one graph (nothing is precomputed)."""

    #: The bound of the current / most recent stream (see
    #: :meth:`root_batches`); a searcher runs one stream at a time (the
    #: evaluator binds per attempt).
    stream_lower_bound: float = 0.0

    def search_hits(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: object = USE_BOUND_K,
    ) -> List[RootHit]:
        """Distinct-root top-k via round-robin backward expansion.

        Collects discovered roots and stops once the k-th best score is
        at most the stream's lower bound — every undiscovered root must
        then score worse.  Hits are built for the returned roots only.
        """
        k = self._resolve_k(k)
        ranked: List[Tuple[float, int]] = []
        scores: List[float] = []

        def top(below: float) -> List[RootHit]:
            found = sorted(pair for pair in ranked if pair[0] < below)[:k]
            return list(hits(found)) if found else []

        try:
            for pairs, hits in self.root_batches(query, budget):
                done = False
                for pair in pairs:
                    ranked.append(pair)
                    if k is not None:
                        insort(scores, pair[0])
                        bound = self.stream_lower_bound
                        done = len(scores) >= k and scores[k - 1] <= bound
                        if done:
                            break
                if done:
                    break
        except BudgetExceeded as exc:
            # Unseen roots score at least the stream bound, so the
            # emitted hits strictly below it are a ranking prefix.
            exc.partial = top(self.stream_lower_bound)
            exc.lower_bound = self.stream_lower_bound
            raise
        return top(float("inf"))

    def root_batches(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: Optional[int] = None,
    ) -> Iterator[RootBatch]:
        """One batch per cursor level: the roots it settles everywhere, in
        vertex order, until every cursor is exhausted (``k`` is
        :meth:`search_hits`' to apply).

        Batches are *not* score-sorted (sorting would force full
        expansion before the first emission); instead, while a batch is
        read, :attr:`stream_lower_bound` holds a sound lower bound on
        every root not yet yielded: such a root is missing from at least
        one cursor's settled set, so its score is at least that cursor's
        next depth — at least the minimum active depth.
        """
        self.stream_lower_bound = 0.0
        algorithm = self.algorithm
        cursors: Dict[str, _LevelCursor] = {}
        for keyword in query:
            cursor = _LevelCursor(self.graph, keyword, algorithm.d_max)
            if cursor.exhausted:
                self.stream_lower_bound = float("inf")
                return
            cursors[keyword] = cursor

        keywords = query.keywords
        ordered = sorted(keywords)
        dists = [cursors[kw].dist for kw in ordered]
        hits = partial(algorithm.hits, keywords, cursors)
        emitted: Set[int] = set()

        while True:
            active = [kw for kw in keywords if not cursors[kw].exhausted]
            if not active:
                break
            # Round-robin: advance the cursor with the smallest depth
            # (ties by keyword order), the paper's expansion strategy.
            keyword = min(active, key=lambda kw: cursors[kw].depth)
            batch: List[Tuple[float, int]] = []
            for vertex in cursors[keyword].take_level(budget):
                if vertex in emitted:
                    continue
                distances = [d[vertex] for d in dists]
                if -1 in distances:
                    continue
                # settled by every cursor: an answer root
                emitted.add(vertex)
                batch.append(
                    (algorithm.scr(dict(zip(ordered, distances))), vertex)
                )
            if batch:
                yield batch, hits
            active_now = [c for c in cursors.values() if not c.exhausted]
            self.stream_lower_bound = (
                min(c.depth for c in active_now) if active_now else float("inf")
            )
        self.stream_lower_bound = float("inf")


class Blinks(RootedTreeAlgorithm):
    """The ``rkws`` algorithm: Blinks ranked keyword search.

    Parameters
    ----------
    d_max:
        Distance bound (the paper's pruning threshold ``tau_prune``; set to
        5 in Sec. 6.2).
    k:
        Top-k answers; ``None`` returns all qualifying roots.
    scr:
        Score function over per-keyword root distances (default: sum).
    """

    name = "blinks"

    def __init__(
        self,
        d_max: int = 5,
        k: Optional[int] = None,
        scr: ScoreFunction = distance_sum_score,
    ) -> None:
        super().__init__(d_max, k, scr)

    def bind(self, graph: Graph) -> BlinksSearcher:
        """A searcher over ``graph``: O(1), every query expands live."""
        return BlinksSearcher(graph, self)
