"""Bidirectional keyword search (Kacholia et al., VLDB 2005).

The paper's Sec. 5 lists bidirectional expansion — its reference [14] —
among the algorithms its framework optimizes "with minor modifications";
implementing it here exercises exactly that genericity claim (it also
covers the "more keyword query semantics" direction of the paper's
future work).

Semantics are the same distinct-root trees as bkws; the difference is the
search strategy: besides expanding *backward* from the keyword vertex
sets, the algorithm expands *forward* from candidate roots discovered
along the way, prioritizing vertices by a spreading-activation score
(here: the number of keyword sets that have reached the vertex, tie-broken
by accumulated distance).  Forward expansion lets high-fanout vertices be
confirmed as roots without waiting for every backward frontier.

Because the answers are identical to bkws' (both enumerate exactly the
roots reaching every keyword within ``d_max`` with minimal distance
sums), the implementation reuses the exhaustive distance maps for the
final answer set and uses the bidirectional frontier only to *order*
discovery — which is what makes it an interesting plug-in: BiG-index
accelerates it the same way it accelerates bkws, without modification.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.graph.digraph import Graph
from repro.search.base import (
    BackwardFrontier,
    KeywordQuery,
    RootBatch,
    RootedSearcher,
    RootedTreeAlgorithm,
    RootHit,
    top_k,
    unseen_lower_bound,
)
from repro.obs.runtime import OBS, charge_expansions
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded


class BidirectionalSearcher(RootedSearcher):
    """Bidirectional expansion bound to one graph."""

    def root_batches(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: Optional[int] = None,
    ) -> Iterator[RootBatch]:
        """Distinct-root hits via prioritized bidirectional expansion, as
        one eager batch."""
        keywords = query.keywords
        d_max = self.algorithm.d_max
        frontiers: Dict[str, BackwardFrontier] = {}
        for keyword in keywords:
            sources = self.graph.sorted_vertices_with_label(keyword)
            if not sources:
                return
            frontiers[keyword] = BackwardFrontier(self.graph, sources, d_max)

        # Priority queue of candidate roots by spreading activation:
        # (-keyword sets reached, accumulated distance, vertex).
        activation: Dict[int, Set[str]] = {}
        candidates: List[Tuple[int, int, int]] = []
        #: roots confirmed by a forward probe -> their exact best hit.
        confirmed: Dict[int, RootHit] = {}
        verify = self.algorithm.root_verifier(self.graph, query)

        def touch(vertex: int, keyword: str) -> None:
            reached = activation.setdefault(vertex, set())
            if keyword in reached:
                return
            reached.add(keyword)
            total = sum(frontiers[kw].dist[vertex] for kw in reached)
            heapq.heappush(candidates, (-len(reached), total, vertex))

        for keyword in keywords:
            for vertex in frontiers[keyword].settled:
                touch(vertex, keyword)

        depth = 0
        try:
            while depth < d_max:
                depth += 1
                progressed = False
                # Backward step: grow each keyword frontier one level (the
                # shared kernel, so origins match bkws' signature-for-signature).
                # Level order is immaterial: candidates are keyed by
                # (reached, total, vertex) and popped only after the step.
                for keyword in keywords:
                    for pred in frontiers[keyword].expand_level(budget):
                        touch(pred, keyword)
                        progressed = True
                # Forward step: confirm the hottest candidates as roots by a
                # forward probe bounded by the remaining hop budget.
                hits = 0
                while candidates and hits < 8:
                    neg_reached, _, vertex = heapq.heappop(candidates)
                    if OBS.enabled:
                        OBS.metrics.inc("search.heap_pops")
                    if vertex in confirmed:
                        continue
                    if -neg_reached < len(keywords) and depth < d_max:
                        # Not yet reached by every backward frontier; only
                        # probe forward when it looks promising (more than
                        # half the keywords reached).
                        if -neg_reached * 2 <= len(keywords):
                            continue
                    charge_expansions(budget, 1)
                    hit = next(verify([vertex]))
                    if hit is not None:
                        confirmed[vertex] = hit
                        hits += 1
                        if OBS.enabled:
                            OBS.metrics.inc("search.roots_confirmed")
                if not progressed and not candidates:
                    break
        except BudgetExceeded as exc:
            # Two sources, both exact: roots settled by every backward
            # frontier (exact BFS distance sums) and roots already
            # confirmed by a forward probe (the exact minimum for that
            # root).  Any true answer scoring below the frontier bound
            # belongs to one of the two, so the filtered set is a ranking
            # prefix.
            lower_bound = unseen_lower_bound(frontiers.values())
            settled = self.algorithm.settled_hits(
                keywords, frontiers, below=lower_bound, skip=confirmed
            )
            settled += [h for h in confirmed.values() if h.score < lower_bound]
            exc.partial = top_k(settled, k)
            exc.lower_bound = lower_bound
            raise

        # Exhaustive completion: any vertex settled by every backward
        # frontier is a root (ensures the same answer set as bkws).
        settled = self.algorithm.settled_hits(keywords, frontiers, skip=confirmed)
        found = top_k(settled + list(confirmed.values()), k)
        hit_of = {(hit.score, hit.root): hit for hit in found}
        yield list(hit_of), lambda ranked: map(hit_of.__getitem__, ranked)


class BidirectionalSearch(RootedTreeAlgorithm):
    """Kacholia-style bidirectional keyword search (``bdws``).

    Same answer semantics as :class:`~repro.search.banks.BackwardKeywordSearch`
    (distinct-root trees under ``d_max``), different exploration strategy.
    Plugs into BiG-index unmodified — demonstrating the framework's
    genericity beyond the three algorithms the paper details.
    """

    name = "bdws"

    def __init__(self, d_max: int = 3, k: Optional[int] = None) -> None:
        super().__init__(d_max, k)

    def bind(self, graph: Graph) -> BidirectionalSearcher:
        """Bidirectional search keeps no persistent index."""
        return BidirectionalSearcher(graph, self)
