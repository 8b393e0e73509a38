"""BANKS-style backward keyword search (``bkws``, Sec. 5.1).

Semantics (Sec. 2, "Exact keyword search")
------------------------------------------
A query is ``(Q, d_max)``.  A match is a subtree ``T = {r, p_1, ..., p_n}``
of ``G`` rooted at ``r`` where each ``p_i`` is a leaf labeled ``q_i`` and
``dist(r, p_i) <= d_max`` (directed distance from the root).  Answers are
*distinct-root*: for each qualifying root the match minimizing
``sum_i dist(r, p_i)`` is reported, and answers are ranked by that sum.

Algorithm (Bhalotia et al., reproduced from Sec. 5.1)
-----------------------------------------------------
* *Initialization*: for each keyword ``q_i``, ``V_{q_i}`` is the set of
  vertices labeled ``q_i``.
* *Backward expansion*: iteratively grow per-keyword backward BFS frontiers
  (following in-edges) from ``V_{q_i}``.  In each step the keyword whose
  visited set ``V_i`` is smallest expands one frontier level — the paper's
  "the vertex set with the minimal size is processed" heuristic.
* *Answer discovery*: a vertex settled by every expansion is an answer root;
  its score is the sum of its per-keyword distances, which are exact
  because BFS settles vertices in distance order.

Expansion is bounded by ``d_max`` hops so the whole search touches only the
union of the keywords' ``d_max``-balls — the locality BiG-index exploits
when the same code runs on a much smaller summary graph.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from typing import Dict, Iterator, Optional

from repro.graph.digraph import Graph
from repro.search.base import (
    BackwardFrontier,
    KeywordQuery,
    RootBatch,
    RootedSearcher,
    RootedTreeAlgorithm,
    unseen_lower_bound,
)
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded


class BanksSearcher(RootedSearcher):
    """Backward search bound to one graph (bkws keeps no persistent index)."""

    def root_batches(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: Optional[int] = None,
    ) -> Iterator[RootBatch]:
        """The one expansion body: the top-``k`` roots of the exhausted
        frontiers, ranked by total root-to-keyword distance, one batch per
        score."""
        graph, d_max = self.graph, self.algorithm.d_max
        if not all(map(graph.sorted_vertices_with_label, query)):
            return
        keywords = query.keywords
        # A memo hit arrives exhausted, so the loop below skips it.
        frontiers: Dict[str, BackwardFrontier] = dict(zip(
            keywords, BackwardFrontier.recall(graph, keywords, d_max, budget)
        ))

        # Expand the smallest visited set first (paper's strategy) until all
        # frontiers are exhausted.  Exhaustive expansion is required for
        # distinct-root completeness; top-k truncation happens at the end
        # (early termination for k answers is exercised by the BiG-index
        # evaluator instead, Sec. 4.3.4).
        scored_roots = self.algorithm.scored_roots
        hits = partial(self.algorithm.hits, keywords, frontiers)
        active = list(keywords)
        try:
            for frontier in frontiers.values():
                frontier.replay(budget)
            while active:
                active.sort(key=lambda kw: len(frontiers[kw].settled))
                keyword = active[0]
                frontiers[keyword].expand_level(budget)
                active = [kw for kw in active if not frontiers[kw].exhausted]
        except BudgetExceeded as exc:
            lower_bound = unseen_lower_bound(frontiers.values())
            ranked = scored_roots(keywords, frontiers, below=lower_bound)[:k]
            exc.partial = list(hits(ranked))
            exc.lower_bound = lower_bound
            raise

        for frontier in frontiers.values():
            frontier.remember()
        ranked = scored_roots(keywords, frontiers)[:k]
        for _, level in groupby(ranked, key=lambda pair: pair[0]):
            yield list(level), hits  # one settled score level per batch


class BackwardKeywordSearch(RootedTreeAlgorithm):
    """The ``bkws`` algorithm: distinct-root backward keyword search.

    Parameters
    ----------
    d_max:
        Hop bound on every root-to-keyword distance.
    k:
        Number of answers to return; ``None`` returns all (used by the
        equivalence tests between ``eval`` and ``eval_Ont``).
    """

    name = "bkws"

    def __init__(self, d_max: int = 3, k: Optional[int] = None) -> None:
        super().__init__(d_max, k)

    def bind(self, graph: Graph) -> BanksSearcher:
        """bkws has no persistent index; binding is O(1)."""
        return BanksSearcher(graph, self)
