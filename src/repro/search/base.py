"""Common interfaces for keyword search algorithms.

The BiG-index framework (Def. 2.3) is generic over a keyword search
algorithm ``f``; it only assumes the index function is label- and
path-preserving.  The contract an algorithm must satisfy to plug into the
framework is captured by :class:`KeywordSearchAlgorithm`:

* :meth:`~KeywordSearchAlgorithm.bind` builds whatever per-graph index the
  algorithm needs (Blinks' bi-level index, r-clique's neighbor lists) and
  returns a :class:`GraphSearcher` that answers queries on *that* graph.
  Because summary graphs are "yet another set of graphs" (Sec. 1), the same
  ``bind`` works on any layer of the BiG-index hierarchy.
* :meth:`~KeywordSearchAlgorithm.verify` re-checks a candidate answer on
  the data graph and computes its exact score, used during answer
  generation (Sec. 4.2 Step 5 "answer generation and verification").
* :meth:`~KeywordSearchAlgorithm.enlarge_ok` is the algorithm-specific part
  of the vertex qualification function (Def. 4.2): a cheap necessary
  condition for adding one more specialized vertex to a partial answer.

bkws, bidirectional and Blinks share one semantics — distinct-root trees
under ``d_max`` — and differ only in exploration order; what that semantics
implies is written once here: :class:`BackwardFrontier`,
:func:`unseen_lower_bound` and :class:`RootedTreeAlgorithm`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.digraph import Graph
from repro.graph.traversal import (
    bfs_distances,
    nearest_labeled_forward,
    shortest_path,
)
from repro.obs.runtime import OBS, charge_expansions
from repro.utils.budget import Budget
from repro.utils.errors import QueryError

#: Sentinel for ``GraphSearcher.search(k=...)``: use the searcher's own
#: bound ``self.k``.  Distinct from ``None``, which means "no cutoff".
USE_BOUND_K: object = object()

#: ``scr``: maps per-keyword root distances to an answer score.
ScoreFunction = Callable[[Mapping[str, int]], float]


@dataclass(frozen=True)
class KeywordQuery:
    """A keyword query ``Q = {q_1, ..., q_n}``.

    Keywords are label strings; duplicates are rejected because the paper's
    query generalization requires ``|Gen^m(Q)| = |Q|`` (Def. 4.1) — distinct
    keywords must stay distinguishable.
    """

    keywords: Tuple[str, ...]

    def __init__(self, keywords: Iterable[str]) -> None:
        kw = tuple(keywords)
        if not kw:
            raise QueryError("keyword query must contain at least one keyword")
        if len(set(kw)) != len(kw):
            raise QueryError(f"duplicate keywords in query: {kw}")
        object.__setattr__(self, "keywords", kw)

    def __len__(self) -> int:
        return len(self.keywords)

    def __iter__(self):
        return iter(self.keywords)

    def generalized(self, mapping: Mapping[str, str]) -> "KeywordQuery":
        """Apply a label mapping to every keyword (used by Gen on queries)."""
        return KeywordQuery(mapping.get(k, k) for k in self.keywords)


@dataclass(frozen=True)
class Answer:
    """One answer graph.

    Attributes
    ----------
    keyword_nodes:
        Maps each query keyword to the matched vertex (the ``p_i`` leaves in
        the tree semantics, the clique members for r-clique).
    root:
        The answer root ``r`` for rooted-tree semantics; ``None`` for
        root-free semantics such as r-clique.
    vertices:
        Every vertex of the answer graph (root, keyword nodes, and
        connecting path vertices), sorted.
    edges:
        The answer graph's edges (a tree for bkws/Blinks; star paths for
        r-clique).
    score:
        The ranking score — lower is better (``sum dist(r, p_i)`` for tree
        semantics, total pairwise distance for r-clique).
    """

    keyword_nodes: Tuple[Tuple[str, int], ...]
    root: Optional[int]
    vertices: Tuple[int, ...]
    edges: Tuple[Tuple[int, int], ...]
    score: float

    @staticmethod
    def make(
        keyword_nodes: Mapping[str, int],
        score: float,
        root: Optional[int] = None,
        vertices: Optional[Iterable[int]] = None,
        edges: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> "Answer":
        """Normalized constructor: sorts members for canonical equality."""
        kw = tuple(sorted(keyword_nodes.items()))
        verts = set(keyword_nodes.values())
        if root is not None:
            verts.add(root)
        if vertices is not None:
            verts.update(vertices)
        return Answer(
            keyword_nodes=kw,
            root=root,
            vertices=tuple(sorted(verts)),
            edges=tuple(sorted(set(edges or ()))),
            score=score,
        )

    @property
    def keyword_node_map(self) -> Dict[str, int]:
        """The keyword->vertex assignment as a dict."""
        return dict(self.keyword_nodes)

    def signature(self) -> Tuple:
        """Canonical identity ignoring path vertices: (root, keyword nodes).

        Two answers with the same root and keyword assignment are the same
        logical answer even if materialized with different shortest paths;
        equality tests between ``eval`` and ``eval_Ont`` compare signatures.
        """
        return (self.root, self.keyword_nodes)


class GraphSearcher(ABC):
    """An algorithm bound to one graph (with its per-graph index built).

    Budgets and soundness
    ---------------------
    ``search``/``iter_search`` accept an optional
    :class:`~repro.utils.budget.Budget`.  A budgeted search charges the
    budget per node expansion; on exhaustion it raises
    :class:`~repro.utils.errors.BudgetExceeded` whose ``partial`` holds a
    *prefix-sound* answer list: sorted exact answers such that every
    answer the search did not reach scores at least the exception's
    ``lower_bound``.  ``partial`` therefore equals the unbudgeted
    search's ranking truncated at ``lower_bound``.
    """

    #: The searcher's own top-k bound (``None`` = no cutoff).
    k: Optional[int] = None

    #: Lower bound on the score of every answer the current / most recent
    #: ``iter_search`` stream has not yielded yet, for searchers whose
    #: streams are not score-sorted; ``None`` means the stream is sorted,
    #: so the last yielded score is the bound.
    stream_lower_bound: Optional[float] = None

    def __init__(self, graph: Graph) -> None:
        self.graph = graph

    @abstractmethod
    def search(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: object = USE_BOUND_K,
    ) -> List[Answer]:
        """Answers of ``query`` on the bound graph, best (lowest) score first.

        ``k`` overrides the searcher's own top-k bound for this call only
        (``None`` = no cutoff); the default sentinel keeps ``self.k``.
        Passing ``k`` explicitly keeps searchers reentrant — nothing on
        ``self`` is mutated per call.
        """

    def _resolve_k(self, k: object) -> Optional[int]:
        """Resolve the ``k`` argument against the searcher's own bound."""
        if k is USE_BOUND_K:
            return self.k
        return k  # type: ignore[return-value]

    def iter_search(self, query: KeywordQuery, budget: Optional[Budget] = None):
        """Lazily yield answers in ascending score, ignoring any top-k cut.

        BiG-index's evaluator streams summary-layer answers through this:
        specialization is interleaved with enumeration (Sec. 5.2's
        boost-dkws decomposes the search space until enough *final*
        answers exist, not enough summary patterns).  The default runs the
        eager search un-truncated; algorithms with expensive enumeration
        (r-clique) override it with a true generator.
        """
        yield from self.search(query, budget=budget, k=None)


class KeywordSearchAlgorithm(ABC):
    """A keyword search semantics ``f`` pluggable into BiG-index."""

    #: short name used in benchmark tables ("bkws", "blinks", "r-clique").
    name: str = "abstract"

    #: Default top-k cutoff of the searchers it binds (``None`` = all).
    k: Optional[int] = None

    @abstractmethod
    def bind(self, graph: Graph) -> GraphSearcher:
        """Build the per-graph index and return a searcher for ``graph``."""

    @abstractmethod
    def verify(
        self,
        graph: Graph,
        keyword_nodes: Mapping[str, int],
        query: KeywordQuery,
        root: Optional[int] = None,
    ) -> Optional[Answer]:
        """Exact-check a candidate on ``graph``; return the scored answer or None.

        ``keyword_nodes`` assigns each keyword of ``query`` to a concrete
        vertex; the method validates the algorithm's structural constraints
        (distance bounds, connectivity) and computes the exact score.
        """

    def enlarge_ok(
        self,
        graph: Graph,
        partial: Mapping[str, int],
        keyword: str,
        vertex: int,
        query: KeywordQuery,
    ) -> bool:
        """Cheap necessary condition for assigning ``vertex`` to ``keyword``.

        Called during answer generation to prune partial candidate
        assignments early (part of Def. 4.2's qualification).  The default
        accepts everything; algorithms override with distance checks.
        """
        return True

    def check_query(self, graph: Graph, query: KeywordQuery) -> None:
        """Raise :class:`QueryError` when a keyword matches no vertex."""
        for keyword in query:
            if not graph.vertices_with_label(keyword):
                raise QueryError(
                    f"keyword {keyword!r} does not occur in the graph"
                )


def distance_sum(distances: Mapping[str, int]) -> int:
    """The hop-count ``scr``: the sum of root-to-keyword distances."""
    return sum(distances.values())


class BackwardFrontier:
    """Backward BFS from one keyword's vertex set, expandable level by level."""

    def __init__(self, graph: Graph, sources: Sequence[int], d_max: int) -> None:
        self.d_max = d_max
        self._in_neighbors = graph.csr().in_neighbors
        #: settled vertex -> distance to the nearest source.
        self.dist: Dict[int, int] = {v: 0 for v in sources}
        #: settled vertex -> the nearest source vertex itself.
        self.origin: Dict[int, int] = {v: v for v in sources}
        self._frontier: List[int] = sorted(sources)
        self.depth = 0

    @property
    def exhausted(self) -> bool:
        """Whether the expansion has reached ``d_max`` or run out of frontier."""
        return not self._frontier or self.depth >= self.d_max

    def expand_level(self, budget: Optional[Budget] = None) -> List[int]:
        """Advance one BFS level backward; returns the newly settled vertices.

        A budget is charged one unit per frontier vertex *before* the
        level expands, so exhaustion leaves the settled maps consistent
        at the previous depth — the basis of the prefix-soundness proof.
        This is the one expansion tap per level: callers layering a
        cursor or a schedule on top must not charge the level again.
        """
        if self.exhausted:
            return []
        charge_expansions(budget, len(self._frontier))
        if OBS.enabled:
            OBS.metrics.inc("search.levels_expanded")
        return self._advance()

    def _advance(self) -> List[int]:
        """Settle the next level.

        Origins are canonical: when several frontier vertices reach the
        same new vertex, the smallest origin wins, so every equal-distance
        tie resolves to the minimum source vertex id (by induction each
        frontier vertex already carries its minimal origin) and the maps
        are independent of adjacency order.  Cross-mode answer comparison
        relies on this determinism.
        """
        reached: Dict[int, int] = {}
        in_neighbors = self._in_neighbors
        for v in self._frontier:
            origin = self.origin[v]
            for u in in_neighbors(v):
                if u in self.dist:
                    continue
                prev = reached.get(u)
                if prev is None or origin < prev:
                    reached[u] = origin
        next_frontier = sorted(reached)
        for u in next_frontier:
            self.dist[u] = self.depth + 1
            self.origin[u] = reached[u]
        self._frontier = next_frontier
        self.depth += 1
        return next_frontier

    def run_to_completion(self) -> None:
        """Expand until exhausted, untapped: a whole distance map is index
        work (Blinks' keyword maps), not query-time ``search.expansions``."""
        while not self.exhausted:
            self._advance()


def unseen_lower_bound(frontiers: Iterable[BackwardFrontier]) -> float:
    """Sound lower bound on the score of any root not settled everywhere.

    A root missing from a still-active frontier is at distance at least
    that frontier's next depth, so its score is at least ``depth + 1``.
    Exhausted frontiers impose no bound: a root missing from one is not
    an answer at all (beyond ``d_max`` or unreachable).  Conversely every
    root scoring strictly below the bound is settled by all frontiers,
    which makes the interrupted answer set an exact ranking prefix.
    """
    active = [f for f in frontiers if not f.exhausted]
    if not active:
        return float("inf")
    return float(min(f.depth + 1 for f in active))


class RootedTreeAlgorithm(KeywordSearchAlgorithm):
    """Distinct-root tree semantics under ``d_max`` (Sec. 2).

    A match is a subtree rooted at ``r`` whose leaves ``p_i`` carry the
    query keywords with ``dist(r, p_i) <= d_max``; per root the match
    minimizing ``scr`` over the per-keyword distances is the answer.
    Subclasses differ only in how their searchers *explore* (``bind``).
    Being rooted is what lets the evaluator verify a specialized
    candidate root with one bounded BFS and lets shards merge per root,
    so callers test ``isinstance(algorithm, RootedTreeAlgorithm)``.
    """

    def __init__(
        self, d_max: int, k: Optional[int], scr: ScoreFunction = distance_sum
    ) -> None:
        if d_max < 0:
            raise QueryError("d_max must be non-negative")
        self.d_max = d_max
        self.k = k
        self.scr = scr

    def verify(
        self,
        graph: Graph,
        keyword_nodes: Mapping[str, int],
        query: KeywordQuery,
        root: Optional[int] = None,
    ) -> Optional[Answer]:
        """Check a root + keyword-node assignment on ``graph`` exactly.

        Requires each node to carry its keyword's label and to be within
        ``d_max`` of the root (directed).  Returns the scored, materialized
        answer tree or ``None``.
        """
        if root is None:
            return None
        from_root = bfs_distances(
            graph, [root], max_depth=self.d_max, direction="forward"
        )
        targets: Dict[str, int] = {}
        distances: Dict[str, int] = {}
        for keyword in query:
            node = keyword_nodes.get(keyword)
            if node is None or graph.label(node) != keyword:
                return None
            d = from_root.get(node)
            if d is None:
                return None
            targets[keyword] = node
            distances[keyword] = d
        return self.answer_tree(graph, root, targets, self.scr(distances))

    def best_answer_for_root(
        self, graph: Graph, root: int, query: KeywordQuery
    ) -> Optional[Answer]:
        """The minimal-score answer rooted at ``root``, or ``None``.

        One forward BFS from the root finds the nearest vertex of each
        keyword label, stopping as soon as every keyword is found (so
        verifying a good candidate root touches a small ball); used by
        the BiG-index evaluator to verify candidate roots coming out of
        specialization.
        """
        found = nearest_labeled_forward(
            graph, root, set(query.keywords), self.d_max
        )
        if found is None:
            return None
        keyword_nodes = {kw: v for kw, (_, v) in found.items()}
        score = self.scr({kw: d for kw, (d, _) in found.items()})
        return self.answer_tree(graph, root, keyword_nodes, score)

    def settled_answers(
        self,
        graph: Graph,
        keywords: Sequence[str],
        frontiers: Mapping[str, BackwardFrontier],
        below: float = float("inf"),
        skip: Iterable[int] = (),
    ) -> List[Answer]:
        """Answers among the settled roots with score strictly below ``below``.

        A root settled by every frontier carries exact distances (BFS
        settles in distance order), so each returned answer's score is
        exact even when the frontiers were interrupted mid-way.  Roots in
        ``skip`` (already answered by the caller) are left out.
        """
        candidate_roots = set(frontiers[keywords[0]].dist)
        for keyword in keywords[1:]:
            candidate_roots &= set(frontiers[keyword].dist)
        candidate_roots.difference_update(skip)
        scr = self.scr
        answers = []
        for root in candidate_roots:
            score = scr({kw: frontiers[kw].dist[root] for kw in keywords})
            if score >= below:
                continue
            keyword_nodes = {kw: frontiers[kw].origin[root] for kw in keywords}
            answers.append(self.answer_tree(graph, root, keyword_nodes, score))
        return answers

    def answer_tree(
        self,
        graph: Graph,
        root: int,
        keyword_nodes: Dict[str, int],
        score: float,
    ) -> Answer:
        """Build the answer tree: union of shortest root-to-keyword paths."""
        vertices: Set[int] = {root}
        edges: Set[Tuple[int, int]] = set()
        for node in keyword_nodes.values():
            path = shortest_path(graph, root, node, max_depth=self.d_max)
            if path is None:  # pragma: no cover - callers guarantee reachability
                continue
            vertices.update(path)
            edges.update(zip(path, path[1:]))
        return Answer.make(
            keyword_nodes, score=score, root=root, vertices=vertices, edges=edges
        )


def top_k(answers: Sequence[Answer], k: Optional[int]) -> List[Answer]:
    """Deterministically sort answers and truncate to ``k``.

    Sorting is by (score, root, keyword nodes) so ties break identically
    across direct and BiG-index evaluation, which Prop. 5.3's
    ranking-preservation tests rely on.
    """
    ordered = sorted(answers, key=lambda a: (a.score, a.signature()))
    if k is None:
        return ordered
    return ordered[:k]
