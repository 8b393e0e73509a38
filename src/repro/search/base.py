"""Common interfaces for keyword search algorithms.

The BiG-index framework (Def. 2.3) is generic over a keyword search
algorithm ``f``; it only assumes the index function is label- and
path-preserving.  The contract an algorithm must satisfy to plug into the
framework is captured by :class:`KeywordSearchAlgorithm`:

* :meth:`~KeywordSearchAlgorithm.bind` builds whatever per-graph index the
  algorithm needs (r-clique's neighbor lists; none for the rooted ones) and
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
:func:`unseen_lower_bound`, :class:`RootedTreeAlgorithm` and
:class:`RootedSearcher`.  Reads cost what they return: a rooted search
ranks :class:`RootHit` tuples and builds an answer tree
(:meth:`RootedTreeAlgorithm.answer_tree`) only for the hits that leave
the system.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from math import ceil
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.digraph import Graph
from repro.graph.traversal import (
    bfs_distances,
    nearest_labeled_reader,
    shortest_path,
)
from repro.obs.runtime import OBS, charge_expansions
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded, QueryError

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

    def signature(self) -> Tuple:
        """Canonical identity ignoring path vertices: (root, keyword nodes).

        Two answers with the same root and keyword assignment are the same
        logical answer even if materialized with different shortest paths;
        equality tests between ``eval`` and ``eval_Ont`` compare signatures.
        """
        return (self.root, self.keyword_nodes)


class RootHit(NamedTuple):
    """A rooted answer before its tree is built: all that ranks it.
    ``keyword_nodes`` is sorted by keyword, as in the built :class:`Answer`."""

    score: float
    root: int
    keyword_nodes: Tuple[Tuple[str, int], ...]

    def signature(self) -> Tuple:
        """The materialized answer's :meth:`Answer.signature`."""
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

    @abstractmethod
    def iter_search(self, query: KeywordQuery, budget: Optional[Budget] = None):
        """Lazily yield answers in ascending score, ignoring any top-k cut.

        BiG-index's evaluator streams summary-layer answers through this:
        specialization is interleaved with enumeration (Sec. 5.2's
        boost-dkws decomposes the search space until enough *final*
        answers exist, not enough summary patterns).  Streams that are
        not score-sorted (Blinks) expose ``stream_lower_bound``.
        """


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


def distance_sum(distances: Mapping[str, int]) -> int:
    """The hop-count ``scr``: the sum of root-to-keyword distances."""
    return sum(distances.values())


class BackwardFrontier:
    """Backward BFS from one keyword's vertex set, expandable level by level.

    ``dist`` and ``origin`` are flat lists over the graph's vertex ids
    (``-1`` = not settled), allocated per frontier — per query, never per
    searcher, so a bound searcher can serve concurrent queries.  ``settled``
    lists the settled vertices in settling order.

    Origins are canonical: among the sources nearest to a vertex, its
    origin is the smallest.  The frontier is kept in origin order (the
    sources are sorted and are their own origins; each level is built by
    scanning the previous one in order, and a vertex takes the origin of
    the first frontier vertex that reaches it), so the first reach of a
    vertex *is* its minimum origin.  The maps are therefore independent
    of adjacency order; cross-mode answer comparison relies on this.
    """

    _memo = _key = None  #: where :meth:`remember` stores a fresh recall
    _cost = 0  #: expansions a memo hit replays (a fresh frontier: none)

    def __init__(self, graph: Graph, sources: Sequence[int], d_max: int) -> None:
        self.d_max = d_max
        self._predecessors = graph.rows()[1]
        #: vertex -> distance to the nearest source, ``-1`` if unsettled.
        self.dist: List[int] = [-1] * graph.num_vertices
        #: vertex -> the nearest source vertex itself, ``-1`` if unsettled.
        self.origin: List[int] = [-1] * graph.num_vertices
        for v in sources:
            self.dist[v] = 0
            self.origin[v] = v
        #: settled vertices, level by level.
        self.settled: List[int] = sorted(sources)
        self._frontier: List[int] = list(self.settled)
        self.depth = 0

    @classmethod
    def recall(
        cls, graph: Graph, labels: Sequence[str], d_max: int,
        budget: Optional[Budget],
    ) -> List["BackwardFrontier"]:
        """One frontier per label: a hit of an mmap-backed graph's memo,
        keyed ``(label id, d_max)`` and already exhausted, or a fresh one
        that :meth:`remember` stores.  Hits are used under an expansion
        cap only if every label hits and the cap affords their recorded
        cost: then no cap trips where fresh expansion would not."""
        memo = graph.frontier_memo()
        keys = [(graph.label_table.get_id(label), d_max) for label in labels]
        hits = [None] * len(keys) if memo is None else memo.get_many(keys)
        if budget is not None and not budget.affords(
            sum(hit._cost for hit in hits) if all(hits) else float("inf")
        ):
            hits = [None] * len(keys)
        frontiers = []
        for label, key, hit in zip(labels, keys, hits):
            if hit is None:
                hit = cls(graph, graph.sorted_vertices_with_label(label), d_max)
                hit._memo, hit._key = memo, key
            frontiers.append(hit)
        return frontiers

    def replay(self, budget: Optional[Budget]) -> None:
        """Charge a memo hit's recorded expansions and levels; a fresh
        frontier has none.  Callers replay where a charge may raise."""
        charge_expansions(budget, self._cost)
        if self._cost and OBS.enabled:
            OBS.metrics.inc("search.levels_expanded", self.depth)

    def remember(self) -> None:
        """Store a recalled, exhausted frontier as int8/int32 arrays with
        its cost: one charge per vertex of every level but the last."""
        if self._memo is None:
            return
        entry = BackwardFrontier.__new__(BackwardFrontier)
        entry.d_max, entry.depth, entry._frontier = self.d_max, self.depth, ()
        entry.dist = array("b" if self.d_max < 128 else "i", self.dist)
        entry.origin = array("i", self.origin)
        entry.settled = array("i", self.settled)
        entry._cost = len(self.settled) - len(self._frontier)
        self._memo.put(self._key, entry)

    @property
    def exhausted(self) -> bool:
        """Whether the expansion has reached ``d_max`` or run out of frontier."""
        return not self._frontier or self.depth >= self.d_max

    def expand_level(self, budget: Optional[Budget] = None) -> List[int]:
        """Advance one BFS level backward; returns the newly settled
        vertices in settling (origin) order, not sorted — callers that
        rely on ascending ids sort it themselves.

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
        """Settle the next level; returns it in origin order."""
        dist, origin = self.dist, self.origin
        predecessors = self._predecessors
        depth = self.depth + 1
        level: List[int] = []
        append = level.append
        for v in self._frontier:
            v_origin = origin[v]
            for u in predecessors[v]:
                if dist[u] < 0:
                    dist[u] = depth
                    origin[u] = v_origin
                    append(u)
        self.settled += level
        self._frontier = level
        self.depth = depth
        return level


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


def settled_by_all(
    frontiers: Sequence[BackwardFrontier], skip: Iterable[int] = ()
) -> Sequence[int]:
    """The vertices every frontier has settled, less ``skip``: the
    smallest frontier's ``settled`` list, narrowed frontier by frontier,
    smallest first, so each test reads only what is still left."""
    smallest, *others = sorted(frontiers, key=lambda f: len(f.settled))
    vertices = smallest.settled
    if skip:
        skip = set(skip)
        vertices = [v for v in vertices if v not in skip]
    for dist in [frontier.dist for frontier in others]:
        vertices = [v for v in vertices if dist[v] >= 0]
    return vertices


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
        distances: Dict[str, int] = {}
        for keyword in query:
            node = keyword_nodes.get(keyword)
            if node is None or graph.label(node) != keyword:
                return None
            d = from_root.get(node)
            if d is None:
                return None
            distances[keyword] = d
        nodes = tuple(sorted((kw, keyword_nodes[kw]) for kw in query))
        if OBS.enabled:
            OBS.metrics.inc("search.trees_materialized")
        return self.answer_tree(graph, RootHit(self.scr(distances), root, nodes))

    def best_hit_for_root(
        self, graph: Graph, root: int, query: KeywordQuery
    ) -> Optional[RootHit]:
        """The minimal-score hit rooted at ``root``, or ``None``: a
        one-root :meth:`root_verifier`.

        Kept as the tests' per-root reference for searcher scores, the
        sharded gather and the layer-1 reach bound.
        """
        return next(self.root_verifier(graph, query)([root]))

    def root_verifier(
        self, graph: Graph, query: KeywordQuery
    ) -> Callable[[Sequence[int]], Iterator[Optional[RootHit]]]:
        """Verify candidate roots of ``query`` on ``graph``: the returned
        function maps a root list to each root's minimal-score hit (or
        ``None``), lazily and in order.

        The nearest vertex of each keyword label is read from the root's
        profile, memoized once per frozen graph and read one root list
        per memo batch, or on the heap found by one forward BFS that
        stops as soon as every keyword is found (so verifying a good
        candidate root touches a small ball); see
        :func:`nearest_labeled_reader`.  The keywords' label ids are
        resolved once per verifier.  Used by the BiG-index evaluator to
        verify candidate roots coming out of specialization (one verifier
        per attempt), by bdws' forward probes (one per query) and by the
        sharded gather.
        """
        read = nearest_labeled_reader(graph, sorted(query.keywords), self.d_max)
        scr = self.scr

        def verify(roots: Sequence[int]) -> Iterator[Optional[RootHit]]:
            for root, found in zip(roots, read(roots)):
                if found is None:
                    yield None
                    continue
                score = scr({kw: d for kw, (d, _) in found.items()})
                yield RootHit(
                    score, root, tuple((kw, v) for kw, (_, v) in found.items())
                )

        return verify

    def scored_roots(
        self,
        keywords: Sequence[str],
        frontiers: Mapping[str, BackwardFrontier],
        below: float = float("inf"),
        skip: Iterable[int] = (),
    ) -> List[Tuple[float, int]]:
        """Ascending ``(score, root)`` pairs of the settled roots scoring
        strictly below ``below``.

        A root settled by every frontier carries exact distances (BFS
        settles in distance order), so each score is exact even when the
        frontiers were interrupted mid-way.  Filter, then score: only the
        roots every frontier has settled (:func:`settled_by_all`, less
        ``skip``, the roots the caller already answered) are scored and
        sorted, once, and ``below`` cuts the sorted run.  The hop-count
        ``scr`` sorts packed ``score * |V| + root`` ints.  A root has
        exactly one hit, so this order is :func:`top_k`'s order of the
        hits :meth:`hits` builds from it.
        """
        ordered = sorted(keywords)
        dists = [frontiers[kw].dist for kw in ordered]
        roots = settled_by_all([frontiers[kw] for kw in ordered], skip)
        if self.scr is distance_sum:
            n = len(dists[0])
            first, *rest = dists
            keys = [first[root] * n + root for root in roots]
            for dist in rest:
                keys = [key + dist[root] * n for key, root in zip(keys, roots)]
            keys.sort()
            if below != float("inf"):
                del keys[bisect_left(keys, ceil(below) * n):]
            return [divmod(key, n) for key in keys]
        scr = self.scr
        rows = zip(*[[dist[root] for root in roots] for dist in dists])
        pairs = sorted(zip([scr(dict(zip(ordered, row))) for row in rows], roots))
        del pairs[bisect_left(pairs, (below,)):]
        return pairs

    @staticmethod
    def hits(
        keywords: Sequence[str],
        frontiers: Mapping[str, BackwardFrontier],
        ranked: Iterable[Tuple[float, int]],
    ) -> Iterator[RootHit]:
        """The hits of ``ranked`` :meth:`scored_roots` pairs, each built
        from the frontiers' ``origin`` arrays only when it is read."""
        ordered = sorted(keywords)
        origins = [frontiers[kw].origin for kw in ordered]
        for score, root in ranked:
            nodes = tuple(zip(ordered, [o[root] for o in origins]))
            yield RootHit(score, root, nodes)

    def settled_hits(
        self,
        keywords: Sequence[str],
        frontiers: Mapping[str, BackwardFrontier],
        below: float = float("inf"),
        skip: Iterable[int] = (),
    ) -> List[RootHit]:
        """:meth:`scored_roots` as hits, in the same order."""
        ranked = self.scored_roots(keywords, frontiers, below, skip)
        return list(self.hits(keywords, frontiers, ranked))

    def answer_tree(self, graph: Graph, hit: RootHit) -> Answer:
        """Build the hit's answer tree: the union of shortest
        root-to-keyword paths.  Rooted searches call it only for the hits
        that leave the system; each caller adds the trees it built to
        ``search.trees_materialized`` once per call."""
        root = hit.root
        vertices: Set[int] = {root}
        edges: Set[Tuple[int, int]] = set()
        for _, node in hit.keyword_nodes:
            path = shortest_path(graph, root, node, max_depth=self.d_max)
            if path is None:  # pragma: no cover - callers guarantee reachability
                continue
            vertices.update(path)
            edges.update(zip(path, path[1:]))
        return Answer.make(
            dict(hit.keyword_nodes),
            score=hit.score,
            root=root,
            vertices=vertices,
            edges=edges,
        )


#: A settled batch: ``(score, root)`` pairs in stream order, and their hit builder.
RootBatch = Tuple[List[Tuple[float, int]], Callable[..., Iterable[RootHit]]]


class RootedSearcher(GraphSearcher):
    """A searcher of a :class:`RootedTreeAlgorithm`: one enumeration body,
    :meth:`root_batches`, read as hits by :meth:`search_hits` /
    :meth:`iter_hits` (the sharded gather) and as bare (score, root)
    pairs by the evaluator; :meth:`search` / :meth:`iter_search` build
    trees for the hits they return."""

    def __init__(self, graph: Graph, algorithm: RootedTreeAlgorithm) -> None:
        super().__init__(graph)
        self.algorithm = algorithm
        self.k = algorithm.k

    @abstractmethod
    def root_batches(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: Optional[int] = None,
    ) -> Iterator[RootBatch]:
        """The top-``k`` roots in batches the search settles without
        expanding further (a bkws score level, bdws' ranking, a Blinks level);
        a budget trip carries the ``partial`` hits and ``lower_bound``
        the body can prove (Blinks' own: its :meth:`search_hits`)."""

    def search_hits(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: object = USE_BOUND_K,
    ) -> List[RootHit]:
        """:meth:`search` as hits (a budget trip's ``partial`` too)."""
        batches = self.root_batches(query, budget, self._resolve_k(k))
        return [hit for pairs, hits in batches for hit in hits(pairs)]

    def iter_hits(
        self, query: KeywordQuery, budget: Optional[Budget] = None
    ) -> Iterator[RootHit]:
        """:meth:`iter_search` as hits, each built when it is read."""
        for pairs, hits in self.root_batches(query, budget):
            yield from hits(pairs)

    def search(
        self,
        query: KeywordQuery,
        budget: Optional[Budget] = None,
        k: object = USE_BOUND_K,
    ) -> List[Answer]:
        return list(self._trees(self.search_hits, query, budget, k=k))

    def iter_search(self, query: KeywordQuery, budget: Optional[Budget] = None):
        return self._trees(self.iter_hits, query, budget)

    def _trees(self, hits, *args, **kwargs) -> Iterator[Answer]:
        """Trees of ``hits(*args, **kwargs)``, built as they are consumed
        (a budget trip's ``partial`` too), counted once when the
        enumeration ends or is abandoned."""
        tree = self.algorithm.answer_tree
        built = 0
        try:
            for hit in hits(*args, **kwargs):
                answer = tree(self.graph, hit)
                built += 1
                yield answer
        except BudgetExceeded as exc:
            exc.partial = [tree(self.graph, hit) for hit in exc.partial]
            built += len(exc.partial)
            raise
        finally:
            if built and OBS.enabled:
                OBS.metrics.inc("search.trees_materialized", built)


def top_k(answers: Sequence, k: Optional[int]) -> List:
    """Deterministically sort answers (or root hits) and truncate to ``k``.

    Sorting is by (score, root, keyword nodes) so ties break identically
    across direct and BiG-index evaluation, which Prop. 5.3's
    ranking-preservation tests rely on.  A hit and its materialized
    answer share score and signature, so ranking hits and building
    trees for the top ``k`` equals ranking the trees.
    """
    ordered = sorted(answers, key=lambda a: (a.score, a.signature()))
    if k is None:
        return ordered
    return ordered[:k]
