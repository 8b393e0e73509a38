"""Workload inputs: the request pool, the mutation script and the oracle.

Everything here is a pure function of ``(data graph, index, seed)``; the
programs under test only ever receive the generated requests.  The seed
fixes the order of requests and which edges are mutated; the request pool
itself is the dataset's (see :func:`keyword_sets`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datasets.workloads import generate_queries
from repro.graph.digraph import Graph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery, top_k
from repro.utils.errors import QueryError

DATASET = "yago-like"
#: 5 000 vertices / 8 299 edges.  The issue asked for scale 1.0; the
#: driver's budget (92 runs in 3420 s, set-up repeated three times per
#: run) only fits half of it.  Smoke runs use ``SMOKE_SCALE``.
SCALE = 0.5
SMOKE_SCALE = 0.2
LAYERS = 3
D_MAX = 3
K = 10
#: Keyword counts of the 48 generated queries (~45 distinct sets).
ARITIES = (2, 2, 3, 3, 3, 3, 3, 4) * 6
#: The evaluator's result LRU; serve-explore's pool must exceed it.
RESULT_CACHE_ENTRIES = 128
#: Auto-layer entries serve-hot cycles over.
HOT_ENTRIES = 16
#: Reads after each write in serve-rw's script.
READS_PER_WRITE = 4

KeywordSet = Tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Fixed tail percentile: the highest that keeps >= 10 samples beyond
    #: it at the op count one run reaches (50 where nothing higher can).
    tail_pct: int
    admin: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve-explore",
            "pool larger than the result LRU, cycled: every request runs "
            "eval_Ont (layers 0-2); the only place a searcher/evaluator "
            "change shows",
            tail_pct=95,
        ),
        Workload(
            "serve-hot",
            "16 requests repeated: all result-cache hits, so transport + "
            "service + JSON only; bypasses the evaluator (prediction: "
            "searcher changes do not move it)",
            tail_pct=99,
        ),
        Workload(
            "serve-rw",
            "serve --admin with WAL: delete, 4 reads, insert, 4 reads per "
            "edge; writes are COW clone + bisim maintenance + fsync, reads "
            "land on cold snapshots",
            tail_pct=95,
            admin=True,
        ),
        Workload(
            "build-load",
            "cold CLI cycles: build (Algo. 1, refinement, v4 save) then "
            "query in a fresh process (mmap load, bind, first answer)",
            tail_pct=50,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One ``POST /query`` (or ``repro.cli query``) input."""

    keywords: KeywordSet
    k: int = K
    layer: Optional[int] = None

    @property
    def cache_key(self) -> Tuple[KeywordSet, Optional[int], int]:
        """What the evaluator's result LRU distinguishes requests by."""
        return (tuple(sorted(self.keywords)), self.layer, self.k)


def keyword_sets(graph: Graph) -> List[KeywordSet]:
    """Distinct answer-rich keyword sets of the data graph (sorted).

    The sets are a property of the dataset, not of ``--seed``: how much
    work a set costs varies several-fold, and a pool redrawn per seed moved
    ``ops_per_s`` on serve-explore by +-20 % with nothing else changed.  The
    seed orders the requests instead (:func:`seeded_order`).

    One ``generate_queries`` call per query, each on its own stream; a
    stream that finds no answer-rich set of the wanted size falls back to
    one keyword fewer.
    """
    sets = set()
    for stream, arity in enumerate(ARITIES):
        for size in range(arity, 1, -1):
            try:
                (spec,) = generate_queries(
                    graph,
                    [size],
                    seed=stream,
                    min_support=max(3, graph.num_vertices // 200),
                    min_answers=5,
                    answer_d_max=D_MAX,
                )
            except QueryError:
                continue
            sets.add(tuple(sorted(spec.keywords)))
            break
    return sorted(sets)


def build_pool(
    sets: Sequence[KeywordSet], distinct_at: Callable[[KeywordQuery, int], bool]
) -> List[Request]:
    """serve-explore's pool: every set as auto k=10, auto k=5, and forced
    layers 1 and 2 where Def. 4.1 holds."""
    pool: List[Request] = []
    for keywords in sets:
        pool.append(Request(keywords, K))
        pool.append(Request(keywords, K // 2))
        query = KeywordQuery(keywords)
        for layer in (1, 2):
            if distinct_at(query, layer):
                pool.append(Request(keywords, K, layer))
    return pool


def base_requests(pool: Sequence[Request]) -> List[Request]:
    """The auto-layer k=10 entries, one per keyword set."""
    return [r for r in pool if r.layer is None and r.k == K]


def seeded_order(requests: Sequence[Request], seed: int) -> List[Request]:
    """The same requests in the order ``--seed`` fixes."""
    ordered = list(requests)
    random.Random(seed).shuffle(ordered)
    return ordered


def requests_for(workload: str, pool: Sequence[Request], seed: int) -> List[Request]:
    """The request list a workload cycles through, in ``--seed``'s order:
    the whole pool (serve-explore), 16 auto-layer entries (serve-hot), or
    every auto-layer entry (serve-rw's reads, build-load's queries)."""
    if workload == "serve-explore":
        return seeded_order(pool, seed)
    if workload == "serve-hot":
        return seeded_order(base_requests(pool)[:HOT_ENTRIES], seed)
    return seeded_order(base_requests(pool), seed)


def mutation_edges(graph: Graph, seed: int) -> List[Tuple[int, int]]:
    """Every data-graph edge in one seeded order; serve-rw walks a prefix."""
    edges = sorted(graph.edges())
    random.Random(seed).shuffle(edges)
    return edges


class Oracle:
    """eval on the data graph — what every eval_Ont answer must equal."""

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self._scores: Dict[KeywordSet, List[float]] = {}

    def scores(self, keywords: KeywordSet) -> List[float]:
        """Ranked scores of every answer (memoized until :meth:`reset`)."""
        cached = self._scores.get(keywords)
        if cached is None:
            searcher = BackwardKeywordSearch(d_max=D_MAX, k=None).bind(self.graph)
            answers = searcher.search(KeywordQuery(keywords))
            cached = [a.score for a in top_k(answers, None)]
            self._scores[keywords] = cached
        return cached

    def expected(self, request: Request) -> List[float]:
        return self.scores(request.keywords)[: request.k]

    def reset(self) -> None:
        """Forget memoized rankings (the graph was mutated)."""
        self._scores.clear()
