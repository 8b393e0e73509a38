"""Rooted reads pay only for roots that can rank.

* the bulk scorer (``RootedTreeAlgorithm.scored_roots`` / ``settled_hits``)
  equals the per-root loop it replaced, kept here as the oracle, and
  bkws / bdws ``search_hits`` / ``iter_hits`` agree with each other;
* the evaluator's layer-1 reach bound is sound (every root it rejects
  has no answer on the data graph) and silent (answers and counters
  equal an evaluator that skips it), and a wrongly swept bound is
  caught by the differential oracle;
* a layer-m hit whose layer-1 blocks the bound rejects all at once is
  counted and charged in one step, exactly as the per-root loop would,
  at every expansion cap.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.datasets.knowledge import dataset_registry
from repro.graph.digraph import Graph
from repro.obs.runtime import instrumented
from repro.ontology.ontology import OntologyGraph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import (
    BackwardFrontier,
    KeywordQuery,
    RootHit,
    distance_sum,
    top_k,
)
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded
from repro.verify.oracle import DifferentialOracle

LABELS = ("A", "B", "C", "D")


@st.composite
def graphs(draw, max_vertices: int = 20, max_edges: int = 50) -> Graph:
    """Random labelled directed graphs over ``LABELS``."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    g = Graph()
    for label in draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)):
        g.add_vertex(label)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    for u, v in pairs:
        if u != v:
            g.add_edge(u, v)
    return g


@st.composite
def ontologies(draw) -> OntologyGraph:
    """Random four-level ontologies: each label under one of two middle
    types (or none), the middle types under two upper types (or none),
    the upper types under ``Top`` — deep enough for three layers."""
    ont = OntologyGraph()
    for label in LABELS:
        middle = draw(st.sampled_from(("M1", "M2", None)))
        if middle is not None:
            ont.add_subtype(label, middle)
    for middle in ("M1", "M2"):
        if middle in ont:
            upper = draw(st.sampled_from(("U1", "U2", None)))
            if upper is not None:
                ont.add_subtype(middle, upper)
    for upper in ("U1", "U2"):
        if upper in ont:
            ont.add_subtype(upper, "Top")
    return ont


def max_distance(distances) -> int:
    """A non-default ``scr``: the farthest keyword."""
    return max(distances.values())


def oracle_settled_hits(algorithm, keywords, frontiers, below, skip):
    """The per-root loop ``settled_hits`` ran before bulk scoring."""
    ordered = sorted(keywords)
    dists = [frontiers[kw].dist for kw in ordered]
    origins = [frontiers[kw].origin for kw in ordered]
    smallest = min((frontiers[kw] for kw in ordered), key=lambda f: len(f.settled))
    skip = set(skip)
    hits = []
    for root in smallest.settled:
        distances = [d[root] for d in dists]
        if -1 in distances or root in skip:
            continue
        score = algorithm.scr(dict(zip(ordered, distances)))
        if score < below:
            nodes = tuple(zip(ordered, [o[root] for o in origins]))
            hits.append(RootHit(score, root, nodes))
    return hits


def present_keyword_sets(g: Graph, sizes=(1, 2, 3)):
    labels = [l for l in LABELS if g.vertices_with_label(l)]
    for size in sizes:
        yield from itertools.combinations(labels, size)


class TestBulkScoring:
    @given(
        graphs(),
        st.integers(1, 3),
        st.lists(st.integers(0, 3), min_size=3, max_size=3),
        st.sampled_from((float("inf"), 1, 2, 3, 4)),
        st.sets(st.integers(0, 19), max_size=6),
        st.sampled_from((distance_sum, max_distance)),
    )
    @settings(max_examples=60, deadline=None)
    def test_scored_roots_match_the_per_root_loop(
        self, g, d_max, levels, below, skip, scr
    ):
        """Frontiers interrupted at random depths, with ``below``,
        ``skip`` and either ``scr``: same hits, in ``top_k`` order."""
        algorithm = BackwardKeywordSearch(d_max=d_max)
        algorithm.scr = scr
        for keywords in present_keyword_sets(g):
            frontiers = {}
            for keyword, depth in zip(keywords, levels):
                frontier = BackwardFrontier(
                    g, g.sorted_vertices_with_label(keyword), d_max
                )
                for _ in range(depth):
                    frontier.expand_level()
                frontiers[keyword] = frontier
            expected = oracle_settled_hits(
                algorithm, keywords, frontiers, below, skip
            )
            ranked = algorithm.scored_roots(keywords, frontiers, below, skip)
            assert ranked == sorted((h.score, h.root) for h in expected)
            hits = algorithm.settled_hits(keywords, frontiers, below, skip)
            assert hits == top_k(expected, None)

    @given(graphs(), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_search_hits_iter_hits_and_top_k_agree(self, g, d_max, k):
        for algorithm in (
            BackwardKeywordSearch(d_max=d_max),
            BidirectionalSearch(d_max=d_max),
        ):
            searcher = algorithm.bind(g)
            for keywords in present_keyword_sets(g, sizes=(2, 3)):
                query = KeywordQuery(keywords)
                everything = searcher.search_hits(query, k=None)
                assert searcher.search_hits(query, k=k) == top_k(everything, k)
                assert list(searcher.iter_hits(query)) == everything
                frontiers = {
                    kw: BackwardFrontier(g, g.sorted_vertices_with_label(kw), d_max)
                    for kw in keywords
                }
                for frontier in frontiers.values():
                    while not frontier.exhausted:
                        frontier.expand_level()
                assert everything == top_k(
                    oracle_settled_hits(
                        algorithm, keywords, frontiers, float("inf"), ()
                    ),
                    None,
                )

    def test_iter_hits_builds_hits_only_as_read(self):
        """Reading one hit of a lazy stream builds no others."""
        g = Graph()
        hub = g.add_vertex("R")
        for label in ("A", "B") * 5:
            g.add_edge(hub, g.add_vertex(label))
        built = []
        algorithm = BackwardKeywordSearch(d_max=2)
        hits = algorithm.hits

        def counting_hits(keywords, frontiers, ranked):
            for hit in hits(keywords, frontiers, ranked):
                built.append(hit)
                yield hit

        algorithm.hits = counting_hits
        stream = algorithm.bind(g).iter_hits(KeywordQuery(["A", "B"]))
        first = next(stream)
        assert first.root == hub and built == [first]


class Unbounded(HierarchicalEvaluator):
    """The evaluator without the layer-1 reach bound."""

    def _layer1_reach(self, query, budget):
        return None


def _build(g, ontology) -> BiGIndex:
    return BiGIndex.build(
        g, ontology, num_layers=3, cost_params=CostParams(exact=True)
    )


class TestLayer1ReachBound:
    @given(graphs(), ontologies(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_rejected_roots_have_no_answer(self, g, ontology, d_max):
        """Soundness: a root whose layer-1 block some sweep leaves
        unsettled (not in the reached set) has a keyword beyond ``d_max``
        on the data graph."""
        index = _build(g, ontology)
        if index.num_layers < 1:
            return
        algorithm = BackwardKeywordSearch(d_max=d_max)
        evaluator = HierarchicalEvaluator(index, algorithm)
        block_of = index.layers[0].parent_of
        for keywords in present_keyword_sets(g):
            query = KeywordQuery(keywords)
            if not index.query_distinct_at(query, 1):
                continue
            reach = evaluator._layer1_reach(query, None)
            for root in range(g.num_vertices):
                if block_of[root] not in reach:
                    assert algorithm.best_hit_for_root(g, root, query) is None

    @given(graphs(), ontologies(), st.integers(1, 3), st.sampled_from((None, 2)))
    @settings(max_examples=40, deadline=None)
    def test_bound_is_silent(self, g, ontology, d_max, k):
        """Forced layers >= 2: answers and all three counters equal the
        evaluator that verifies every candidate root."""
        index = _build(g, ontology)
        for algorithm in (
            BackwardKeywordSearch(d_max=d_max),
            BidirectionalSearch(d_max=d_max),
            Blinks(d_max=d_max),
        ):
            bounded = HierarchicalEvaluator(index, algorithm, cache_size=0)
            plain = Unbounded(index, algorithm, cache_size=0)
            for keywords in present_keyword_sets(g, sizes=(2, 3)):
                query = KeywordQuery(keywords)
                for layer in range(2, index.num_layers + 1):
                    if not index.query_distinct_at(query, layer):
                        continue
                    got = bounded.evaluate(query, layer=layer, k=k)
                    want = plain.evaluate(query, layer=layer, k=k)
                    assert got.answers == want.answers
                    assert (
                        got.num_generalized, got.num_candidates, got.num_verified
                    ) == (
                        want.num_generalized, want.num_candidates,
                        want.num_verified,
                    )


@pytest.fixture(scope="module")
def yago_layer2():
    """yago-like at scale 0.05, three layers, and the first pair of its
    frequent labels that answers on layer 2 (the CI trace-smoke pick)."""
    dataset = dataset_registry(scale=0.05)["yago-like"]()
    index = BiGIndex.build(
        dataset.graph, dataset.ontology, num_layers=3,
        cost_params=CostParams(num_samples=10),
    )
    histogram = dataset.graph.label_histogram()
    labels = sorted(histogram, key=lambda l: (-histogram[l], l))[:40]
    evaluator = HierarchicalEvaluator(index, BackwardKeywordSearch(d_max=3, k=3))
    for pair in itertools.combinations(labels, 2):
        query = KeywordQuery(pair)
        if index.query_distinct_at(query, 2) and evaluator.evaluate(
            query, layer=2
        ).answers:
            return index, query
    pytest.fail("no keyword pair answers on layer 2")


class TestBoundCounters:
    def test_bound_rejects_candidates_and_counts_them(self, yago_layer2):
        index, query = yago_layer2
        algorithm = BackwardKeywordSearch(d_max=3)
        with instrumented(trace=False) as inst:
            got = HierarchicalEvaluator(index, algorithm).evaluate(query, layer=2)
        counters = inst.metrics.counters()
        bounded = counters["eval.candidates_bounded"]
        assert 0 < bounded <= got.num_candidates == counters["eval.candidates"]
        want = Unbounded(index, algorithm).evaluate(query, layer=2)
        assert got.answers == want.answers

    def test_a_bound_swept_short_is_caught_by_the_oracle(self, yago_layer2):
        """Planted bug: sweeping to ``d_max - 1`` drops true roots, and
        the differential oracle reports the missing answers."""

        class Short(HierarchicalEvaluator):
            def _layer1_reach(self, query, budget):
                d_max = self.algorithm.d_max
                self.algorithm.d_max = d_max - 1
                try:
                    return super()._layer1_reach(query, budget)
                finally:
                    self.algorithm.d_max = d_max

        index, query = yago_layer2
        algorithms = [BackwardKeywordSearch(d_max=3)]
        assert DifferentialOracle(index).run(algorithms, [query]).ok
        report = DifferentialOracle(index, evaluator_factory=Short).run(
            algorithms, [query]
        )
        assert not report.ok
        assert {d.layer for d in report.divergences} == {2}


class _Everything:
    def __contains__(self, item) -> bool:
        return True


class PerRoot(HierarchicalEvaluator):
    """The evaluator without the block descent: every hit takes the
    per-root loop, which still tests each root against the reach bound."""

    def _lift(self, blocks, layer):
        return _Everything()


def _outcome(evaluator, query, layer, k, cap):
    """What one capped (or uncapped) strict evaluation returns and charges,
    with every counter it publishes but the graph's lazy caches'."""
    budget = Budget(max_expansions=cap)
    with instrumented(trace=False) as inst:
        try:
            result = evaluator.evaluate(query, layer=layer, k=k, budget=budget)
            got = (
                "complete", result.answers, result.num_generalized,
                result.num_candidates, result.num_bounded, result.num_verified,
                result.num_charged,
            )
        except BudgetExceeded as exc:
            got = (exc.reason, exc.partial, exc.lower_bound, exc.expansions)
    counters = {
        name: value for name, value in inst.metrics.counters().items()
        if not name.startswith(("cache.", "postings."))
    }
    return got, budget.expansions, counters


class TestBlockDescent:
    """A layer-m hit all of whose layer-1 blocks the reach bound rejects
    is counted and charged in one step; the outcome is the per-root
    loop's, at every cap."""

    def test_the_fixture_mixes_reached_and_unreached_blocks(self, mixed_blocks):
        index, query = mixed_blocks
        evaluator = HierarchicalEvaluator(index, BackwardKeywordSearch(d_max=3))
        reach = evaluator._layer1_reach(query, None)
        for layer in (2, 3):
            lifted = evaluator._lift(reach, layer)
            spans = []
            for supernode in range(index.layer_graph(layer).num_vertices):
                blocks = [supernode]
                for level in range(layer, 1, -1):
                    extent = index.layers[level - 1].extent
                    blocks = [c for s in blocks for c in extent[s]]
                inside = {block in reach for block in blocks}
                spans.append(inside)
                assert (supernode in lifted) == (True in inside)
            assert {True, False} in spans and {False} in spans

    @pytest.mark.parametrize("layer", [2, 3])
    @pytest.mark.parametrize("k", [None, 1, 2])
    def test_counts_equal_the_per_root_loop(
        self, mixed_blocks, monkeypatch, layer, k
    ):
        index, query = mixed_blocks
        algorithm = BackwardKeywordSearch(d_max=3)
        calls = []
        per_root = HierarchicalEvaluator._generate_by_root

        def counting(self, *args, **kwargs):
            calls.append(type(self))
            return per_root(self, *args, **kwargs)

        monkeypatch.setattr(HierarchicalEvaluator, "_generate_by_root", counting)
        got = _outcome(HierarchicalEvaluator(index, algorithm), query, layer, k, None)
        want = _outcome(PerRoot(index, algorithm), query, layer, k, None)
        assert got == want
        if k is None:  # the whole stream: both kinds of hit are read
            assert got[0][4] > 0  # bounded roots
            assert calls.count(HierarchicalEvaluator) < calls.count(PerRoot)

    @pytest.mark.parametrize("layer", [2, 3])
    def test_every_cap_equals_the_per_root_loop(self, mixed_blocks, layer):
        """A bulk reject the cap cannot afford runs the per-root loop,
        so it trips on the same root, with the same counts."""
        index, query = mixed_blocks
        algorithm = BackwardKeywordSearch(d_max=3)
        descent = HierarchicalEvaluator(index, algorithm, cache_size=0)
        per_root = PerRoot(index, algorithm, cache_size=0)
        _, total, _ = _outcome(descent, query, layer, None, None)
        for cap in range(1, total + 2):
            assert _outcome(descent, query, layer, None, cap) == _outcome(
                per_root, query, layer, None, cap
            ), cap
