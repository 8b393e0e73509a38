"""Maintenance-aware result caching in the hierarchical evaluator."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.plugins import BoostedSearch, boost
from repro.graph.digraph import Graph
from repro.obs.runtime import instrumented
from repro.ontology.ontology import OntologyGraph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.serve.service import encode_result
from repro.utils.budget import Budget

EXACT = CostParams(exact=True)
QUERY = KeywordQuery(["Ivy League", "Massachusetts"])


@pytest.fixture
def index(fig1_graph, fig2_ontology):
    return BiGIndex.build(
        fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
    )


def _evaluator(index, cache_size=128):
    return HierarchicalEvaluator(
        index, BackwardKeywordSearch(d_max=3, k=10), cache_size=cache_size
    )


def _snapshot(result):
    return (
        result.layer,
        tuple(
            (a.score, a.signature(), a.vertices, a.edges)
            for a in result.answers
        ),
    )


class TestResultCache:
    def test_cached_equals_uncached(self, index):
        cached = _evaluator(index)
        uncached = _evaluator(index, cache_size=0)
        expected = _snapshot(uncached.evaluate(QUERY))
        assert _snapshot(cached.evaluate(QUERY)) == expected  # cold
        assert _snapshot(cached.evaluate(QUERY)) == expected  # warm

    def test_second_evaluate_hits_cache(self, index):
        evaluator = _evaluator(index)
        with instrumented(trace=False) as inst:
            evaluator.evaluate(QUERY)
            evaluator.evaluate(QUERY)
        counters = inst.metrics.counters()
        assert counters["cache.miss.result"] == 1
        assert counters["cache.hit.result"] == 1

    def test_hit_reports_the_miss_counts(self):
        """A hit carries every count of the miss it copies, including
        the roots the layer-1 reach bound rejected: at layer 2, ``A``
        and ``C`` generalize to one label, so the supernode rooting the
        summary answer specializes to an ``E`` vertex that reaches a
        ``C`` but no ``A`` (bounded) and one that reaches both."""
        ontology = OntologyGraph()
        for label in "ABCE":
            ontology.add_subtype(label, label + "1")
            top = "X" if label in "AC" else label + "2"
            ontology.add_subtype(label + "1", top)
        graph = Graph()
        a, c, b, r1, r2 = (graph.add_vertex(label) for label in "ACBEE")
        for u, v in ((r1, a), (r1, b), (r2, c), (r2, b)):
            graph.add_edge(u, v)
        evaluator = _evaluator(
            BiGIndex.build(graph, ontology, num_layers=2, cost_params=EXACT)
        )
        query = KeywordQuery(["A", "B"])

        def counts(result):
            return (result.num_generalized, result.num_candidates,
                    result.num_verified, result.num_bounded)

        with instrumented(trace=False) as inst:
            miss = evaluator.evaluate(query, layer=2)
            hit = evaluator.evaluate(query, layer=2)
        assert inst.metrics.counter("cache.hit.result") == 1
        assert counts(miss) == (1, 2, 1, 1)
        assert counts(hit) == counts(miss)
        assert hit.answers == miss.answers

    def test_cache_size_zero_disables(self, index):
        evaluator = _evaluator(index, cache_size=0)
        with instrumented(trace=False) as inst:
            evaluator.evaluate(QUERY)
            evaluator.evaluate(QUERY)
        counters = inst.metrics.counters()
        assert counters.get("cache.hit.result", 0) == 0
        assert counters.get("cache.miss.result", 0) == 0

    def test_budgeted_runs_are_never_cached(self, index):
        evaluator = _evaluator(index)
        with instrumented(trace=False) as inst:
            evaluator.evaluate(QUERY, budget=Budget(max_expansions=10**6))
            evaluator.evaluate(QUERY, budget=Budget(max_expansions=10**6))
        counters = inst.metrics.counters()
        assert counters.get("cache.hit.result", 0) == 0

    def test_keyword_order_does_not_change_answers(self, index):
        # The cache key canonicalizes keywords sorted; this pins down the
        # assumption that makes that sound.
        evaluator = _evaluator(index, cache_size=0)
        forward = evaluator.evaluate(KeywordQuery(["Ivy League", "Massachusetts"]))
        reversed_ = evaluator.evaluate(KeywordQuery(["Massachusetts", "Ivy League"]))
        assert _snapshot(forward) == _snapshot(reversed_)

    def test_permuted_query_is_a_cache_hit(self, index):
        evaluator = _evaluator(index)
        evaluator.evaluate(KeywordQuery(["Ivy League", "Massachusetts"]))
        with instrumented(trace=False) as inst:
            evaluator.evaluate(KeywordQuery(["Massachusetts", "Ivy League"]))
        assert inst.metrics.counters()["cache.hit.result"] == 1

    def test_cached_result_is_a_fresh_copy(self, index):
        evaluator = _evaluator(index)
        first = evaluator.evaluate(QUERY)
        first.answers.clear()  # caller mutates their copy
        second = evaluator.evaluate(QUERY)
        assert second.answers  # the cache entry was not aliased

    def test_only_hits_fill_the_entry_memo(self, index):
        evaluator = _evaluator(index)
        miss = evaluator.evaluate(QUERY)
        encoded = encode_result(miss)["answers"]
        first_hit = evaluator.evaluate(QUERY)
        # The miss encoded into its own slot; the entry's is still empty.
        assert miss.memo == [encoded] and first_hit.memo == []
        answers = encode_result(first_hit)["answers"]
        assert answers == encoded and answers is not encoded
        assert answers.json == json.dumps(
            encoded, sort_keys=True, allow_nan=False
        )
        second_hit = evaluator.evaluate(QUERY)
        assert second_hit.memo == [answers]
        assert encode_result(second_hit)["answers"] is answers


class TestInvalidation:
    def _edge(self, index):
        return sorted(index.base_graph.edges())[0]

    def _assert_invalidated_and_correct(self, index, evaluator):
        fresh = _evaluator(index, cache_size=0)
        assert _snapshot(evaluator.evaluate(QUERY)) == _snapshot(
            fresh.evaluate(QUERY)
        )

    def test_insert_edge(self, index):
        evaluator = _evaluator(index)
        evaluator.evaluate(QUERY)
        ivy = next(
            v for v in index.base_graph.vertices()
            if index.base_graph.label(v) == "Ivy League"
        )
        mass = next(
            v for v in index.base_graph.vertices()
            if index.base_graph.label(v) == "Massachusetts"
        )
        index.insert_edge(ivy, mass)
        self._assert_invalidated_and_correct(index, evaluator)

    def test_delete_edge(self, index):
        evaluator = _evaluator(index)
        evaluator.evaluate(QUERY)
        u, v = self._edge(index)
        index.delete_edge(u, v)
        self._assert_invalidated_and_correct(index, evaluator)

    def test_rebuild(self, index):
        evaluator = _evaluator(index)
        evaluator.evaluate(QUERY)
        before = index.epoch
        index.rebuild()
        assert index.epoch != before
        self._assert_invalidated_and_correct(index, evaluator)

    def test_remove_ontology_edge(self, index):
        evaluator = _evaluator(index)
        evaluator.evaluate(QUERY)
        before = index.epoch
        index.remove_ontology_edge("Student", "Person")
        assert index.epoch != before
        self._assert_invalidated_and_correct(index, evaluator)

    def test_first_evaluate_after_a_write_misses(self, index):
        """The result key carries the epoch: a write moves it, so the
        next lookup forms a key no earlier fill used."""
        evaluator = _evaluator(index)
        evaluator.evaluate(QUERY)
        u, v = self._edge(index)
        index.delete_edge(u, v)
        with instrumented(trace=False) as inst:
            evaluator.evaluate(QUERY)
        counters = inst.metrics.counters()
        assert counters["cache.miss.result"] == 1
        assert counters.get("cache.hit.result", 0) == 0


class TestSearcherReuse:
    def test_searchers_dropped_after_maintenance(self, index):
        evaluator = _evaluator(index)
        result = evaluator.evaluate(QUERY)
        searcher = evaluator.searcher_for_layer(result.layer)
        u, v = sorted(index.base_graph.edges())[0]
        index.delete_edge(u, v)
        assert evaluator.searcher_for_layer(result.layer) is not searcher


class TestEvaluateMany:
    QUERIES = [
        KeywordQuery(["Ivy League", "Massachusetts"]),
        KeywordQuery(["Ivy League", "New York"]),
        KeywordQuery(["Student", "California"]),
        KeywordQuery(["Ivy League", "Massachusetts"]),
    ]

    def test_serial_matches_single_evaluations(self, index):
        evaluator = _evaluator(index)
        batch = evaluator.evaluate_many(self.QUERIES)
        single = _evaluator(index, cache_size=0)
        for query, result in zip(self.QUERIES, batch):
            assert _snapshot(result) == _snapshot(single.evaluate(query))

    def test_workers_preserve_order_and_results(self, index):
        """Threads sharing one evaluator (what ``serve`` handler threads
        do) get the answers a lone caller gets, in input order."""
        workload = self.QUERIES * 8
        serial = [
            _snapshot(r)
            for r in _evaluator(index).evaluate_many(workload)
        ]
        shared = _evaluator(index)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [_snapshot(r) for r in pool.map(shared.evaluate, workload)]
        assert repr(threaded) == repr(serial)

    def test_boosted_search_passthrough(self, index):
        boosted = boost(
            BackwardKeywordSearch(d_max=3, k=10), index, allow_layer_zero=True
        )
        assert isinstance(boosted, BoostedSearch)
        results = boosted.evaluate_many(self.QUERIES)
        assert len(results) == len(self.QUERIES)
        assert all(r.answers is not None for r in results)

    def test_budget_factory_gives_each_query_its_own_budget(self, index):
        evaluator = _evaluator(index)
        budgets = []

        def factory():
            budget = Budget(max_expansions=10**6)
            budgets.append(budget)
            return budget

        results = evaluator.evaluate_many(self.QUERIES, budget_factory=factory)
        assert not any(r.degraded for r in results)
        assert len(budgets) == len(self.QUERIES)
        assert len(set(map(id, budgets))) == len(self.QUERIES)
