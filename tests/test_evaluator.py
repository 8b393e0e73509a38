"""Integration tests for Algorithm 2: eval(G,Q,f) == eval_Ont(G,Q,f).

These are the Theorem 4.2 checks: for every plugged algorithm, evaluating
through the BiG-index hierarchy must return the same answers as direct
evaluation on the data graph.
"""

import random

import pytest

from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator, eval_direct
from repro.core.index import BiGIndex
from repro.core.plugins import boost, boost_bkws, boost_dkws, boost_rkws
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.utils.errors import QueryError

EXACT = CostParams(exact=True)


def build_random_instance(seed: int, small_ontology, random_graph_factory):
    graph = random_graph_factory(num_vertices=60, num_edges=150, seed=seed)
    index = BiGIndex.build(
        graph, small_ontology, num_layers=2, cost_params=EXACT
    )
    return graph, index


class TestBkwsEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_all_layers_match_direct(
        self, seed, small_ontology, random_graph_factory
    ):
        graph, index = build_random_instance(
            seed, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])
        direct = {(a.root, a.score) for a in algo.bind(graph).search(query)}
        boosted = boost_bkws(index, d_max=3, k=None)
        for m in range(1, index.num_layers + 1):
            if not index.query_distinct_at(query, m):
                continue
            got = {
                (a.root, a.score)
                for a in boosted.search(query, layer=m)
            }
            assert got == direct, f"seed={seed} layer={m}"

    def test_auto_layer_matches_direct(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            7, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])
        direct = {(a.root, a.score) for a in algo.bind(graph).search(query)}
        boosted = boost_bkws(index, d_max=3, k=None)
        got = {(a.root, a.score) for a in boosted.search(query)}
        assert got == direct

    def test_three_keyword_query(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            9, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C", "E"])
        direct = {(a.root, a.score) for a in algo.bind(graph).search(query)}
        boosted = boost_bkws(index, d_max=3, k=None)
        got = {(a.root, a.score) for a in boosted.search(query, layer=1)}
        assert got == direct


class TestBlinksEquivalence:
    @pytest.mark.parametrize("kind", ["single-level", "bi-level"])
    def test_matches_direct(self, kind, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            11, small_ontology, random_graph_factory
        )
        algo = Blinks(d_max=3, k=None, index_kind=kind, block_size=12)
        query = KeywordQuery(["A", "D"])
        direct = {(a.root, a.score) for a in algo.bind(graph).search(query)}
        boosted = boost(algo, index)
        got = {(a.root, a.score) for a in boosted.search(query, layer=1)}
        assert got == direct

    def test_top_k_scores_preserved(self, small_ontology, random_graph_factory):
        """Prop. 5.3: the boosted top-k has the same score sequence."""
        graph, index = build_random_instance(
            13, small_ontology, random_graph_factory
        )
        query = KeywordQuery(["A", "D"])
        direct = Blinks(d_max=3, k=None).bind(graph).search(query)
        boosted = boost_rkws(index, d_max=3, k=5)
        got = boosted.search(query, layer=1)
        assert [a.score for a in got] == [a.score for a in direct[:5]]


class TestRCliqueEquivalence:
    @pytest.mark.parametrize("seed", range(3))
    def test_full_enumeration_matches(
        self, seed, small_ontology, random_graph_factory
    ):
        graph = random_graph_factory(num_vertices=25, num_edges=60, seed=seed)
        index = BiGIndex.build(
            graph, small_ontology, num_layers=1, cost_params=EXACT
        )
        algo = RClique(radius=2, k=None)
        query = KeywordQuery(["A", "C"])
        direct = {
            tuple(sorted(a.keyword_node_map.items()))
            for a in algo.bind(graph).search(query)
        }
        boosted = boost_dkws(index, radius=2, k=None)
        got = {
            tuple(sorted(a.keyword_node_map.items()))
            for a in boosted.search(query, layer=1)
        }
        assert got == direct

    def test_top_k_scores_match(self, small_ontology, random_graph_factory):
        graph = random_graph_factory(num_vertices=30, num_edges=80, seed=17)
        index = BiGIndex.build(
            graph, small_ontology, num_layers=1, cost_params=EXACT
        )
        query = KeywordQuery(["A", "C"])
        direct = RClique(radius=2, k=None).bind(graph).search(query)
        boosted = boost_dkws(index, radius=2, k=4)
        got = boosted.search(query, layer=1)
        assert [a.score for a in got] == [a.score for a in direct[:4]]


class TestEvaluatorMechanics:
    def test_layer_zero_is_direct(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            23, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        evaluator = HierarchicalEvaluator(index, algo)
        query = KeywordQuery(["A", "B"])
        result = evaluator.evaluate(query, layer=0)
        direct = algo.bind(graph).search(query)
        assert {(a.root, a.score) for a in result.answers} == {
            (a.root, a.score) for a in direct
        }
        assert result.layer == 0

    def test_colliding_layer_raises(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            23, small_ontology, random_graph_factory
        )
        evaluator = HierarchicalEvaluator(
            index, BackwardKeywordSearch(d_max=3, k=None)
        )
        # A and B both generalize to AB at layer 1.
        with pytest.raises(QueryError):
            evaluator.evaluate(KeywordQuery(["A", "B"]), layer=1)

    def test_breakdown_phases_recorded(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            27, small_ontology, random_graph_factory
        )
        boosted = boost_bkws(index, d_max=3, k=None)
        result = boosted.evaluate(KeywordQuery(["A", "C"]), layer=1)
        assert "explore" in result.breakdown.totals
        assert "specialize" in result.breakdown.totals
        assert result.total_seconds > 0

    def test_searchers_cached_per_layer(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            27, small_ontology, random_graph_factory
        )
        evaluator = HierarchicalEvaluator(index, Blinks(d_max=3, k=None))
        first = evaluator.searcher_for_layer(1)
        assert evaluator.searcher_for_layer(1) is first

    def test_early_termination_counts(self, small_ontology, random_graph_factory):
        """With k=1 far fewer generalized answers are consumed."""
        graph, index = build_random_instance(
            29, small_ontology, random_graph_factory
        )
        boosted_all = boost_bkws(index, d_max=3, k=None)
        boosted_one = boost_bkws(index, d_max=3, k=1)
        query = KeywordQuery(["A", "C"])
        all_result = boosted_all.evaluate(query, layer=1)
        one_result = boosted_one.evaluate(query, layer=1)
        assert one_result.num_generalized <= all_result.num_generalized
        assert len(one_result.answers) == 1

    def test_top1_answer_is_global_best(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            29, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "C"])
        best_direct = algo.bind(graph).search(query)[0]
        boosted = boost_bkws(index, d_max=3, k=1)
        (got,) = boosted.search(query, layer=1)
        assert got.score == best_direct.score

    def test_eval_direct_helper(self, small_ontology, random_graph_factory):
        graph, _ = build_random_instance(
            31, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        answers, breakdown = eval_direct(graph, algo, KeywordQuery(["A", "C"]))
        assert answers
        assert "explore" in breakdown.totals

    def test_eval_direct_with_prebound_searcher(
        self, small_ontology, random_graph_factory
    ):
        graph, _ = build_random_instance(
            31, small_ontology, random_graph_factory
        )
        algo = BackwardKeywordSearch(d_max=3, k=None)
        searcher = algo.bind(graph)
        answers, breakdown = eval_direct(
            graph, algo, KeywordQuery(["A", "C"]), searcher=searcher
        )
        assert answers
        assert "bind" not in breakdown.totals


class TestPluginFacade:
    def test_boost_names(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            33, small_ontology, random_graph_factory
        )
        assert boost_bkws(index).name == "boost-bkws"
        assert boost_rkws(index).name == "boost-blinks"
        assert boost_dkws(index).name == "boost-r-clique"

    def test_warm_builds_layer_searchers(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            33, small_ontology, random_graph_factory
        )
        boosted = boost_bkws(index, d_max=3)
        boosted.warm()
        for m in range(index.num_layers + 1):
            assert m in boosted.evaluator._searchers
