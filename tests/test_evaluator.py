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
from repro.core.persistence import load_index, save_index
from repro.core.plugins import boost, boost_bkws, boost_dkws, boost_rkws
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery, RootedTreeAlgorithm
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.utils.budget import Budget
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
    def test_matches_direct(self, small_ontology, random_graph_factory):
        graph, index = build_random_instance(
            11, small_ontology, random_graph_factory
        )
        algo = Blinks(d_max=3, k=None)
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
        direct = {a.keyword_nodes for a in algo.bind(graph).search(query)}
        boosted = boost_dkws(index, radius=2, k=None)
        got = {a.keyword_nodes for a in boosted.search(query, layer=1)}
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

    def test_warm_builds_layer_searchers(
        self, small_ontology, random_graph_factory, tmp_path
    ):
        """``warm`` builds, for every layer the data graph included,
        what a bind and a search read: r-clique's neighbor list (cached
        by the algorithm) and the backward adjacency rows."""
        graph, index = build_random_instance(
            33, small_ontology, random_graph_factory
        )
        save_index(index, tmp_path / "idx")
        loaded = load_index(tmp_path / "idx", small_ontology)
        boosted = boost_dkws(loaded, radius=2)
        boosted.warm()
        for m in range(loaded.num_layers + 1):
            layer_graph = loaded.layer_graph(m)
            assert boosted.algorithm._index_for(layer_graph) is not None
            assert layer_graph._frozen._rows[1] is not None


class TestLazyMaterialization:
    """Rooted evaluation ranks root hits and builds a tree only for an
    answer that leaves the evaluator."""

    ALGORITHMS = [
        BackwardKeywordSearch(d_max=3, k=None),
        BidirectionalSearch(d_max=3, k=None),
        Blinks(d_max=3, k=None),
    ]
    #: (keywords, layer): A and C collide at layer 2 of the toy ontology.
    CASES = [(("A", "C"), 0), (("A", "C"), 1), (("A",), 2)]

    @staticmethod
    def count_trees(monkeypatch):
        built = []
        build = RootedTreeAlgorithm.answer_tree

        def counting(self, graph, hit):
            built.append(hit.root)
            return build(self, graph, hit)

        monkeypatch.setattr(RootedTreeAlgorithm, "answer_tree", counting)
        return built

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=lambda a: a.name)
    @pytest.mark.parametrize("keywords,layer", CASES)
    def test_complete_result_builds_only_its_answers(
        self, algo, keywords, layer, small_ontology, random_graph_factory,
        monkeypatch,
    ):
        _graph, index = build_random_instance(
            41, small_ontology, random_graph_factory
        )
        query = KeywordQuery(keywords)
        full = HierarchicalEvaluator(index, algo, cache_size=0).evaluate(
            query, layer=layer
        )
        assert len(full.answers) > 10
        built = self.count_trees(monkeypatch)
        evaluator = HierarchicalEvaluator(index, algo, cache_size=0)
        result = evaluator.evaluate(query, layer=layer, k=10)
        assert result.answers == full.answers[:10]
        assert len(built) <= len(result.answers)

    @pytest.mark.parametrize("algo", ALGORITHMS, ids=lambda a: a.name)
    @pytest.mark.parametrize("keywords,layer", CASES)
    @pytest.mark.parametrize("cap", [20, 200])
    def test_degraded_result_builds_only_what_it_reports(
        self, algo, keywords, layer, cap, small_ontology, random_graph_factory,
        monkeypatch,
    ):
        _graph, index = build_random_instance(
            41, small_ontology, random_graph_factory
        )
        built = self.count_trees(monkeypatch)
        evaluator = HierarchicalEvaluator(index, algo, cache_size=0)
        result = evaluator.evaluate_resilient(
            KeywordQuery(keywords), budget=Budget(max_expansions=cap),
            layer=layer, k=10,
        )
        if result.degraded:
            # Every attempt builds its proven prefix and its unranked rest.
            reported = sum(a.proven + a.unproven for a in result.attempts)
            assert len(built) <= reported
            assert len(result.answers) + len(result.unranked) <= reported
        else:
            assert len(built) <= len(result.answers)
