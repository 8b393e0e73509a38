"""Unit tests for BANKS-style backward keyword search (bkws)."""

import pytest

from repro.graph.digraph import Graph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.utils.errors import QueryError


@pytest.fixture
def tiny_graph() -> Graph:
    """root -> k1, root -> mid -> k2; far -> k1 (too far from k2)."""
    g = Graph()
    root = g.add_vertex("R")
    k1 = g.add_vertex("K1")
    mid = g.add_vertex("M")
    k2 = g.add_vertex("K2")
    far = g.add_vertex("F")
    g.add_edge(root, k1)
    g.add_edge(root, mid)
    g.add_edge(mid, k2)
    g.add_edge(far, k1)
    return g


class TestSemantics:
    def test_finds_valid_roots(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2, k=None)
        answers = algo.bind(tiny_graph).search(KeywordQuery(["K1", "K2"]))
        roots = {a.root for a in answers}
        assert roots == {0}  # only `root` reaches both within 2 hops

    def test_score_is_distance_sum(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2, k=None)
        (answer,) = algo.bind(tiny_graph).search(KeywordQuery(["K1", "K2"]))
        assert answer.score == 3  # dist 1 to K1 + dist 2 to K2

    def test_d_max_excludes_far_roots(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=1, k=None)
        answers = algo.bind(tiny_graph).search(KeywordQuery(["K1", "K2"]))
        assert answers == []

    def test_keyword_vertex_can_be_root(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2, k=None)
        answers = algo.bind(tiny_graph).search(KeywordQuery(["K1"]))
        assert 1 in {a.root for a in answers}  # K1 at distance 0

    def test_missing_keyword_returns_empty(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2, k=None)
        assert algo.bind(tiny_graph).search(KeywordQuery(["nope"])) == []

    def test_top_k_truncation(self, random_graph_factory):
        g = random_graph_factory(seed=11)
        all_answers = BackwardKeywordSearch(d_max=3, k=None).bind(g).search(
            KeywordQuery(["A", "B"])
        )
        top2 = BackwardKeywordSearch(d_max=3, k=2).bind(g).search(
            KeywordQuery(["A", "B"])
        )
        assert len(top2) == min(2, len(all_answers))
        assert [a.score for a in top2] == [a.score for a in all_answers[:2]]

    def test_answers_sorted_by_score(self, random_graph_factory):
        g = random_graph_factory(seed=12)
        answers = BackwardKeywordSearch(d_max=3, k=None).bind(g).search(
            KeywordQuery(["A", "B"])
        )
        scores = [a.score for a in answers]
        assert scores == sorted(scores)

    def test_answer_tree_edges_exist(self, random_graph_factory):
        g = random_graph_factory(seed=13)
        answers = BackwardKeywordSearch(d_max=3, k=5).bind(g).search(
            KeywordQuery(["A", "B"])
        )
        for answer in answers:
            for u, v in answer.edges:
                assert g.has_edge(u, v)

    def test_negative_dmax_rejected(self):
        with pytest.raises(QueryError):
            BackwardKeywordSearch(d_max=-1)


class TestVerify:
    def test_verify_accepts_valid_candidate(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2)
        answer = algo.verify(
            tiny_graph, {"K1": 1, "K2": 3}, KeywordQuery(["K1", "K2"]), root=0
        )
        assert answer is not None
        assert answer.score == 3

    def test_verify_rejects_wrong_label(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2)
        assert (
            algo.verify(
                tiny_graph, {"K1": 2, "K2": 3}, KeywordQuery(["K1", "K2"]), root=0
            )
            is None
        )

    def test_verify_rejects_out_of_range(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=1)
        assert (
            algo.verify(
                tiny_graph, {"K1": 1, "K2": 3}, KeywordQuery(["K1", "K2"]), root=0
            )
            is None
        )

    def test_verify_requires_root(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2)
        assert algo.verify(tiny_graph, {"K1": 1}, KeywordQuery(["K1"])) is None

    def test_verify_rejects_missing_assignment(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2)
        assert (
            algo.verify(tiny_graph, {}, KeywordQuery(["K1"]), root=0) is None
        )


class TestBestAnswerForRoot:
    def test_best_answer_matches_search(self, random_graph_factory):
        g = random_graph_factory(seed=14)
        algo = BackwardKeywordSearch(d_max=3, k=None)
        query = KeywordQuery(["A", "B"])
        answers = {a.root: a.score for a in algo.bind(g).search(query)}
        for root, score in answers.items():
            best = algo.best_hit_for_root(g, root, query)
            assert best is not None
            assert best.score == score

    def test_invalid_root_returns_none(self, tiny_graph):
        algo = BackwardKeywordSearch(d_max=2)
        assert (
            algo.best_hit_for_root(tiny_graph, 4, KeywordQuery(["K2"]))
            is None
        )
