"""Unit tests for the shared search interfaces."""

import pytest

from repro.graph.digraph import Graph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import (
    Answer,
    BackwardFrontier,
    KeywordQuery,
    RootedTreeAlgorithm,
    top_k,
    unseen_lower_bound,
)
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.utils.budget import Budget
from repro.utils.errors import BudgetExceeded, QueryError


class TestKeywordQuery:
    def test_keywords_preserved_in_order(self):
        q = KeywordQuery(["b", "a"])
        assert q.keywords == ("b", "a")
        assert list(q) == ["b", "a"]
        assert len(q) == 2

    def test_empty_query_rejected(self):
        with pytest.raises(QueryError):
            KeywordQuery([])

    def test_duplicates_rejected(self):
        with pytest.raises(QueryError):
            KeywordQuery(["a", "a"])

    def test_generalized_applies_mapping(self):
        q = KeywordQuery(["a", "b"]).generalized({"a": "X"})
        assert q.keywords == ("X", "b")

    def test_hashable(self):
        assert hash(KeywordQuery(["a"])) == hash(KeywordQuery(["a"]))


class TestAnswer:
    def test_make_normalizes_members(self):
        answer = Answer.make({"k": 3}, score=1.0, root=5, vertices=[7, 3])
        assert answer.vertices == (3, 5, 7)
        assert answer.keyword_nodes == (("k", 3),)
        assert answer.keyword_node_map == {"k": 3}

    def test_signature_ignores_path_vertices(self):
        a = Answer.make({"k": 3}, score=1.0, root=5, vertices=[7])
        b = Answer.make({"k": 3}, score=1.0, root=5, vertices=[8])
        assert a.signature() == b.signature()

    def test_edges_deduplicated_and_sorted(self):
        answer = Answer.make(
            {"k": 1}, score=0.0, edges=[(2, 1), (0, 1), (2, 1)]
        )
        assert answer.edges == ((0, 1), (2, 1))

    def test_rootless_answer(self):
        answer = Answer.make({"k": 1}, score=0.0)
        assert answer.root is None
        assert answer.vertices == (1,)


class TestTopK:
    def make(self, score, root):
        return Answer.make({"k": root}, score=score, root=root)

    def test_sorts_by_score_then_signature(self):
        answers = [self.make(2, 1), self.make(1, 5), self.make(1, 2)]
        result = top_k(answers, None)
        assert [a.score for a in result] == [1, 1, 2]
        assert result[0].root == 2  # tie broken by signature

    def test_truncates(self):
        answers = [self.make(s, s) for s in (3, 1, 2)]
        assert len(top_k(answers, 2)) == 2

    def test_none_returns_all(self):
        answers = [self.make(s, s) for s in (3, 1)]
        assert len(top_k(answers, None)) == 2


class TestBackwardFrontier:
    @pytest.mark.parametrize("order", [((2, 0), (2, 1)), ((2, 1), (2, 0))])
    def test_origin_independent_of_edge_insertion_order(self, order):
        """Sources 0 and 1 both reach vertex 2 in one hop: the smaller
        source id wins whichever edge was inserted first."""
        g = Graph()
        for label in ("k", "k", "x", "x"):
            g.add_vertex(label)
        for u, v in order:
            g.add_edge(u, v)
        g.add_edge(3, 2)
        frontier = BackwardFrontier(g, [1, 0], d_max=2)
        assert frontier.expand_level() == [2]
        assert (frontier.dist[2], frontier.origin[2]) == (1, 0)
        assert frontier.expand_level() == [3]
        assert (frontier.dist[3], frontier.origin[3]) == (2, 0)
        assert frontier.exhausted and frontier.expand_level() == []

    def test_budget_trip_leaves_previous_level(self):
        g = Graph()
        for label in ("x", "x", "x", "k"):
            g.add_vertex(label)
        for u in (0, 1, 2):
            g.add_edge(u, 3)
            g.add_edge(u, (u + 1) % 3)
        frontier = BackwardFrontier(g, [3], d_max=3)
        budget = Budget(max_expansions=2)
        assert frontier.expand_level(budget) == [0, 1, 2]  # charges 1
        before = (dict(frontier.dist), dict(frontier.origin), frontier.depth)
        with pytest.raises(BudgetExceeded):
            frontier.expand_level(budget)  # charging 3 more trips first
        assert (frontier.dist, frontier.origin, frontier.depth) == before
        assert not frontier.exhausted
        assert unseen_lower_bound([frontier]) == 2.0


ROOTED = [
    BackwardKeywordSearch(d_max=3, k=None),
    BidirectionalSearch(d_max=3, k=None),
    Blinks(d_max=3, k=None, block_size=12),
]


class TestRootedTreeAlgorithm:
    def test_exactly_the_rooted_algorithms(self):
        assert all(isinstance(a, RootedTreeAlgorithm) for a in ROOTED)
        assert not isinstance(RClique(radius=2), RootedTreeAlgorithm)

    @pytest.mark.parametrize("algo", ROOTED, ids=lambda a: a.name)
    def test_verify_reproduces_every_searched_answer(
        self, algo, random_graph_factory
    ):
        g = random_graph_factory(num_vertices=45, num_edges=110, seed=6)
        query = KeywordQuery(["A", "B"])
        answers = algo.bind(g).search(query)
        assert answers
        for a in answers:
            verified = algo.verify(g, a.keyword_node_map, query, root=a.root)
            assert verified is not None
            assert verified.score == a.score
            assert type(verified.score) is type(a.score)
            assert verified.signature() == a.signature()
