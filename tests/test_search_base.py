"""Unit tests for the shared search interfaces."""

import itertools
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import Graph
from repro.graph.traversal import bfs_distances
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import (
    Answer,
    BackwardFrontier,
    KeywordQuery,
    RootedTreeAlgorithm,
    RootHit,
    distance_sum,
    top_k,
    unseen_lower_bound,
)
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks, distance_sum_score
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
        assert dict(answer.keyword_nodes) == {"k": 3}

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
        assert frontier.settled == [0, 1]
        assert frontier.dist == [0, 0, -1, -1]
        assert frontier.origin == [0, 1, -1, -1]
        assert frontier.expand_level() == [2]
        assert (frontier.dist[2], frontier.origin[2]) == (1, 0)
        assert frontier.expand_level() == [3]
        assert (frontier.dist[3], frontier.origin[3]) == (2, 0)
        assert frontier.exhausted and frontier.expand_level() == []
        assert frontier.settled == [0, 1, 2, 3]
        other = BackwardFrontier(g, [0, 1], d_max=2)
        while not other.exhausted:
            other.expand_level()
        assert (other.dist, other.origin) == (frontier.dist, frontier.origin)

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
        before = (
            list(frontier.dist),
            list(frontier.origin),
            list(frontier.settled),
            frontier.depth,
        )
        with pytest.raises(BudgetExceeded):
            frontier.expand_level(budget)  # charging 3 more trips first
        assert (
            frontier.dist, frontier.origin, frontier.settled, frontier.depth
        ) == before
        assert not frontier.exhausted
        assert unseen_lower_bound([frontier]) == 2.0


@st.composite
def frontier_instances(draw):
    """A random digraph, a nonempty source set and a hop bound."""
    n = draw(st.integers(min_value=1, max_value=24))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    sources = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    d_max = draw(st.integers(min_value=0, max_value=4))
    return n, edges, sources, d_max


class TestFrontierArrays:
    @settings(max_examples=200, deadline=None)
    @given(frontier_instances())
    def test_arrays_match_reference_bfs(self, instance):
        """``dist`` is the backward BFS distance to the nearest source and
        ``origin`` the smallest source at that distance; every level comes
        back in settling order: exactly the vertices at the new depth, in
        ascending origin."""
        n, edges, sources, d_max = instance
        g = Graph()
        for _ in range(n):
            g.add_vertex("x")
        for u, v in edges:
            if u != v:
                g.add_edge(u, v)
        frontier = BackwardFrontier(g, sources, d_max)
        while not frontier.exhausted:
            level = frontier.expand_level()
            depth = frontier.depth
            assert sorted(level) == [
                v for v in range(n) if frontier.dist[v] == depth
            ]
            origins = [frontier.origin[v] for v in level]
            assert origins == sorted(origins)
        nearest = bfs_distances(g, sources, max_depth=d_max, direction="backward")
        per_source = {
            s: bfs_distances(g, [s], max_depth=d_max, direction="backward")
            for s in sources
        }
        for v in range(n):
            if v not in nearest:
                assert (frontier.dist[v], frontier.origin[v]) == (-1, -1)
                continue
            d = nearest[v]
            origin = min(s for s in sources if per_source[s].get(v) == d)
            assert (frontier.dist[v], frontier.origin[v]) == (d, origin)
        assert sorted(frontier.settled) == sorted(nearest)
        assert len(frontier.settled) == len(nearest)


def max_distance(distances):
    """A non-sum ``scr``: the farthest keyword."""
    return max(distances.values())


@st.composite
def settled_frontiers(draw):
    """Random frontiers over ``n`` vertices, interrupted anywhere: each
    keyword's ``dist`` (``-1`` = unsettled) as a list or an ``array('b')``
    (a memo entry) and its ``settled`` list in a drawn order."""
    n = draw(st.integers(min_value=1, max_value=30))
    keywords = draw(st.lists(
        st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True
    ))
    frontiers = {}
    for keyword in keywords:
        dist = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
        frontier = BackwardFrontier.__new__(BackwardFrontier)
        frontier.settled = draw(st.permutations(
            [v for v in range(n) if dist[v] >= 0]
        ))
        frontier.dist = array("b", dist) if draw(st.booleans()) else dist
        frontiers[keyword] = frontier
    return n, keywords, frontiers


class TestScoredRoots:
    @settings(max_examples=300, deadline=None)
    @given(
        settled_frontiers(),
        st.sampled_from([distance_sum, distance_sum_score, max_distance]),
        st.sampled_from([float("inf"), 0, 1, 3, 2.5, 4.0, 0.5]),
        st.sets(st.integers(0, 29), max_size=8),
    )
    def test_equals_the_sorted_reference(self, instance, scr, below, skip):
        """Filter-then-score equals scoring every root and sorting the
        ``(scr(row), root)`` pairs below ``below``."""
        n, keywords, frontiers = instance
        algorithm = BackwardKeywordSearch(d_max=3)
        algorithm.scr = scr
        ordered = sorted(keywords)
        expected = sorted(
            (scr({kw: frontiers[kw].dist[root] for kw in ordered}), root)
            for root in range(n)
            if root not in skip
            and all(frontiers[kw].dist[root] >= 0 for kw in ordered)
        )
        expected = [pair for pair in expected if pair[0] < below]
        got = algorithm.scored_roots(keywords, frontiers, below, skip)
        assert got == expected
        assert [type(score) for score, _ in got] == [
            type(score) for score, _ in expected
        ]


ROOTED = [
    BackwardKeywordSearch(d_max=3, k=None),
    BidirectionalSearch(d_max=3, k=None),
    Blinks(d_max=3, k=None),
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
            verified = algo.verify(g, dict(a.keyword_nodes), query, root=a.root)
            assert verified is not None
            assert verified.score == a.score
            assert type(verified.score) is type(a.score)
            assert verified.signature() == a.signature()


def count_trees(monkeypatch):
    """Record every answer tree built from here on (its root)."""
    built = []
    build = RootedTreeAlgorithm.answer_tree

    def counting(self, graph, hit):
        built.append(hit.root)
        return build(self, graph, hit)

    monkeypatch.setattr(RootedTreeAlgorithm, "answer_tree", counting)
    return built


class TestLazyTrees:
    @pytest.mark.parametrize("algo", ROOTED, ids=lambda a: a.name)
    def test_search_builds_trees_only_for_its_top_k(
        self, algo, random_graph_factory, monkeypatch
    ):
        g = random_graph_factory(num_vertices=80, num_edges=220, seed=3)
        query = KeywordQuery(["A", "B"])
        searcher = algo.bind(g)
        full = searcher.search(query, k=None)
        assert len(full) > 10
        built = count_trees(monkeypatch)
        top = searcher.search(query, k=10)
        assert top == full[:10]
        assert len(built) <= 10
        with instrumented(trace=False) as inst:
            searcher.search(query, k=10)
        assert inst.metrics.counter("search.trees_materialized") == 10

    @pytest.mark.parametrize("algo", ROOTED, ids=lambda a: a.name)
    def test_hits_rank_like_their_trees(self, algo, random_graph_factory):
        g = random_graph_factory(num_vertices=80, num_edges=220, seed=4)
        query = KeywordQuery(["A", "C", "E"])
        searcher = algo.bind(g)
        hits = searcher.search_hits(query, k=None)
        answers = searcher.search(query, k=None)
        assert all(isinstance(h, RootHit) for h in hits)
        assert [(h.score, h.signature()) for h in hits] == [
            (a.score, a.signature()) for a in answers
        ]
        assert top_k(hits, None) == hits

    @pytest.mark.parametrize("algo", ROOTED, ids=lambda a: a.name)
    def test_interleaved_streams_match_sequential(
        self, algo, random_graph_factory
    ):
        """Per-query scratch: two live streams on one searcher do not
        disturb each other."""
        g = random_graph_factory(num_vertices=80, num_edges=220, seed=5)
        searcher = algo.bind(g)
        q1, q2 = KeywordQuery(["A", "B"]), KeywordQuery(["C", "D", "E"])
        expected = [list(searcher.iter_search(q1)), list(searcher.iter_search(q2))]
        got = [[], []]
        for pair in itertools.zip_longest(
            searcher.iter_search(q1), searcher.iter_search(q2)
        ):
            for i, answer in enumerate(pair):
                if answer is not None:
                    got[i].append(answer)
        assert got == expected
        assert all(expected)
