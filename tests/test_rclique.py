"""Unit tests for r-clique (dkws) and its neighbor index."""

import itertools
import random

import pytest

from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.datasets.synthetic import verification_corpus
from repro.graph.digraph import Graph
from repro.search.base import KeywordQuery
from repro.search.rclique import (
    NeighborIndex,
    NeighborIndexTooLarge,
    RClique,
)
from repro.utils.errors import QueryError
from repro.verify.drill import probe_queries


@pytest.fixture
def triangle_graph() -> Graph:
    """k1 - c - k2 undirected-ish: edges both ways through a center."""
    g = Graph()
    k1 = g.add_vertex("K1")
    c = g.add_vertex("C")
    k2 = g.add_vertex("K2")
    g.add_edge(k1, c)
    g.add_edge(c, k2)
    return g


class TestNeighborIndex:
    def test_distances_within_radius(self, triangle_graph):
        index = NeighborIndex(triangle_graph, radius=2)
        assert index.distance(0, 2) == 2
        assert index.distance(0, 0) == 0

    def test_radius_bound(self, triangle_graph):
        index = NeighborIndex(triangle_graph, radius=1)
        assert index.distance(0, 2) is None

    def test_directed_variant(self, triangle_graph):
        index = NeighborIndex(triangle_graph, radius=2, direction="forward")
        assert index.distance(0, 2) == 2
        assert index.distance(2, 0) is None

    def test_memory_budget_raises(self, random_graph_factory):
        g = random_graph_factory(num_vertices=40, num_edges=120, seed=41)
        with pytest.raises(NeighborIndexTooLarge):
            NeighborIndex(g, radius=4, max_entries=10)


class TestSearchSemantics:
    def test_simple_clique_found(self, triangle_graph):
        rc = RClique(radius=2, k=None)
        answers = rc.bind(triangle_graph).search(KeywordQuery(["K1", "K2"]))
        assert len(answers) == 1
        assert dict(answers[0].keyword_nodes) == {"K1": 0, "K2": 2}
        assert answers[0].score == 2.0

    def test_radius_too_small_yields_nothing(self, triangle_graph):
        rc = RClique(radius=1, k=None)
        assert rc.bind(triangle_graph).search(KeywordQuery(["K1", "K2"])) == []

    def test_missing_keyword_yields_nothing(self, triangle_graph):
        rc = RClique(radius=2, k=None)
        assert rc.bind(triangle_graph).search(KeywordQuery(["K1", "zz"])) == []

    def test_enumeration_is_complete_and_valid(self, random_graph_factory):
        """k=None enumeration returns exactly the brute-force answer set."""
        g = random_graph_factory(num_vertices=18, num_edges=40, seed=42)
        radius = 2
        query = KeywordQuery(["A", "B"])
        rc = RClique(radius=radius, k=None)
        searcher = rc.bind(g)
        got = {a.keyword_nodes for a in searcher.search(query)}
        # Brute force over the keyword product.
        expected = set()
        for u in g.sorted_vertices_with_label("A"):
            for v in g.sorted_vertices_with_label("B"):
                d = searcher.index.distance(u, v)
                if u != v and d is not None and d <= radius:
                    expected.add((("A", u), ("B", v)))
        assert got == expected

    def test_scores_are_pairwise_sums(self, random_graph_factory):
        g = random_graph_factory(num_vertices=18, num_edges=40, seed=43)
        rc = RClique(radius=2, k=5)
        searcher = rc.bind(g)
        for answer in searcher.search(KeywordQuery(["A", "B", "C"])):
            nodes = [v for _, v in answer.keyword_nodes]
            total = sum(
                searcher.index.distance(a, b)
                for a, b in itertools.combinations(nodes, 2)
            )
            assert answer.score == float(total)

    def test_top_k_is_prefix_of_full_enumeration(self, random_graph_factory):
        g = random_graph_factory(num_vertices=18, num_edges=40, seed=44)
        query = KeywordQuery(["A", "B"])
        full = RClique(radius=2, k=None).bind(g).search(query)
        top3 = RClique(radius=2, k=3).bind(g).search(query)
        assert [a.score for a in top3] == [a.score for a in full[:3]]

    def test_iter_search_ascending_scores(self, random_graph_factory):
        g = random_graph_factory(num_vertices=18, num_edges=40, seed=45)
        searcher = RClique(radius=2, k=2).bind(g)
        scores = [a.score for a in searcher.iter_search(KeywordQuery(["A", "B"]))]
        assert scores == sorted(scores)

    def test_negative_radius_rejected(self):
        with pytest.raises(QueryError):
            RClique(radius=-1)


class TestVerifyAndQualify:
    def test_verify_valid_clique(self, triangle_graph):
        rc = RClique(radius=2)
        answer = rc.verify(
            triangle_graph, {"K1": 0, "K2": 2}, KeywordQuery(["K1", "K2"])
        )
        assert answer is not None and answer.score == 2.0

    def test_verify_rejects_wrong_label(self, triangle_graph):
        rc = RClique(radius=2)
        assert (
            rc.verify(triangle_graph, {"K1": 1, "K2": 2}, KeywordQuery(["K1", "K2"]))
            is None
        )

    def test_verify_rejects_distance_violation(self, triangle_graph):
        rc = RClique(radius=1)
        assert (
            rc.verify(triangle_graph, {"K1": 0, "K2": 2}, KeywordQuery(["K1", "K2"]))
            is None
        )

    def test_enlarge_ok_prunes_far_vertices(self, triangle_graph):
        rc = RClique(radius=1)
        assert rc.enlarge_ok(
            triangle_graph, {}, "K1", 0, KeywordQuery(["K1", "K2"])
        )
        assert not rc.enlarge_ok(
            triangle_graph, {"K1": 0}, "K2", 2, KeywordQuery(["K1", "K2"])
        )

    def test_enlarge_ok_within_radius(self, triangle_graph):
        rc = RClique(radius=2)
        assert rc.enlarge_ok(
            triangle_graph, {"K1": 0}, "K2", 2, KeywordQuery(["K1", "K2"])
        )


class TestInPlaceWrites:
    """The neighbor index is the algorithm's per-graph cache; an in-place
    write to the graph must retire it, or ``bind`` and ``verify`` answer
    from the pre-write distances."""

    def test_reused_evaluator_matches_a_fresh_bind_after_writes(self):
        _name, graph, ontology = verification_corpus(quick=True, seed=0)[0]
        index = BiGIndex.build(
            graph.copy(),
            ontology,
            num_layers=2,
            cost_params=CostParams(exact=True),
        )
        queries = probe_queries(graph)
        reused = HierarchicalEvaluator(
            index, RClique(radius=2, k=None), allow_layer_zero=True
        )
        rng = random.Random(0)
        n = index.base_graph.num_vertices
        compared = 0
        for step in range(24):
            u, v = rng.randrange(n), rng.randrange(n)
            if step % 3 == 2 and index.base_graph.num_edges:
                u, v = sorted(index.base_graph.edges())[step]
                index.delete_edge(u, v)
            elif u != v:
                index.insert_edge(u, v)
            fresh = HierarchicalEvaluator(
                index, RClique(radius=2, k=None), allow_layer_zero=True,
                cache_size=0,
            )
            for query in queries:
                for layer in (0, 1):
                    if layer and not index.query_distinct_at(query, layer):
                        continue
                    got = reused.evaluate(query, layer=layer).answers
                    want = fresh.evaluate(query, layer=layer).answers
                    assert got == want, (step, layer, query.keywords)
                    compared += 1
        assert compared >= 24 * 2
