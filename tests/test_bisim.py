"""Unit tests for bisimulation refinement, summaries and maintenance."""

import pytest

from repro.bisim.refinement import (
    is_bisimulation_partition,
    maximal_bisimulation,
)
from repro.bisim.summary import summarize
from repro.graph.digraph import Graph
from repro.utils.errors import GraphError


def fan_graph(num_spokes: int = 5) -> Graph:
    """Spoke vertices all labeled P pointing at one hub H -> S."""
    g = Graph()
    hub = g.add_vertex("H")
    state = g.add_vertex("S")
    g.add_edge(hub, state)
    for _ in range(num_spokes):
        g.add_edge(g.add_vertex("P"), hub)
    return g


class TestRefinement:
    def test_empty_graph(self):
        assert maximal_bisimulation(Graph()) == []

    def test_label_partition_when_no_edges(self):
        g = Graph()
        for label in ("A", "B", "A"):
            g.add_vertex(label)
        blocks = maximal_bisimulation(g)
        assert blocks[0] == blocks[2]
        assert blocks[0] != blocks[1]

    def test_fan_collapses(self):
        blocks = maximal_bisimulation(fan_graph(10))
        spokes = {blocks[v] for v in range(2, 12)}
        assert len(spokes) == 1

    def test_different_successors_split(self):
        g = Graph()
        hub1, hub2 = g.add_vertex("H"), g.add_vertex("H")
        a, b = g.add_vertex("P"), g.add_vertex("P")
        extra = g.add_vertex("X")
        g.add_edge(a, hub1)
        g.add_edge(b, hub2)
        g.add_edge(hub2, extra)  # hub2 differs from hub1 -> a, b split
        blocks = maximal_bisimulation(g)
        assert blocks[a] != blocks[b]

    def test_canonical_numbering_by_first_vertex(self):
        g = fan_graph(3)
        blocks = maximal_bisimulation(g)
        assert blocks[0] == 0  # first vertex opens block 0
        seen = []
        for b in blocks:
            if b not in seen:
                seen.append(b)
        assert seen == sorted(seen)

    def test_result_is_valid_bisimulation(self, random_graph_factory):
        for seed in range(5):
            g = random_graph_factory(num_vertices=40, num_edges=90, seed=seed)
            blocks = maximal_bisimulation(g)
            assert is_bisimulation_partition(g, blocks)

    def test_initial_blocks_must_cover_graph(self, random_graph_factory):
        g = random_graph_factory(seed=1)
        with pytest.raises(ValueError):
            maximal_bisimulation(g, initial_blocks=[0])

    def test_refinement_respects_initial_partition(self):
        g = Graph()
        a, b = g.add_vertex("P"), g.add_vertex("P")
        # a and b are bisimilar, but a seed separating them must persist.
        blocks = maximal_bisimulation(g, initial_blocks=[0, 1])
        assert blocks[a] != blocks[b]

    def test_invalid_partition_detected(self):
        g = Graph()
        g.add_vertex("A")
        g.add_vertex("B")
        assert not is_bisimulation_partition(g, [0, 0])
        assert not is_bisimulation_partition(g, [0])


class TestSummary:
    def test_fan_summary_sizes(self):
        g = fan_graph(10)
        s = summarize(g)
        assert s.graph.num_vertices == 3
        assert s.graph.num_edges == 2

    def test_labels_preserved(self):
        s = summarize(fan_graph(4))
        labels = {s.graph.label(v) for v in s.graph.vertices()}
        assert labels == {"H", "S", "P"}

    def test_extent_and_supernode_are_inverse(self, random_graph_factory):
        g = random_graph_factory(seed=7)
        s = summarize(g)
        for supernode, members in enumerate(s.extent):
            for v in members:
                assert s.supernode_of[v] == supernode
        assert sorted(v for ms in s.extent for v in ms) == list(g.vertices())

    def test_members_accessor(self):
        s = summarize(fan_graph(3))
        assert len(s.members(s.supernode(2))) == 3
        with pytest.raises(GraphError):
            s.members(99)
        with pytest.raises(GraphError):
            s.supernode(99)

    def test_edges_lifted_without_duplicates(self, random_graph_factory):
        g = random_graph_factory(seed=8)
        s = summarize(g)
        expected = {
            (s.supernode_of[u], s.supernode_of[v]) for u, v in g.edges()
        }
        assert set(s.graph.edges()) == expected

    def test_size_ratio(self):
        g = fan_graph(10)
        s = summarize(g)
        assert s.size_ratio(g) == pytest.approx(s.graph.size / g.size)

    def test_explicit_blocks(self, random_graph_factory):
        g = random_graph_factory(num_vertices=10, num_edges=15, seed=9)
        blocks = list(range(10))  # singletons
        s = summarize(g, blocks=blocks)
        assert s.graph.num_vertices == 10

    def test_wrong_block_count_raises(self, random_graph_factory):
        g = random_graph_factory(seed=9)
        with pytest.raises(GraphError):
            summarize(g, blocks=[0, 1])


class TestPathPreservation:
    """Def. 2.1: every path of G maps to a path of Bisim(G)."""

    def test_paths_preserved_on_random_graphs(self, random_graph_factory):
        import random as _random

        for seed in range(3):
            g = random_graph_factory(num_vertices=30, num_edges=70, seed=seed)
            s = summarize(g)
            rng = _random.Random(seed)
            for _ in range(30):
                # random walk of length <= 4
                v = rng.randrange(g.num_vertices)
                path = [v]
                for _ in range(4):
                    nbrs = g.out_neighbors(path[-1])
                    if not nbrs:
                        break
                    path.append(rng.choice(nbrs))
                lifted = [s.supernode_of[u] for u in path]
                for a, b in zip(lifted, lifted[1:]):
                    assert s.graph.has_edge(a, b)
