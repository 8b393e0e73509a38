"""Unit tests for neighborhood sampling and the BFS-grow partitioner."""

import random

import pytest

from repro.graph.digraph import Graph
from repro.graph.partition import partition_bfs_grow
from repro.graph.sampling import (
    required_sample_size,
    sample_neighborhood,
    sample_neighborhoods,
)
from repro.utils.errors import GraphError


class TestSampleSizeFormula:
    def test_paper_parameters(self):
        # E = 5%, z = 1.96 -> 0.25 * (1.96/0.05)^2 = 384.16 -> 385
        assert required_sample_size(0.05) == 385

    def test_tighter_bound_needs_more_samples(self):
        assert required_sample_size(0.01) > required_sample_size(0.05)

    def test_non_positive_bound_raises(self):
        with pytest.raises(ValueError):
            required_sample_size(0)


class TestSampling:
    def test_sample_is_induced_ball(self, random_graph_factory):
        g = random_graph_factory(num_vertices=30, num_edges=60, seed=1)
        rng = random.Random(0)
        sub, mapping = sample_neighborhood(g, rng, radius=2, root=0)
        # Every sampled vertex is within 2 forward hops of the root.
        from repro.graph.traversal import reachable_within

        ball = reachable_within(g, 0, 2)
        assert set(mapping) == ball
        # Induced: edges between sampled vertices are preserved.
        for u in ball:
            for v in g.out_neighbors(u):
                if v in ball:
                    assert sub.has_edge(mapping[u], mapping[v])

    def test_sampling_empty_graph_raises(self):
        with pytest.raises(GraphError):
            sample_neighborhood(Graph(), random.Random(0), radius=1)

    def test_sample_neighborhoods_deterministic(self, random_graph_factory):
        g = random_graph_factory(seed=2)
        first = sample_neighborhoods(g, num_samples=5, radius=2, seed=9)
        second = sample_neighborhoods(g, num_samples=5, radius=2, seed=9)
        assert [s.num_vertices for s in first] == [s.num_vertices for s in second]

    def test_sample_count(self, random_graph_factory):
        g = random_graph_factory(seed=3)
        assert len(sample_neighborhoods(g, num_samples=7, radius=1)) == 7


class TestPartition:
    def test_blocks_cover_all_vertices_once(self, random_graph_factory):
        g = random_graph_factory(num_vertices=50, num_edges=120, seed=4)
        part = partition_bfs_grow(g, target_block_size=10)
        seen = [v for block in part.blocks for v in block]
        assert sorted(seen) == list(range(50))
        for v in range(50):
            assert v in part.blocks[part.block_of[v]]

    def test_block_size_bound(self, random_graph_factory):
        g = random_graph_factory(num_vertices=50, num_edges=120, seed=4)
        part = partition_bfs_grow(g, target_block_size=10)
        assert all(len(block) <= 10 for block in part.blocks)

    def test_single_block_when_target_large(self, random_graph_factory):
        g = random_graph_factory(num_vertices=20, num_edges=60, seed=5)
        part = partition_bfs_grow(g, target_block_size=1000)
        # Connected random graph collapses to one block; at worst a few.
        assert part.num_blocks <= 3
        if part.num_blocks == 1:
            assert part.block_of == [0] * 20

    def test_deterministic(self, random_graph_factory):
        g = random_graph_factory(seed=6)
        p1 = partition_bfs_grow(g, 7)
        p2 = partition_bfs_grow(g, 7)
        assert p1.block_of == p2.block_of

    def test_invalid_target_raises(self, random_graph_factory):
        g = random_graph_factory(seed=6)
        with pytest.raises(GraphError):
            partition_bfs_grow(g, 0)

    def test_empty_graph(self):
        part = partition_bfs_grow(Graph(), 5)
        assert part.num_blocks == 0
        assert part.block_of == []
