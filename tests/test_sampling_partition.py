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

    def test_portals_are_cut_endpoints(self, random_graph_factory):
        g = random_graph_factory(num_vertices=50, num_edges=120, seed=4)
        part = partition_bfs_grow(g, target_block_size=10)
        for u, v in part.cut_edges(g):
            assert u in part.portals
            assert v in part.portals

    def test_single_block_when_target_large(self, random_graph_factory):
        g = random_graph_factory(num_vertices=20, num_edges=60, seed=5)
        part = partition_bfs_grow(g, target_block_size=1000)
        # Connected random graph collapses to one block; at worst a few.
        assert part.num_blocks <= 3
        if part.num_blocks == 1:
            assert not part.portals

    def test_deterministic(self, random_graph_factory):
        g = random_graph_factory(seed=6)
        p1 = partition_bfs_grow(g, 7)
        p2 = partition_bfs_grow(g, 7)
        assert p1.block_of == p2.block_of

    def test_invalid_target_raises(self, random_graph_factory):
        g = random_graph_factory(seed=6)
        with pytest.raises(GraphError):
            partition_bfs_grow(g, 0)

    def test_unknown_block_raises(self, random_graph_factory):
        g = random_graph_factory(seed=6)
        part = partition_bfs_grow(g, 7)
        with pytest.raises(GraphError):
            part.block_members(part.num_blocks + 5)

    def test_empty_graph(self):
        part = partition_bfs_grow(Graph(), 5)
        assert part.num_blocks == 0
        assert part.portals == set()

    def test_cut_edges_sorted_and_portals_are_exact_endpoints(
        self, random_graph_factory
    ):
        # Property: for any seeded graph and block size, the portal set
        # is *exactly* the endpoints of the cut edges — nothing more
        # (no interior vertex leaks in) and nothing less (every cut
        # endpoint is a portal) — and the cut list is sorted.
        for seed in range(8):
            g = random_graph_factory(
                num_vertices=40 + 5 * seed, num_edges=110, seed=seed
            )
            part = partition_bfs_grow(g, target_block_size=9 + seed)
            cut = part.cut_edges(g)
            assert cut == sorted(cut)
            assert set(cut) == {
                (u, v)
                for (u, v) in g.edges()
                if part.block_of[u] != part.block_of[v]
            }
            assert part.portals == {v for edge in cut for v in edge}
