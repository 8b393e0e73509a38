"""Unit tests for traversal primitives."""

import pytest

from repro.graph.digraph import Graph
from repro.graph.traversal import (
    bfs_distances,
    bounded_distance,
    reachable_within,
    shortest_path,
)
from repro.utils.errors import GraphError


@pytest.fixture
def chain() -> Graph:
    """0 -> 1 -> 2 -> 3 -> 4."""
    g = Graph()
    for _ in range(5):
        g.add_vertex("n")
    for i in range(4):
        g.add_edge(i, i + 1)
    return g


@pytest.fixture
def diamond() -> Graph:
    """0 -> {1, 2} -> 3."""
    g = Graph()
    for _ in range(4):
        g.add_vertex("n")
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 3)
    g.add_edge(2, 3)
    return g


class TestBfsDistances:
    def test_forward_distances_on_chain(self, chain):
        dist = bfs_distances(chain, [0])
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_backward_distances_on_chain(self, chain):
        dist = bfs_distances(chain, [4], direction="backward")
        assert dist == {4: 0, 3: 1, 2: 2, 1: 3, 0: 4}

    def test_both_direction_treats_graph_undirected(self, chain):
        dist = bfs_distances(chain, [2], direction="both")
        assert dist == {0: 2, 1: 1, 2: 0, 3: 1, 4: 2}

    def test_max_depth_truncates(self, chain):
        dist = bfs_distances(chain, [0], max_depth=2)
        assert set(dist) == {0, 1, 2}

    def test_multi_source_takes_nearest(self, chain):
        dist = bfs_distances(chain, [0, 3])
        assert dist[4] == 1

    def test_unknown_direction_raises(self, chain):
        with pytest.raises(GraphError):
            bfs_distances(chain, [0], direction="sideways")

    def test_empty_sources(self, chain):
        assert bfs_distances(chain, []) == {}


class TestReachability:
    def test_reachable_within_hops(self, chain):
        assert reachable_within(chain, 0, 2) == {0, 1, 2}

    def test_bounded_distance_found(self, diamond):
        assert bounded_distance(diamond, 0, 3) == 2

    def test_bounded_distance_respects_bound(self, chain):
        assert bounded_distance(chain, 0, 4, max_depth=3) is None

    def test_bounded_distance_self(self, chain):
        assert bounded_distance(chain, 2, 2) == 0

    def test_bounded_distance_unreachable(self, chain):
        assert bounded_distance(chain, 4, 0) is None


class TestShortestPath:
    def test_path_on_chain(self, chain):
        assert shortest_path(chain, 0, 3) == [0, 1, 2, 3]

    def test_path_to_self(self, chain):
        assert shortest_path(chain, 2, 2) == [2]

    def test_no_path_returns_none(self, chain):
        assert shortest_path(chain, 3, 0) is None

    def test_backward_path(self, chain):
        assert shortest_path(chain, 3, 0, direction="backward") == [3, 2, 1, 0]

    def test_path_respects_max_depth(self, chain):
        assert shortest_path(chain, 0, 4, max_depth=2) is None
