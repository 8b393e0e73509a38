"""The packed CSR storage format, adjacency reads and the label-posting
cache: correctness + invalidation.

The v4 writer packs each direction's rows into (offsets, targets) int
arrays, and an mmap-loaded graph answers reads from exactly those
buffers.  The sorted label postings are a *cache* over the mutable label
index; every mutation (add_vertex, add_edge, remove_edge, relabel) must
leave no reader with stale topology.  These tests pin both halves: the
packed arrays agree with the rows, and traversals issued after a
mutation see the post-mutation graph.
"""

import pytest

from repro.graph.digraph import Graph, _pack_csr
from repro.graph.traversal import bfs_distances, reachable_within


def _assert_csr_matches_adjacency(g: Graph) -> None:
    """The packed rows (what the v4 writer stores) slice back to the
    graph's neighbours and degrees."""
    (out_offsets, out_targets), (in_offsets, in_targets) = map(
        _pack_csr, g.rows()
    )
    for v in range(g.num_vertices):
        out_row = out_targets[out_offsets[v] : out_offsets[v + 1]]
        in_row = in_targets[in_offsets[v] : in_offsets[v + 1]]
        assert list(out_row) == list(g.out_neighbors(v))
        assert list(in_row) == list(g.in_neighbors(v))
        assert len(out_row) == g.out_degree(v)
        assert len(in_row) == g.in_degree(v)


class TestCSRView:
    def test_matches_adjacency_on_random_graph(
        self, random_graph_factory, frozen_twin
    ):
        g = random_graph_factory(num_vertices=80, num_edges=300, seed=3)
        _assert_csr_matches_adjacency(g)
        # A loaded graph reads its degrees and edges off the buffers.
        frozen = frozen_twin(g)
        _assert_csr_matches_adjacency(frozen)
        assert list(frozen.edges()) == list(g.edges())
        assert all(frozen.has_edge(u, v) for u, v in g.edges())
        assert not frozen.has_edge(0, g.num_vertices)
        assert frozen.is_mmap_backed

    def test_empty_graph(self):
        offsets, targets = _pack_csr(Graph().rows()[0])
        assert list(offsets) == [0]
        assert len(targets) == 0

    def test_isolated_vertices(self):
        g = Graph()
        for _ in range(4):
            g.add_vertex("A")
        for offsets, targets in map(_pack_csr, g.rows()):
            assert list(offsets) == [0] * 5
            assert len(targets) == 0

    def test_view_is_cached_until_mutation(self, frozen_twin):
        """A loaded graph's rows are one object until its first write,
        which detaches it to heap rows that include the write."""
        g = Graph()
        a, b = g.add_vertex("A"), g.add_vertex("B")
        g.add_edge(a, b)
        frozen = frozen_twin(g)
        rows = frozen.rows()
        assert frozen.rows() is rows
        frozen.add_edge(b, a)
        assert frozen.rows() is not rows
        assert list(frozen.rows()[0][b]) == [a]

    def test_offsets_cover_all_edges(self, random_graph_factory):
        g = random_graph_factory(num_vertices=50, num_edges=200, seed=9)
        for offsets, targets in map(_pack_csr, g.rows()):
            assert offsets[-1] == g.num_edges == len(targets)


class TestCSRInvalidation:
    def test_add_edge_after_traversal(self):
        g = Graph()
        a, b, c = g.add_vertex("A"), g.add_vertex("B"), g.add_vertex("C")
        g.add_edge(a, b)
        assert reachable_within(g, a, 3) == {a, b}
        g.add_edge(b, c)
        assert reachable_within(g, a, 3) == {a, b, c}
        _assert_csr_matches_adjacency(g)

    def test_remove_edge_after_traversal(self):
        g = Graph()
        a, b, c = g.add_vertex("A"), g.add_vertex("B"), g.add_vertex("C")
        g.add_edge(a, b)
        g.add_edge(b, c)
        assert bfs_distances(g, [a])[c] == 2
        g.remove_edge(b, c)
        assert c not in bfs_distances(g, [a])
        _assert_csr_matches_adjacency(g)

    def test_add_vertex_after_traversal(self):
        g = Graph()
        a = g.add_vertex("A")
        assert reachable_within(g, a, 2) == {a}
        b = g.add_vertex("B")
        assert list(g.out_neighbors(b)) == []
        g.add_edge(a, b)
        assert reachable_within(g, a, 2) == {a, b}

    def test_stale_view_not_reused_after_mutation(self, frozen_twin):
        g = Graph()
        a, b = g.add_vertex("A"), g.add_vertex("B")
        g.add_edge(a, b)
        frozen = frozen_twin(g)
        before = frozen.rows()
        assert frozen.out_degree(a) == 1
        frozen.remove_edge(a, b)
        after = frozen.rows()
        assert after is not before
        assert list(after[0][a]) == []
        assert frozen.out_degree(a) == 0 and not frozen.has_edge(a, b)
        assert list(before[0][a]) == [b]  # the loaded buffers never move


class TestLabelPostings:
    def test_sorted_and_complete(self, random_graph_factory):
        g = random_graph_factory(num_vertices=60, num_edges=150, seed=5)
        for label in g.distinct_labels():
            posting = g.sorted_vertices_with_label(label)
            assert list(posting) == [v for v in g.vertices() if g.label(v) == label]

    def test_unknown_label_is_empty(self):
        g = Graph()
        g.add_vertex("A")
        assert g.sorted_vertices_with_label("missing") == ()

    def test_posting_is_cached(self):
        g = Graph()
        g.add_vertex("A")
        assert g.sorted_vertices_with_label("A") is g.sorted_vertices_with_label("A")

    def test_add_vertex_invalidates_posting(self):
        g = Graph()
        a = g.add_vertex("A")
        assert g.sorted_vertices_with_label("A") == (a,)
        a2 = g.add_vertex("A")
        assert g.sorted_vertices_with_label("A") == (a, a2)

    def test_relabel_invalidates_both_postings(self):
        g = Graph()
        a, b = g.add_vertex("A"), g.add_vertex("B")
        assert g.sorted_vertices_with_label("A") == (a,)
        assert g.sorted_vertices_with_label("B") == (b,)
        g.relabel_vertex(a, "B")
        assert g.sorted_vertices_with_label("A") == ()
        assert g.sorted_vertices_with_label("B") == (a, b)


class TestSearchersSeeFreshTopology:
    """End-to-end: searchers read the live rows, so a mutation between
    two searches must change the second search's results."""

    @pytest.mark.parametrize("algo_name", ["bkws", "bdws", "blinks", "r-clique"])
    def test_search_after_edge_insertion(self, algo_name):
        from repro.search.banks import BackwardKeywordSearch
        from repro.search.base import KeywordQuery
        from repro.search.bidirectional import BidirectionalSearch
        from repro.search.blinks import Blinks
        from repro.search.rclique import RClique

        algos = {
            "bkws": BackwardKeywordSearch(d_max=3, k=5),
            "bdws": BidirectionalSearch(d_max=3, k=5),
            "blinks": Blinks(d_max=3, k=5),
            "r-clique": RClique(radius=3, k=5),
        }
        g = Graph()
        a, b = g.add_vertex("A"), g.add_vertex("B")
        # Disconnected: no answer can connect A and B.
        searcher = algos[algo_name].bind(g)
        assert searcher.search(KeywordQuery(["A", "B"])) == []
        g.add_edge(a, b)
        if algo_name == "r-clique":
            # r-clique's neighbor index is an offline structure built at
            # bind time and cached per graph (the paper's O(mn) neighbor
            # list); a fresh algorithm's bind must pick the new edge up.
            searcher = RClique(radius=3, k=5).bind(g)
        answers = searcher.search(KeywordQuery(["A", "B"]))
        assert answers, f"{algo_name} missed the newly inserted edge"
