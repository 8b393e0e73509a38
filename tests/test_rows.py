"""``Graph.rows()``: the one traversal format, equal to the CSR everywhere.

Heap graphs hand out their live adjacency lists, mmap-backed (v4) graphs
lazily built tuple rows shared with their copy-on-write clones; either
way row ``v`` is ``v``'s CSR slice, so every traversal kernel answers
identically on a loaded graph and its heap twin.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bisim.refinement import maximal_bisimulation
from repro.graph.digraph import FrozenAdjacency, Graph, _pack_csr
from repro.graph.traversal import (
    bfs_distances,
    nearest_labeled_forward,
    shortest_path,
)
from repro.search.base import BackwardFrontier

LABELS = ("A", "B", "C")


@st.composite
def labelled_graphs(draw) -> Graph:
    n = draw(st.integers(min_value=1, max_value=20))
    g = Graph()
    labels = st.lists(st.sampled_from(LABELS), min_size=n, max_size=n)
    for label in draw(labels):
        g.add_vertex(label)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n)):
        if u != v:
            g.add_edge(u, v)
    return g


def csr_rows(graph: Graph):
    """Row ``v`` as the v4 format stores it: ``v``'s slice of the packed
    CSR buffers (an mmap-loaded graph's own; a heap graph's packed)."""
    rows = graph.rows()
    if isinstance(rows, FrozenAdjacency):
        packed = [
            (rows.out_offsets, rows.out_targets),
            (rows.in_offsets, rows.in_targets),
        ]
    else:
        packed = list(map(_pack_csr, rows))
    return tuple(
        [tuple(targets[offsets[v] : offsets[v + 1]]) for v in graph.vertices()]
        for offsets, targets in packed
    )


def as_tuples(graph: Graph):
    return tuple([tuple(row) for row in table] for table in graph.rows())


class TestRowsAreTheCSR:
    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs())
    def test_every_graph_kind(self, frozen_twin, g):
        frozen = frozen_twin(g)
        assert frozen.is_mmap_backed
        clone = frozen.cow_clone()
        expected = csr_rows(g)
        for graph in (g, frozen, clone):
            assert as_tuples(graph) == expected == csr_rows(graph)
        # Rows of a frozen graph are one object, shared by its clones.
        assert frozen.rows() is frozen.rows()
        assert clone.rows() is frozen.rows()
        # A write materializes the clone; its rows follow the write and
        # the parent's do not move.
        parent_rows = frozen.rows()
        added = clone.add_vertex("A")
        clone.add_edge(added, 0)
        assert not clone.is_mmap_backed
        assert as_tuples(clone) == csr_rows(clone)
        assert clone.rows()[0][added] == [0]
        assert frozen.rows() is parent_rows
        assert as_tuples(frozen) == expected
        # The same for a heap parent and its copy-on-write clone.
        heap_clone = g.cow_clone()
        heap_clone.add_edge(heap_clone.add_vertex("B"), 0)
        assert as_tuples(heap_clone) == csr_rows(heap_clone)
        assert as_tuples(g) == expected

    @settings(max_examples=80, deadline=None)
    @given(labelled_graphs(), st.data())
    def test_kernels_agree_with_the_heap_twin(self, frozen_twin, g, data):
        frozen = frozen_twin(g)
        n = g.num_vertices
        vertex = st.integers(0, n - 1)
        sources = sorted(set(data.draw(st.lists(vertex, min_size=1))))
        d_max = data.draw(st.integers(0, 4))
        frontiers = []
        for graph in (g, frozen):
            frontier = BackwardFrontier(graph, sources, d_max)
            levels = []
            while not frontier.exhausted:
                levels.append(frontier.expand_level())
            frontiers.append(
                (levels, frontier.dist, frontier.origin, frontier.settled)
            )
        assert frontiers[0] == frontiers[1]
        root, target = data.draw(vertex), data.draw(vertex)
        keywords = data.draw(st.sets(st.sampled_from(LABELS), min_size=1))
        for direction in ("forward", "backward", "both"):
            assert bfs_distances(
                g, sources, max_depth=d_max, direction=direction
            ) == bfs_distances(
                frozen, sources, max_depth=d_max, direction=direction
            )
            assert shortest_path(
                g, root, target, direction=direction
            ) == shortest_path(frozen, root, target, direction=direction)
        assert nearest_labeled_forward(
            g, root, keywords, d_max
        ) == nearest_labeled_forward(frozen, root, keywords, d_max)
        assert maximal_bisimulation(g) == maximal_bisimulation(frozen)

    def test_frozen_rows_build_one_direction_at_a_time(self, frozen_twin):
        g = Graph()
        for label in "ABA":
            g.add_vertex(label)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        rows = frozen_twin(g).rows()
        assert rows._rows == [None, None]
        assert rows[1][1] == (0, 2)
        assert rows._rows[0] is None
        assert rows[0] == [(1,), (), (1,)]

    def test_directions_share_one_int_per_vertex(self, frozen_twin):
        g = Graph()
        for _ in range(300):
            g.add_vertex("A")
        g.add_edge(280, 290)
        g.add_edge(290, 280)
        rows = frozen_twin(g).rows()
        assert rows[0][280] == rows[1][280] == (290,)
        assert rows[0][280][0] is rows[1][280][0]
