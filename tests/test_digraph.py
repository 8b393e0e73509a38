"""Unit tests for the core graph type and label table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import Graph, LabelTable
from repro.utils.errors import GraphError


class TestLabelTable:
    def test_intern_assigns_dense_ids(self):
        table = LabelTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0

    def test_get_id_returns_none_for_unknown(self):
        assert LabelTable().get_id("missing") is None

    def test_label_of_roundtrip(self):
        table = LabelTable(["x", "y"])
        assert table.label_of(table.get_id("y")) == "y"

    def test_label_of_unknown_id_raises(self):
        with pytest.raises(GraphError):
            LabelTable().label_of(3)

    def test_contains_and_len_and_iter(self):
        table = LabelTable(["x", "y"])
        assert "x" in table and "z" not in table
        assert len(table) == 2
        assert list(table) == ["x", "y"]


class TestGraphConstruction:
    def test_add_vertex_returns_sequential_ids(self):
        g = Graph()
        assert [g.add_vertex("a"), g.add_vertex("b"), g.add_vertex("a")] == [0, 1, 2]

    def test_add_edge_and_neighbors(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        assert g.add_edge(a, b) is True
        assert g.out_neighbors(a) == [b]
        assert g.in_neighbors(b) == [a]

    def test_parallel_edges_collapse(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        g.add_edge(a, b)
        assert g.add_edge(a, b) is False
        assert g.num_edges == 1

    def test_self_loop_allowed(self):
        g = Graph()
        a = g.add_vertex("a")
        assert g.add_edge(a, a) is True
        assert g.has_edge(a, a)

    def test_edge_to_unknown_vertex_raises(self):
        g = Graph()
        a = g.add_vertex("a")
        with pytest.raises(GraphError):
            g.add_edge(a, 5)

    def test_remove_edge(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        g.add_edge(a, b)
        g.remove_edge(a, b)
        assert g.num_edges == 0
        assert not g.has_edge(a, b)

    def test_remove_missing_edge_raises(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        with pytest.raises(GraphError):
            g.remove_edge(a, b)

    def test_add_vertex_with_label_id_requires_known_id(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_vertex_with_label_id(0)
        lid = g.label_table.intern("a")
        assert g.add_vertex_with_label_id(lid) == 0

    def test_size_is_vertices_plus_edges(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        g.add_edge(a, b)
        assert g.size == 3


class TestLabels:
    def test_label_and_label_id(self):
        g = Graph()
        v = g.add_vertex("Person")
        assert g.label(v) == "Person"
        assert g.label_table.label_of(g.label_id(v)) == "Person"

    def test_vertices_with_label(self):
        g = Graph()
        a = g.add_vertex("x")
        g.add_vertex("y")
        c = g.add_vertex("x")
        assert g.vertices_with_label("x") == {a, c}
        assert g.vertices_with_label("missing") == set()

    def test_relabel_vertex_updates_index(self):
        g = Graph()
        v = g.add_vertex("x")
        g.relabel_vertex(v, "y")
        assert g.label(v) == "y"
        assert g.vertices_with_label("x") == set()
        assert g.vertices_with_label("y") == {v}

    def test_relabel_to_same_label_is_noop(self):
        g = Graph()
        v = g.add_vertex("x")
        g.relabel_vertex(v, "x")
        assert g.vertices_with_label("x") == {v}

    def test_label_support_counts_vertices(self):
        g = Graph()
        g.add_vertex("x")
        g.add_vertex("x")
        g.add_vertex("y")
        assert g.label_support("x") == 2
        assert g.label_support("missing") == 0

    def test_distinct_labels_reflects_current_usage(self):
        g = Graph()
        v = g.add_vertex("x")
        g.relabel_vertex(v, "y")
        assert g.distinct_labels() == {"y"}

    def test_label_histogram(self):
        g = Graph()
        g.add_vertex("x")
        g.add_vertex("x")
        g.add_vertex("y")
        assert g.label_histogram() == {"x": 2, "y": 1}

    def test_names_fall_back_to_label(self):
        g = Graph()
        named = g.add_vertex("Person", name="P. Graham")
        anonymous = g.add_vertex("Person")
        assert g.name(named) == "P. Graham"
        assert g.name(anonymous) == "Person"


class TestDerivation:
    def test_copy_is_deep_for_topology(self):
        g = Graph()
        a, b = g.add_vertex("a"), g.add_vertex("b")
        g.add_edge(a, b)
        clone = g.copy()
        clone.add_edge(b, a)
        assert not g.has_edge(b, a)
        assert set(g.copy().edges()) == set(g.edges())

    def test_copy_shares_label_table_by_default(self):
        g = Graph()
        g.add_vertex("a")
        clone = g.copy()
        assert clone.label_table is g.label_table

    def test_copy_private_label_table(self):
        g = Graph()
        g.add_vertex("a")
        clone = g.copy(share_label_table=False)
        assert clone.label_table is not g.label_table
        assert clone.label(0) == "a"

    def test_induced_subgraph_keeps_internal_edges_only(self):
        g = Graph()
        a, b, c = g.add_vertex("a"), g.add_vertex("b"), g.add_vertex("c")
        g.add_edge(a, b)
        g.add_edge(b, c)
        sub, mapping = g.induced_subgraph([a, b])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.has_edge(mapping[a], mapping[b])

    def test_induced_subgraph_preserves_labels(self):
        g = Graph()
        a = g.add_vertex("Person")
        sub, mapping = g.induced_subgraph([a])
        assert sub.label(mapping[a]) == "Person"

    def test_degrees(self):
        g = Graph()
        a, b, c = (g.add_vertex(x) for x in "abc")
        g.add_edge(a, b)
        g.add_edge(c, b)
        assert g.out_degree(a) == 1
        assert g.in_degree(b) == 2
        assert g.degree(b) == 2
        assert g.degree(a) == 1


# ----------------------------------------------------------------------
# Storage modes: a heap graph, its mmap-backed twin and their clones
# ----------------------------------------------------------------------
MODE_LABELS = ("A", "B", "C", "D")

#: One write, with vertex and edge picks taken modulo the graph's size.
writes = st.one_of(
    st.tuples(st.just("vertex"), st.sampled_from(MODE_LABELS)),
    st.tuples(st.just("edge"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("remove"), st.integers(0, 99)),
    st.tuples(st.just("relabel"), st.integers(0, 99), st.sampled_from(MODE_LABELS)),
)


def every_read(graph: Graph):
    """Everything a graph answers about its edges, rows and labels."""
    n = graph.num_vertices
    ids = range(len(MODE_LABELS) + 1)  # one past the interned labels
    probes = MODE_LABELS + ("missing",)
    return {
        "size": (n, graph.num_edges, graph.size),
        "edges": list(graph.edges()),
        "has_edge": [
            graph.has_edge(u, v) for u in range(-1, n + 1) for v in range(-1, n + 1)
        ],
        "degrees": [
            (graph.out_degree(v), graph.in_degree(v), graph.degree(v))
            for v in graph.vertices()
        ],
        "rows": tuple([tuple(row) for row in table] for table in graph.rows()),
        "postings": [graph.sorted_vertices_with_label_id(i) for i in ids],
        "by_id": [(i, list(p)) for i, p in graph.postings_items_by_id()],
        "sets": [graph.vertices_with_label(label) for label in probes],
        "support": [graph.label_support(label) for label in probes],
        "distinct": (graph.distinct_labels(), graph.distinct_label_ids()),
        "histogram": graph.label_histogram(),
        "snapshot": graph.postings_snapshot(),
    }


def apply_write(graph: Graph, write):
    kind, *args = write
    n = graph.num_vertices
    if kind == "vertex":
        return graph.add_vertex(args[0])
    if kind == "edge":
        return graph.add_edge(args[0] % n, args[1] % n)
    if kind == "remove":
        edges = list(graph.edges())
        if edges:
            graph.remove_edge(*edges[args[0] % len(edges)])
        return len(edges)
    return graph.relabel_vertex(args[0] % n, args[1])


@st.composite
def mode_graphs(draw) -> Graph:
    n = draw(st.integers(min_value=1, max_value=8))
    g = Graph(LabelTable(MODE_LABELS))
    for label in draw(st.lists(st.sampled_from(MODE_LABELS), min_size=n, max_size=n)):
        g.add_vertex(label)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        g.add_edge(u, v)
    return g


class TestStorageModes:
    @settings(max_examples=60, deadline=None)
    @given(mode_graphs(), st.lists(writes, max_size=10), st.booleans())
    def test_every_mode_answers_every_read_alike(
        self, frozen_twin, g, ops, parents_read_first
    ):
        """A heap graph, its frozen twin and a copy-on-write clone of each
        read identically after every write of a random sequence, and the
        clones' writes never show through their parents."""
        parents = (g, frozen_twin(g))
        if parents_read_first:  # the clones then share built postings maps
            before = [every_read(parent) for parent in parents]
        written = [
            g.copy(),
            frozen_twin(g),
            *(parent.cow_clone() for parent in parents),
        ]
        assert written[1].is_mmap_backed and written[3].is_mmap_backed
        if not parents_read_first:
            before = [every_read(parent) for parent in parents]
        expected = every_read(g)
        assert all(every_read(graph) == expected for graph in written)
        for write in ops:
            results = [apply_write(graph, write) for graph in written]
            assert results == [results[0]] * 4
            expected = every_read(written[0])
            for graph in written[1:]:
                assert every_read(graph) == expected
        assert [every_read(parent) for parent in parents] == before
        assert parents[1].is_mmap_backed

    def test_a_detached_twin_appends_to_postings_it_never_queried(
        self, frozen_twin
    ):
        """``label_histogram`` reads the loaded slices without turning
        them into tuples; the write after it detaches, and its postings
        follow."""
        g = Graph()
        for label in "ABA":
            g.add_vertex(label)
        frozen = frozen_twin(g)
        assert frozen.label_histogram() == {"A": 2, "B": 1}
        v = frozen.add_vertex("A")
        assert not frozen.is_mmap_backed
        assert frozen.sorted_vertices_with_label("A") == (0, 2, v)
        assert frozen.label_histogram() == {"A": 3, "B": 1}
