"""Unit tests for graph serialization."""

import pytest

from repro.graph.digraph import Graph
from repro.graph.io import load_graph_tsv, save_graph_tsv
from repro.utils.errors import GraphError


def build_sample() -> Graph:
    g = Graph()
    a = g.add_vertex("Person", name="P. Graham")
    b = g.add_vertex("Univ.")
    c = g.add_vertex("State")
    g.add_edge(a, b)
    g.add_edge(b, c)
    return g


class TestRoundtrip:
    def test_save_and_load_preserve_structure(self, tmp_path):
        g = build_sample()
        prefix = str(tmp_path / "sample")
        save_graph_tsv(g, prefix)
        loaded, id_map = load_graph_tsv(prefix)
        assert loaded.num_vertices == g.num_vertices
        assert loaded.num_edges == g.num_edges
        for v in g.vertices():
            assert loaded.label(id_map[v]) == g.label(v)

    def test_names_roundtrip(self, tmp_path):
        g = build_sample()
        prefix = str(tmp_path / "sample")
        save_graph_tsv(g, prefix)
        loaded, id_map = load_graph_tsv(prefix)
        assert loaded.name(id_map[0]) == "P. Graham"

    def test_edges_roundtrip(self, tmp_path):
        g = build_sample()
        prefix = str(tmp_path / "sample")
        save_graph_tsv(g, prefix)
        loaded, id_map = load_graph_tsv(prefix)
        assert loaded.has_edge(id_map[0], id_map[1])
        assert not loaded.has_edge(id_map[1], id_map[0])


class TestLoadErrors:
    def test_missing_files_raise(self, tmp_path):
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "nope"))

    def test_missing_edges_file_raises(self, tmp_path):
        (tmp_path / "half.nodes").write_text("0\tA\n")
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "half"))

    def test_malformed_node_line_raises(self, tmp_path):
        (tmp_path / "bad.nodes").write_text("justonefield\n")
        (tmp_path / "bad.edges").write_text("")
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "bad"))

    def test_non_integer_vertex_id_raises(self, tmp_path):
        (tmp_path / "bad.nodes").write_text("x\tA\n")
        (tmp_path / "bad.edges").write_text("")
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "bad"))

    def test_duplicate_id_raises(self, tmp_path):
        (tmp_path / "bad.nodes").write_text("0\tA\n0\tB\n")
        (tmp_path / "bad.edges").write_text("")
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "bad"))

    def test_edge_referencing_unknown_vertex_raises(self, tmp_path):
        (tmp_path / "bad.nodes").write_text("0\tA\n")
        (tmp_path / "bad.edges").write_text("0\t9\n")
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "bad"))

    def test_malformed_edge_line_raises(self, tmp_path):
        (tmp_path / "bad.nodes").write_text("0\tA\n1\tB\n")
        (tmp_path / "bad.edges").write_text("0\n")
        with pytest.raises(GraphError):
            load_graph_tsv(str(tmp_path / "bad"))

    def test_sparse_file_ids_are_compacted(self, tmp_path):
        (tmp_path / "sparse.nodes").write_text("10\tA\n20\tB\n")
        (tmp_path / "sparse.edges").write_text("10\t20\n")
        loaded, id_map = load_graph_tsv(str(tmp_path / "sparse"))
        assert loaded.num_vertices == 2
        assert loaded.has_edge(id_map[10], id_map[20])

    def test_blank_lines_are_skipped(self, tmp_path):
        (tmp_path / "s.nodes").write_text("0\tA\n\n1\tB\n")
        (tmp_path / "s.edges").write_text("\n0\t1\n")
        loaded, _ = load_graph_tsv(str(tmp_path / "s"))
        assert loaded.num_vertices == 2
        assert loaded.num_edges == 1
