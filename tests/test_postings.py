"""Per-graph keyword postings: lazy build, invalidation, persistence."""

import os

import pytest

from repro.core.binfmt import SectionFile
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.persistence import BINARY_NAME, load_index, save_index
from repro.graph.digraph import Graph
from repro.obs.runtime import instrumented
from repro.utils.errors import IndexCorruptedError

EXACT = CostParams(exact=True)


def _tiny_graph() -> Graph:
    g = Graph()
    a = g.add_vertex("A")
    b = g.add_vertex("B")
    a2 = g.add_vertex("A")
    g.add_edge(a, b)
    g.add_edge(b, a2)
    return g


class TestLazyBuild:
    def test_first_lookup_builds_and_caches(self):
        g = _tiny_graph()
        with instrumented(trace=False) as inst:
            first = g.sorted_vertices_with_label("A")
            second = g.sorted_vertices_with_label("A")
        assert first == (0, 2)
        assert second is first  # served from the posting cache
        assert inst.metrics.counters()["postings.build"] == 1

    def test_unknown_label_is_empty_without_build(self):
        g = _tiny_graph()
        with instrumented(trace=False) as inst:
            assert g.sorted_vertices_with_label("nope") == ()
        assert "postings.build" not in inst.metrics.counters()

    def test_drop_caches_forces_rebuild(self):
        g = _tiny_graph()
        g.sorted_vertices_with_label("A")
        g.drop_caches()
        with instrumented(trace=False) as inst:
            assert g.sorted_vertices_with_label("A") == (0, 2)
        assert inst.metrics.counters()["postings.build"] == 1


class TestMutationInvalidation:
    """Every mutator bumps the epoch and keeps postings correct."""

    def test_add_vertex(self):
        g = _tiny_graph()
        g.sorted_vertices_with_label("A")
        before = g.mutation_epoch
        v = g.add_vertex("A")
        assert g.mutation_epoch == before + 1
        assert g.sorted_vertices_with_label("A") == (0, 2, v)

    def test_add_vertex_with_label_id(self):
        g = _tiny_graph()
        label_id = g.label_table.get_id("B")
        g.sorted_vertices_with_label("B")
        before = g.mutation_epoch
        v = g.add_vertex_with_label_id(label_id)
        assert g.mutation_epoch == before + 1
        assert g.sorted_vertices_with_label("B") == (1, v)

    def test_add_edge(self):
        g = _tiny_graph()
        before = g.mutation_epoch
        assert g.add_edge(0, 2)
        assert g.mutation_epoch == before + 1

    def test_add_existing_edge_is_not_a_mutation(self):
        g = _tiny_graph()
        before = g.mutation_epoch
        assert not g.add_edge(0, 1)
        assert g.mutation_epoch == before

    def test_remove_edge(self):
        g = _tiny_graph()
        before = g.mutation_epoch
        g.remove_edge(0, 1)
        assert g.mutation_epoch == before + 1

    def test_relabel_vertex_by_id(self):
        g = _tiny_graph()
        g.sorted_vertices_with_label("A")
        g.sorted_vertices_with_label("B")
        b_id = g.label_table.get_id("B")
        before = g.mutation_epoch
        g.relabel_vertex_by_id(0, b_id)
        assert g.mutation_epoch == before + 1
        assert g.sorted_vertices_with_label("A") == (2,)
        assert g.sorted_vertices_with_label("B") == (0, 1)

    def test_relabel_to_same_label_is_not_a_mutation(self):
        g = _tiny_graph()
        a_id = g.label_table.get_id("A")
        before = g.mutation_epoch
        g.relabel_vertex_by_id(0, a_id)
        assert g.mutation_epoch == before


@pytest.fixture
def saved(fig1_graph, fig2_ontology, tmp_path):
    index = BiGIndex.build(
        fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
    )
    directory = str(tmp_path / "idx")
    save_index(index, directory)
    return directory


class TestSnapshotPreload:
    """``postings_snapshot`` and its round trip through a saved index,
    whose container hands every posting list to the loaded graph."""

    def test_snapshot_roundtrip(self, saved, fig1_graph, fig2_ontology):
        assert _tiny_graph().postings_snapshot() == {"A": [0, 2], "B": [1]}
        # The container's posting sections are served as-is (never
        # re-derived on load), so they must equal the label index.
        loaded = load_index(saved, fig2_ontology)
        snapshot = loaded.base_graph.postings_snapshot()
        assert snapshot == fig1_graph.postings_snapshot()
        assert sorted(v for ids in snapshot.values() for v in ids) == list(
            fig1_graph.vertices()
        )


class TestPersistedPostings:
    def test_load_is_warm(self, saved, fig2_ontology):
        loaded = load_index(saved, fig2_ontology)
        label = loaded.base_graph.label(0)
        with instrumented(trace=False) as inst:
            posting = loaded.base_graph.sorted_vertices_with_label(label)
        assert 0 in posting
        assert "postings.build" not in inst.metrics.counters()

    def test_tampered_postings_rejected(self, saved, fig2_ontology):
        # Posting lists are trusted as loaded, so the manifest's
        # per-section checksum is what stands between a flipped bit and
        # silently wrong keyword seeding.
        path = os.path.join(saved, BINARY_NAME)
        container = SectionFile(path)
        offset = container.sections["base.post_ids"]["offset"]
        container.close()
        with open(path, "r+b") as f:
            f.seek(offset)
            byte = f.read(1)[0]
            f.seek(offset)
            f.write(bytes([byte ^ 0x01]))
        with pytest.raises(IndexCorruptedError, match="base.post_ids"):
            load_index(saved, fig2_ontology)
