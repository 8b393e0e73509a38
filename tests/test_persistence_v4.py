"""The v4 mmap container: round trips, corruption taxonomy, and
mutate-after-mmap detach semantics."""

import json
import os
import random
import shutil
import struct

import pytest

from repro.core.binfmt import SectionFile
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.persistence import (
    BINARY_NAME,
    load_index,
    save_index,
    write_manifest,
)
from repro.core.plugins import boost_bkws
from repro.obs.runtime import instrumented
from repro.search.base import KeywordQuery
from repro.utils.errors import IndexCorruptedError

EXACT = CostParams(exact=True)
QUERY = KeywordQuery(["Ivy League", "Massachusetts"])


def _answers(index):
    return {
        (a.root, a.score)
        for a in boost_bkws(index, d_max=3, k=None).search(QUERY, layer=1)
    }


def _absent_edge(graph, rng=None):
    """The first absent edge, or a random one when ``rng`` is given."""
    candidates = (
        (u, v)
        for u in graph.vertices()
        for v in graph.vertices()
        if u != v and not graph.has_edge(u, v)
    )
    if rng is not None:
        return rng.choice(list(candidates))
    for edge in candidates:
        return edge
    raise AssertionError("graph is complete")


@pytest.fixture
def built(fig1_graph, fig2_ontology):
    return BiGIndex.build(
        fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
    )


@pytest.fixture
def saved(built, tmp_path):
    directory = str(tmp_path / "idx")
    save_index(built, directory)  # v4 is the default format
    return directory


class TestRoundtrip:
    def test_digest_and_answers_survive(self, built, saved, fig2_ontology):
        loaded = load_index(saved, fig2_ontology)
        assert loaded.state_digest() == built.state_digest()
        assert _answers(loaded) == _answers(built)

    def test_loaded_graphs_are_mmap_backed(self, built, saved, fig2_ontology):
        loaded = load_index(saved, fig2_ontology)
        for m in range(loaded.num_layers + 1):
            assert loaded.layer_graph(m).is_mmap_backed, f"layer {m}"
        # The heap-built original, by contrast, is not.
        assert not built.base_graph.is_mmap_backed

    def test_parent_and_extent_tables_equal(
        self, built, saved, fig2_ontology
    ):
        # The loaded parent map is its section's memoryview and each
        # ExtentTable row a slice of the children section: element for
        # element they equal the original heap lists.
        loaded = load_index(saved, fig2_ontology)
        for original, restored in zip(built.layers, loaded.layers):
            assert list(restored.parent_of) == list(original.parent_of)
            assert restored.extent == original.extent

    def test_postings_served_warm(self, saved, fig2_ontology):
        loaded = load_index(saved, fig2_ontology)
        label = loaded.base_graph.label(0)
        with instrumented(trace=False) as inst:
            posting = loaded.base_graph.sorted_vertices_with_label(label)
        assert 0 in posting
        # Zero-copy postings come straight from the container: reading
        # them is not a *build* (v4 loads start warm).
        assert "postings.build" not in inst.metrics.counters()

    def test_adjacency_matches_heap_twin(self, built, saved, fig2_ontology):
        loaded = load_index(saved, fig2_ontology)
        a, b = built.base_graph, loaded.base_graph
        assert sorted(a.edges()) == sorted(b.edges())
        for v in a.vertices():
            assert sorted(a.out_neighbors(v)) == sorted(b.out_neighbors(v))
            assert sorted(a.in_neighbors(v)) == sorted(b.in_neighbors(v))
            assert a.label(v) == b.label(v)
            assert a.name(v) == b.name(v)

    def test_resave_of_mmap_backed_index_roundtrips(
        self, built, saved, tmp_path, fig2_ontology
    ):
        # Saving a frozen (mmap-backed) index must not require detaching.
        loaded = load_index(saved, fig2_ontology)
        again = str(tmp_path / "again")
        save_index(loaded, again)
        assert loaded.base_graph.is_mmap_backed  # save didn't materialize
        assert (
            load_index(again, fig2_ontology).state_digest()
            == built.state_digest()
        )


def _fresh_copy(saved, tmp_path, tag):
    target = str(tmp_path / f"copy-{tag}")
    shutil.copytree(saved, target)
    return target


class TestCorruption:
    """Damaged containers are rejected with the section named — the
    loader must never hand back garbage integers."""

    def test_truncated_container(self, saved, tmp_path, fig2_ontology):
        target = _fresh_copy(saved, tmp_path, "trunc")
        path = os.path.join(target, BINARY_NAME)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(IndexCorruptedError):
            load_index(target, fig2_ontology)

    def test_missing_container(self, saved, tmp_path, fig2_ontology):
        target = _fresh_copy(saved, tmp_path, "missing")
        os.remove(os.path.join(target, BINARY_NAME))
        with pytest.raises(IndexCorruptedError, match="missing"):
            load_index(target, fig2_ontology)

    def test_bad_magic(self, saved, tmp_path, fig2_ontology):
        target = _fresh_copy(saved, tmp_path, "magic")
        with open(os.path.join(target, BINARY_NAME), "r+b") as f:
            f.seek(0)
            f.write(b"NOTMAGIC")
        with pytest.raises(IndexCorruptedError, match="magic"):
            load_index(target, fig2_ontology)

    def test_bit_flip_names_the_section(
        self, saved, tmp_path, fig2_ontology
    ):
        # Flip one byte inside each of several representative sections;
        # the error must name exactly that section.
        container = SectionFile(os.path.join(saved, BINARY_NAME))
        entries = {
            name: (entry["offset"], entry["length"])
            for name, entry in container.sections.items()
        }
        container.close()
        for section in (
            "base.out_targets",
            "base.post_ids",
            "layer1.parent_of",
            "layer2.extent_children",
        ):
            assert section in entries, section
            offset, length = entries[section]
            assert length > 0, section
            target = _fresh_copy(saved, tmp_path, section)
            with open(os.path.join(target, BINARY_NAME), "r+b") as f:
                f.seek(offset + length // 2)
                byte = f.read(1)[0]
                f.seek(offset + length // 2)
                f.write(bytes([byte ^ 0x01]))
            with pytest.raises(
                IndexCorruptedError, match="checksum mismatch"
            ) as excinfo:
                load_index(target, fig2_ontology)
            assert repr(section) in str(excinfo.value)

    def test_flip_outside_sections_is_caught(
        self, saved, tmp_path, fig2_ontology
    ):
        # Padding between 8-aligned sections is covered by the whole-file
        # digest even though no per-section hash sees it.
        container = SectionFile(os.path.join(saved, BINARY_NAME))
        padding_at = None
        for entry in container.sections.values():
            end = entry["offset"] + entry["length"]
            if end % 8:
                padding_at = end
                break
        container.close()
        assert padding_at is not None, "no unaligned section end found"
        target = _fresh_copy(saved, tmp_path, "padding")
        with open(os.path.join(target, BINARY_NAME), "r+b") as f:
            f.seek(padding_at)
            byte = f.read(1)[0]
            f.seek(padding_at)
            f.write(bytes([byte ^ 0xFF]))
        with pytest.raises(
            IndexCorruptedError, match="outside the blessed sections"
        ):
            load_index(target, fig2_ontology)

    def test_reblessed_range_damage_is_semantic_error(
        self, saved, tmp_path, fig2_ontology
    ):
        # Overwrite a parent pointer with an out-of-range supernode and
        # re-bless the manifest: checksums pass, validation must catch.
        target = _fresh_copy(saved, tmp_path, "rebless")
        path = os.path.join(target, BINARY_NAME)
        container = SectionFile(path)
        offset = container.sections["layer1.parent_of"]["offset"]
        container.close()
        with open(path, "r+b") as f:
            f.seek(offset)
            f.write(struct.pack("<i", 999999))
        write_manifest(target)
        with pytest.raises(IndexCorruptedError, match="unknown supernode"):
            load_index(target, fig2_ontology)

    def test_manifest_blesses_binary_sections(self, saved):
        with open(os.path.join(saved, "manifest.json")) as f:
            manifest = json.load(f)
        assert BINARY_NAME not in manifest["files"]
        binary = manifest["binary"][BINARY_NAME]
        assert "file_sha256" in binary and "toc_sha256" in binary
        container = SectionFile(os.path.join(saved, BINARY_NAME))
        try:
            assert set(binary["sections"]) == set(container.sections)
        finally:
            container.close()


class TestDetach:
    """Mutating an mmap-backed index detaches it — exactly once, onto a
    heap state identical to the frozen one."""

    def test_mutation_materializes_and_matches_heap_twin(
        self, built, saved, fig2_ontology
    ):
        """Eight writes on the reload and on a heap clone: the touched
        layers detach on first use, and both numberings stay in step."""
        loaded = load_index(saved, fig2_ontology)
        twin = built.cow_clone()
        rng = random.Random(8)
        with instrumented(trace=False) as inst:
            for _ in range(8):
                graph = twin.base_graph
                if rng.random() < 0.5:
                    op = ("insert", *_absent_edge(graph, rng))
                else:
                    op = ("delete", *rng.choice(sorted(graph.edges())))
                for side in (loaded, twin):
                    getattr(side, f"{op[0]}_edge")(*op[1:])
        assert not loaded.base_graph.is_mmap_backed
        assert inst.metrics.counters().get("persist.mmap.detaches", 0) >= 1
        assert loaded.state_digest() == twin.state_digest()
        assert _answers(loaded) == _answers(twin)

    def test_cow_clone_detach_leaves_original_frozen(
        self, built, saved, fig2_ontology
    ):
        loaded = load_index(saved, fig2_ontology)
        clone = loaded.cow_clone()
        clone.insert_edge(*_absent_edge(loaded.base_graph))
        # The clone materialized; the mmap-backed original did not move.
        assert loaded.base_graph.is_mmap_backed
        assert loaded.state_digest() == built.state_digest()
        assert clone.state_digest() != built.state_digest()

    def test_original_files_still_load_after_detach(
        self, saved, built, fig2_ontology
    ):
        loaded = load_index(saved, fig2_ontology)
        loaded.insert_edge(*_absent_edge(loaded.base_graph))
        fresh = load_index(saved, fig2_ontology)
        assert fresh.state_digest() == built.state_digest()
