"""Tests for saving/loading built indexes."""

import json
import os
import struct

import pytest

from repro.core import persistence
from repro.core.binfmt import SectionFile, SectionWriter
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.persistence import (
    BINARY_NAME,
    load_index,
    save_index,
    write_manifest,
)
from repro.core.plugins import boost_bkws
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.utils.errors import (
    BigIndexError,
    IndexCorruptedError,
    IndexPersistenceError,
    IndexVersionError,
)

EXACT = CostParams(exact=True)


@pytest.fixture
def built(fig1_graph, fig2_ontology):
    return BiGIndex.build(
        fig1_graph, fig2_ontology, num_layers=2, cost_params=EXACT
    )


@pytest.fixture
def saved(built, tmp_path):
    directory = str(tmp_path / "idx")
    save_index(built, directory)
    return directory


def _set_meta(directory, **fields):
    meta_path = os.path.join(directory, "meta.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta.update(fields)
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2)


def _poke_parent(directory, value):
    """Overwrite layer 1's first parent pointer inside the container."""
    path = os.path.join(directory, BINARY_NAME)
    container = SectionFile(path)
    offset = container.sections["layer1.parent_of"]["offset"]
    container.close()
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(struct.pack("<i", value))


class TestRoundtrip:
    def test_structure_survives(self, built, fig2_ontology, tmp_path):
        directory = str(tmp_path / "idx")
        save_index(built, directory)
        loaded = load_index(directory, fig2_ontology)
        assert loaded.num_layers == built.num_layers
        assert loaded.layer_sizes() == built.layer_sizes()
        for original, restored in zip(built.layers, loaded.layers):
            assert restored.config == original.config
            assert list(restored.parent_of) == list(original.parent_of)
            assert restored.extent == original.extent

    def test_labels_survive(self, built, fig2_ontology, tmp_path):
        directory = str(tmp_path / "idx")
        save_index(built, directory)
        loaded = load_index(directory, fig2_ontology)
        for m in range(0, built.num_layers + 1):
            a, b = built.layer_graph(m), loaded.layer_graph(m)
            assert [a.label(v) for v in a.vertices()] == [
                b.label(v) for v in b.vertices()
            ]

    def test_queries_identical_after_reload(
        self, built, fig1_graph, fig2_ontology, tmp_path
    ):
        directory = str(tmp_path / "idx")
        save_index(built, directory)
        loaded = load_index(directory, fig2_ontology)
        query = KeywordQuery(["Ivy League", "Massachusetts"])
        before = {
            (a.root, a.score)
            for a in boost_bkws(built, d_max=3, k=None).search(query, layer=1)
        }
        after = {
            (a.root, a.score)
            for a in boost_bkws(loaded, d_max=3, k=None).search(query, layer=1)
        }
        assert before == after

    def test_save_creates_expected_files(self, built, tmp_path):
        # The default format (v4) packs hot payloads into one container.
        directory = str(tmp_path / "idx")
        save_index(built, directory)
        names = set(os.listdir(directory))
        assert "meta.json" in names
        assert "manifest.json" in names
        assert "index.v4.bin" in names
        assert "layer1.config.json" in names
        assert "base.nodes" not in names


class TestLoadErrors:
    def test_missing_directory(self, fig2_ontology, tmp_path):
        with pytest.raises(BigIndexError):
            load_index(str(tmp_path / "nope"), fig2_ontology)

    def test_bad_version(self, saved, fig2_ontology):
        _set_meta(saved, version=99)
        with pytest.raises(BigIndexError):
            load_index(saved, fig2_ontology)

    @pytest.mark.parametrize("version", [2, 3])
    def test_retired_version_asks_for_a_rebuild(
        self, saved, fig2_ontology, version
    ):
        # The TSV/JSON layouts are no longer read; no converter is kept.
        _set_meta(saved, version=version)
        with pytest.raises(IndexVersionError, match="rebuild") as excinfo:
            load_index(saved, fig2_ontology)
        assert f"version: {version}" in str(excinfo.value)

    def test_successor_direction_key_still_loads(
        self, built, saved, fig2_ontology
    ):
        # Older v4 directories record the bisimulation rule; successor
        # matching is the one this build computes, so they load as is.
        _set_meta(saved, direction="successors")
        write_manifest(saved)
        loaded = load_index(saved, fig2_ontology)
        assert loaded.state_digest() == built.state_digest()

    def test_other_direction_asks_for_a_rebuild(self, saved, fig2_ontology):
        _set_meta(saved, direction="both")
        with pytest.raises(IndexVersionError, match="rebuild") as excinfo:
            load_index(saved, fig2_ontology)
        assert "'both'" in str(excinfo.value)

    def test_truncated_parent_map(self, saved, fig2_ontology):
        # Rewrite the container with layer 1's parent map cut short and
        # re-bless it: the loader's own cross-check must object.
        path = os.path.join(saved, BINARY_NAME)
        container = SectionFile(path)
        writer = SectionWriter(path + ".new")
        for name, entry in container.sections.items():
            if entry["kind"] == "json":
                writer.add_json(name, container.json(name))
            elif name == "layer1.parent_of":
                writer.add_ints(name, list(container.ints(name))[:1])
            else:
                writer.add_ints(name, container.ints(name))
        writer.close()
        container.close()
        os.replace(path + ".new", path)
        write_manifest(saved)
        with pytest.raises(IndexCorruptedError, match="parent map covers"):
            load_index(saved, fig2_ontology)

    def test_out_of_range_parent(self, saved, fig2_ontology):
        _poke_parent(saved, 999999)
        with pytest.raises(BigIndexError):
            load_index(saved, fig2_ontology)


class TestIntegrity:
    """Corruption classification: every failure mode gets the right class."""

    def test_manifest_written_and_covers_every_file(self, saved):
        with open(os.path.join(saved, "manifest.json")) as f:
            manifest = json.load(f)
        # The container is blessed per section under "binary" instead.
        names = {
            name
            for name in os.listdir(saved)
            if name not in ("manifest.json", BINARY_NAME)
        }
        assert set(manifest["files"]) == names
        assert set(manifest["binary"]) == {BINARY_NAME}
        assert manifest["algorithm"] == "sha256"

    def test_truncated_meta_is_corruption(self, saved, fig2_ontology):
        path = os.path.join(saved, "meta.json")
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) // 2)
        with pytest.raises(IndexCorruptedError):
            load_index(saved, fig2_ontology)

    def test_missing_layer_file_is_corruption(self, saved, fig2_ontology):
        os.remove(os.path.join(saved, BINARY_NAME))
        with pytest.raises(IndexCorruptedError, match="missing"):
            load_index(saved, fig2_ontology)

    def test_checksum_mismatch_is_corruption(self, saved, fig2_ontology):
        path = os.path.join(saved, "layer1.config.json")
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n")
        with pytest.raises(IndexCorruptedError, match="checksum mismatch"):
            load_index(saved, fig2_ontology)

    def test_bad_version_wins_over_checksums(self, saved, fig2_ontology):
        # Editing meta.json also breaks its checksum; the version error
        # must still be the one reported.
        _set_meta(saved, version=99)
        with pytest.raises(IndexVersionError):
            load_index(saved, fig2_ontology)

    def test_out_of_range_parent_reblessed(self, saved, fig2_ontology):
        _poke_parent(saved, -1)
        write_manifest(saved)  # checksum gate passes; validation must catch
        with pytest.raises(IndexCorruptedError, match="unknown supernode -1"):
            load_index(saved, fig2_ontology)

    def test_rebless_permits_deliberate_edits(self, saved, fig2_ontology):
        # A harmless edit plus write_manifest must load again.
        path = os.path.join(saved, "layer1.config.json")
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n")  # trailing whitespace is still valid JSON
        write_manifest(saved)
        load_index(saved, fig2_ontology)

    def test_error_hierarchy(self):
        assert issubclass(IndexCorruptedError, IndexPersistenceError)
        assert issubclass(IndexVersionError, IndexPersistenceError)
        assert issubclass(IndexPersistenceError, BigIndexError)


class TestAtomicity:
    def test_failed_save_preserves_previous_index(
        self, built, fig2_ontology, tmp_path, monkeypatch
    ):
        directory = str(tmp_path / "idx")
        save_index(built, directory)

        def explode(index, staging):
            with open(os.path.join(staging, "meta.json"), "w") as f:
                f.write("{")  # a torn write, then the crash
            raise OSError("disk full")

        monkeypatch.setattr(persistence, "_write_index_files", explode)
        with pytest.raises(OSError):
            save_index(built, directory)
        monkeypatch.undo()
        # The original is untouched and still verifiable.
        loaded = load_index(directory, fig2_ontology)
        assert loaded.num_layers == built.num_layers
        # No staging residue is left next to it.
        residue = [
            name for name in os.listdir(str(tmp_path)) if ".tmp-" in name
        ]
        assert residue == []

    def test_resave_replaces_atomically(self, built, fig2_ontology, tmp_path):
        directory = str(tmp_path / "idx")
        save_index(built, directory)
        save_index(built, directory)  # overwrite in place
        loaded = load_index(directory, fig2_ontology)
        assert loaded.num_layers == built.num_layers
        assert not os.path.exists(directory + ".stale")
