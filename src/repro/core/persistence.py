"""Saving and loading a built BiG-index, crash-safely.

The paper treats index construction as an offline step ("BiG-index takes
20 minutes ... to construct the indexes for YAGO3") whose product is
loaded at query time ("BiG-index loads the m-th layer from the disk",
Sec. 5.1).  This module provides that persistence: a built
:class:`~repro.core.index.BiGIndex` round-trips through a directory, so
construction cost is paid once per dataset.

One format is read and written — **v4**, where one binary container
holds every hot payload::

    meta.json                 {"num_layers": h, "version": 4}
    manifest.json             {"algorithm": "sha256", "files": ..., "binary": ...}
    index.v4.bin              sectioned zero-copy container (repro.core.binfmt)
    layer<i>.config.json      the configuration C^i (small, human-auditable)

The container packs CSR adjacency, per-label keyword postings,
``parent_of`` vectors and Bisim⁻¹ extent tables as little-endian i32
sections.  Loading is ``mmap`` + ``memoryview.cast``: no per-element
parsing, cold starts cost page-table setup instead of a JSON walk, and
layers larger than RAM page in on demand.  Loaded graphs serve reads
zero-copy and detach to heap structures on their first mutation
(:meth:`repro.graph.digraph.Graph._materialize`), so WAL replay and
the serve runtime's copy-on-write snapshots work unchanged.

A *sharded* index (:mod:`repro.core.sharding`) is a root directory of
such directories, one per locale, under a root ``meta.json`` (``"kind":
"sharded"``), ``shards.json`` and a ``manifest.json`` of the same shape
whose ``files`` pin each locale's own manifest.  :func:`load_index`
recognises the root and verifies it through the same code path.

The retired TSV/JSON layouts (versions 2 and 3) are rejected with a
pointer to ``repro-bigindex build``: every index is a pure function of
its dataset, so rebuilding replaces up-conversion.

Crash safety and integrity
--------------------------
:func:`save_index` never writes into the destination directly.  It stages
every file in a fresh temporary sibling directory, fsyncs them, writes a
``manifest.json`` with a SHA-256 checksum per file, and only then swaps
the staged directory into place with atomic renames (any previous index
briefly becomes ``<directory>.stale`` and is removed after the swap).  A
crash at any point leaves either the old index or the new one — never a
torn mix.

The v4 container is blessed at *section* granularity: the manifest's
``"binary"`` block records the SHA-256 of the section table and of every
section's bytes, plus a whole-file hash that also covers the header and
alignment padding.  Verification therefore reports corruption by section
name ("checksum mismatch for index.v4.bin section 'layer2.parent_of'")
instead of an opaque file-level mismatch.

:func:`load_index` verifies the manifest before trusting any file and
classifies failures:

* :class:`~repro.utils.errors.IndexVersionError` — the on-disk format
  version is not one this code reads (checked *before* checksums, so a
  foreign version is reported as such rather than as corruption);
* :class:`~repro.utils.errors.IndexCorruptedError` — missing files,
  checksum mismatches, or structurally invalid contents.

Both derive from :class:`~repro.utils.errors.IndexPersistenceError` (and
transitively ``BigIndexError``).  A corrupted directory never loads as a
silently wrong index.  Operators who edit index files deliberately can
re-bless the directory with :func:`write_manifest`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from array import array
from contextlib import contextmanager
from typing import Any, Dict, Iterator, NoReturn

from repro.core.binfmt import (
    ExtentTable,
    SectionFile,
    SectionWriter,
)
from repro.core.config import Configuration
from repro.core.index import BiGIndex, Layer
from repro.graph.digraph import FrozenAdjacency, Graph, LabelTable, _pack_csr
from repro.obs.runtime import OBS
from repro.ontology.ontology import OntologyGraph
from repro.utils.errors import (
    BigIndexError,
    IndexCorruptedError,
    IndexVersionError,
)

#: The one on-disk format version read and written (``meta.json``'s
#: ``version``): the mmap-backed binary container.
FORMAT_VERSION = 4

#: ``meta.json``'s ``kind`` marker distinguishing a sharded root from an
#: ordinary index directory, and the layout version stored beside it as
#: ``sharded_version`` (2: the root manifest took the monolithic shape;
#: 3: ``shards.json`` stores no vertex count; the ``names`` and
#: ``build_kwargs`` keys early version-3 roots carry are ignored).
SHARDED_KIND = "sharded"
SHARDED_FORMAT_VERSION = 3

#: Name of the checksum manifest inside an index directory.
MANIFEST_NAME = "manifest.json"

#: Name of the v4 binary container inside an index directory.
BINARY_NAME = "index.v4.bin"

#: Name of the mutation log (:mod:`repro.core.wal`) inside an index
#: directory; loading imports the WAL module only when this file exists.
WAL_NAME = "mutations.wal"


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------
def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: str, payload: Any, **dump_kwargs: Any) -> None:
    """``json.dump`` to ``path``, fsynced before returning."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, **dump_kwargs)
        f.flush()
        os.fsync(f.fileno())


def compute_manifest(directory: str) -> Dict[str, str]:
    """Checksum every regular file in ``directory`` except the manifest.

    Returns ``{filename: sha256-hex}`` sorted by name.  A subdirectory
    contributes only its own ``<name>/manifest.json`` — that is how a
    sharded root pins its locales, whose files their own manifests
    cover.  The v4 container is excluded here — it is blessed per
    *section* under the manifest's ``"binary"`` key so corruption can be
    reported by section name.
    """
    checksums: Dict[str, str] = {}
    for name in sorted(os.listdir(directory)):
        if name in (MANIFEST_NAME, WAL_NAME, BINARY_NAME):
            # The mutation WAL changes after every acked mutation and is
            # self-checksummed per record; blessing it in the manifest
            # would fail verification after the first append.  The binary
            # container gets its own section-granular manifest block.
            continue
        path = os.path.join(directory, name)
        if os.path.isdir(path):
            name = f"{name}/{MANIFEST_NAME}"
            path = os.path.join(path, MANIFEST_NAME)
        if os.path.isfile(path):
            checksums[name] = _sha256_file(path)
    return checksums


def _binary_manifest(path: str) -> Dict[str, Any]:
    """Section-granular checksums for one v4 container file."""
    container = SectionFile(path)
    try:
        sections = container.section_digests()
        toc_sha = container.toc_sha256
    finally:
        container.close()
    return {
        "file_sha256": _sha256_file(path),
        "toc_sha256": toc_sha,
        "sections": sections,
    }


def write_manifest(directory: str) -> str:
    """(Re-)write ``manifest.json`` for ``directory``; returns its path.

    Used by :func:`save_index` while staging, and available to operators
    (and the fault-injection tests) to re-bless an index whose files were
    edited deliberately.  A present ``index.v4.bin`` is blessed section
    by section under the ``"binary"`` key.
    """
    manifest: Dict[str, Any] = {
        "algorithm": "sha256",
        "files": compute_manifest(directory),
    }
    binary_path = os.path.join(directory, BINARY_NAME)
    if os.path.isfile(binary_path):
        manifest["binary"] = {BINARY_NAME: _binary_manifest(binary_path)}
    path = os.path.join(directory, MANIFEST_NAME)
    write_json(path, manifest, indent=2, sort_keys=True)
    return path


def _verify_manifest(directory: str) -> None:
    """Check every manifest entry; raise :class:`IndexCorruptedError`."""
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise IndexCorruptedError(
            f"index manifest missing: {manifest_path} (index was not "
            "written by save_index, or the write was interrupted)"
        )
    try:
        with open(manifest_path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
        files = manifest["files"]
        algorithm = manifest.get("algorithm", "sha256")
        binary = manifest.get("binary", {})
        if not isinstance(binary, dict):
            raise TypeError("'binary' is not an object")
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise IndexCorruptedError(
            f"unreadable index manifest {manifest_path}: {exc}"
        ) from exc
    if algorithm != "sha256":
        raise IndexCorruptedError(
            f"unsupported manifest checksum algorithm: {algorithm!r}"
        )
    for name, expected in sorted(files.items()):
        path = os.path.join(directory, name)
        if not os.path.exists(path):
            raise IndexCorruptedError(f"index file missing: {path}")
        actual = _sha256_file(path)
        if actual != expected:
            raise IndexCorruptedError(
                f"checksum mismatch for {path}: manifest says "
                f"{expected[:12]}..., file hashes to {actual[:12]}... "
                "(truncated or tampered; re-bless with write_manifest "
                "if the edit was deliberate)"
            )
    for name, entry in sorted(binary.items()):
        _verify_binary(directory, name, entry, manifest_path)


def _verify_binary(
    directory: str, name: str, entry: Any, manifest_path: str
) -> None:
    """Verify one blessed v4 container, naming the damaged section."""
    if not isinstance(entry, dict) or not isinstance(
        entry.get("sections"), dict
    ):
        raise IndexCorruptedError(
            f"unreadable index manifest {manifest_path}: invalid binary "
            f"entry for {name!r}"
        )
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        raise IndexCorruptedError(f"index file missing: {path}")
    # Opening parses header + section table; structural damage (bad
    # magic, out-of-bounds toc, truncated sections) raises with its own
    # precise message.
    container = SectionFile(path)
    try:
        expected_sections: Dict[str, str] = entry["sections"]
        if container.toc_sha256 != entry.get("toc_sha256"):
            raise IndexCorruptedError(
                f"checksum mismatch for {path} section table (torn write "
                "or tampered; re-bless with write_manifest if the edit "
                "was deliberate)"
            )
        actual_sections = container.section_digests()
        for section in sorted(expected_sections):
            if section not in actual_sections:
                raise IndexCorruptedError(
                    f"{path}: section {section!r} missing from container"
                )
            if actual_sections[section] != expected_sections[section]:
                raise IndexCorruptedError(
                    f"checksum mismatch for {path} section {section!r}: "
                    f"manifest says {expected_sections[section][:12]}..., "
                    f"section hashes to {actual_sections[section][:12]}... "
                    "(truncated or tampered; re-bless with write_manifest "
                    "if the edit was deliberate)"
                )
        extra = sorted(set(actual_sections) - set(expected_sections))
        if extra:
            raise IndexCorruptedError(
                f"{path}: sections {extra} not blessed by the manifest"
            )
    finally:
        container.close()
    # Whole-file hash last: catches damage outside any section (header
    # bytes, alignment padding) that the per-section pass cannot see.
    actual_file = _sha256_file(path)
    if actual_file != entry.get("file_sha256"):
        raise IndexCorruptedError(
            f"checksum mismatch for {path}: bytes outside the blessed "
            "sections changed (header or padding; truncated or tampered)"
        )


# ----------------------------------------------------------------------
# Save
# ----------------------------------------------------------------------
@contextmanager
def staged_directory(directory: str) -> Iterator[str]:
    """Yield a fresh staging sibling of ``directory``; swap it in on exit.

    The caller fills the staging directory (fsyncing what it writes) and
    blesses it with :func:`write_manifest`; a clean exit renames it into
    place, so a crash mid-write never leaves a torn index at
    ``directory``.  Any previous index briefly becomes
    ``<directory>.stale`` and is removed after the swap — if the swap
    itself is interrupted it survives there (see docs/ROBUSTNESS.md for
    the runbook).  On an exception the staging directory is removed and
    ``directory`` is left as it was.
    """
    directory = os.path.abspath(directory)
    parent = os.path.dirname(directory)
    os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(
        prefix=os.path.basename(directory) + ".tmp-", dir=parent
    )
    try:
        yield staging
        stale = directory + ".stale"
        if os.path.exists(directory):
            if os.path.exists(stale):
                shutil.rmtree(stale)
            os.rename(directory, stale)
        os.rename(staging, directory)
        if os.path.exists(stale):
            shutil.rmtree(stale)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise


def save_index(index: BiGIndex, directory: str) -> None:
    """Atomically write ``index`` (graphs, configs, parent maps).

    The files are staged, checksummed into ``manifest.json`` and swapped
    into place by :func:`staged_directory`.  A sharded index is written
    by :func:`repro.core.sharding.build_sharded` instead (one such
    directory per locale).
    """
    if not isinstance(index, BiGIndex):
        raise BigIndexError(
            f"save_index writes one hierarchy, not a "
            f"{type(index).__name__}; a sharded index is persisted by "
            "build_sharded(directory=...)"
        )
    with OBS.tracer.span(
        "index-save", layers=index.num_layers, format=FORMAT_VERSION
    ) as save_span, staged_directory(directory) as staging:
        _write_index_files(index, staging)
        write_manifest(staging)
        if OBS.enabled:
            names = os.listdir(staging)
            OBS.metrics.inc("persist.saves")
            OBS.metrics.inc("persist.files_written", len(names))
            OBS.metrics.inc(
                "persist.bytes_written",
                sum(
                    os.path.getsize(os.path.join(staging, name))
                    for name in names
                ),
            )
            save_span.annotate(files=len(names))


def _write_index_files(index: BiGIndex, directory: str) -> None:
    """Write the index's files (without manifest) into ``directory``."""
    meta = {"version": FORMAT_VERSION, "num_layers": index.num_layers}
    write_json(os.path.join(directory, "meta.json"), meta, indent=2)
    for i, layer in enumerate(index.layers, start=1):
        write_json(
            os.path.join(directory, f"layer{i}.config.json"),
            layer.config.mappings,
            indent=2,
            sort_keys=True,
        )
    _write_v4_container(index, os.path.join(directory, BINARY_NAME))


def _write_v4_container(index: BiGIndex, path: str) -> None:
    """Stream the index's hot payloads into one v4 binary container.

    Re-saving an mmap-loaded index stays zero-copy end to end: the CSR
    buffers, label vector and posting arrays are handed to the section
    writer as the loaded views themselves.
    """
    writer = SectionWriter(path)
    writer.add_json("labels.table", list(index.base_graph.label_table))
    _write_graph_sections(writer, "base", index.base_graph)
    for i, layer in enumerate(index.layers, start=1):
        tag = f"layer{i}"
        _write_graph_sections(writer, tag, layer.graph)
        writer.add_ints(f"{tag}.parent_of", layer.parent_of)
        offsets = array("i", [0])
        total = 0
        for members in layer.extent:
            total += len(members)
            offsets.append(total)
        writer.add_ints(f"{tag}.extent_offsets", offsets)
        writer.add_ints(
            f"{tag}.extent_children",
            (child for members in layer.extent for child in members),
        )
    writer.close()


def _write_graph_sections(
    writer: SectionWriter, tag: str, graph: Graph
) -> None:
    """Write one graph's sections (labels, CSR, postings, names).

    A heap graph's rows are packed here; an mmap-backed graph writes its
    own loaded buffers (zero-copy, and it stays mmap-backed).
    """
    writer.add_ints(f"{tag}.labels", graph.labels)
    rows = graph.rows()
    if isinstance(rows, FrozenAdjacency):
        out_csr = rows.out_offsets, rows.out_targets
        in_csr = rows.in_offsets, rows.in_targets
    else:
        out_csr, in_csr = map(_pack_csr, rows)
    writer.add_ints(f"{tag}.out_offsets", out_csr[0])
    writer.add_ints(f"{tag}.out_targets", out_csr[1])
    writer.add_ints(f"{tag}.in_offsets", in_csr[0])
    writer.add_ints(f"{tag}.in_targets", in_csr[1])
    items = graph.postings_items_by_id()
    post_labels = array("i")
    post_offsets = array("i", [0])
    total = 0
    for label_id, posting in items:
        post_labels.append(label_id)
        total += len(posting)
        post_offsets.append(total)
    writer.add_ints(f"{tag}.post_labels", post_labels)
    writer.add_ints(f"{tag}.post_offsets", post_offsets)
    writer.add_ints(
        f"{tag}.post_ids",
        (v for _label_id, posting in items for v in posting),
    )
    writer.add_json(
        f"{tag}.names",
        {str(v): name for v, name in sorted(graph.names.items())},
    )


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def load_index(
    directory: str,
    ontology: OntologyGraph,
    replay_wal_tail: bool = True,
):
    """Load an index saved by :func:`save_index`, verifying integrity.

    The one entry point for every index directory: a sharded root
    (written by :func:`repro.core.sharding.build_sharded`) is recognised
    by its ``meta.json`` and comes back as a
    :class:`~repro.core.sharding.ShardedIndex` whose locales were each
    loaded through this same function; anything else loads as a
    :class:`~repro.core.index.BiGIndex`.

    The ontology is not persisted (it is an input shared across indexes);
    pass the same one used at build time.  Configurations are *not*
    re-validated against it, so a changed ontology loads fine — matching
    the maintenance semantics of Sec. 3.2 (ontology additions never
    invalidate an index).

    The directory loads zero-copy: graphs, parent maps and extent
    tables are views over the mmapped container, and answer every read
    exactly like their heap-built twins.  The first mutation (including
    a WAL replay below) detaches the affected graph to heap structures.

    When ``replay_wal_tail`` is true (the default) and the directory
    holds a ``mutations.wal``, its valid record prefix is replayed on
    top of the persisted files — recovering every mutation acked after
    the last :func:`save_index` — and a torn tail (a crash mid-append)
    is truncated in place.  Pass ``False`` to inspect the index exactly
    as the manifest blessed it.

    Raises :class:`~repro.utils.errors.IndexVersionError` for a foreign
    format version and :class:`~repro.utils.errors.IndexCorruptedError`
    for missing/tampered/structurally-invalid files (a WAL whose magic is
    wrong raises :class:`~repro.utils.errors.WALCorruptedError`, a
    subclass of the same persistence-error root).
    """
    with OBS.tracer.span("index-load") as load_span:
        index = _load_index_impl(directory, ontology)
        replayed = 0
        if replay_wal_tail:
            wal_path = os.path.join(directory, WAL_NAME)
            if os.path.exists(wal_path):
                from repro.core.wal import recover_wal, replay_wal

                records, _tail = recover_wal(wal_path)
                replayed = len(records)
                replay_wal(index, records)
        if OBS.enabled:
            OBS.metrics.inc("persist.loads")
            load_span.annotate(layers=index.num_layers, wal_replayed=replayed)
        return index


def _load_index_impl(directory: str, ontology: OntologyGraph):
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.exists(meta_path):
        if os.path.exists(os.path.join(directory, MANIFEST_NAME)):
            # A manifest without metadata is a damaged index, not a
            # directory that never held one.
            raise IndexCorruptedError(f"index file missing: {meta_path}")
        raise BigIndexError(f"not an index directory (missing {meta_path})")
    try:
        with open(meta_path, "r", encoding="utf-8") as f:
            meta = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IndexCorruptedError(
            f"unreadable index metadata {meta_path}: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise IndexCorruptedError(
            f"index metadata {meta_path} is not a JSON object"
        )
    # Version before checksums: an index written by a different format
    # version fails its own way instead of as a checksum mismatch.
    sharded = meta.get("kind") == SHARDED_KIND
    found, expected = (
        (meta.get("sharded_version"), SHARDED_FORMAT_VERSION)
        if sharded
        else (meta.get("version"), FORMAT_VERSION)
    )
    if found != expected:
        what = "sharded layout" if sharded else "index format"
        _reject_format(f"{what} version", found, f"version {expected}")
    # Older directories record the bisimulation rule as "direction";
    # successor matching is the only one this build computes.
    direction = meta.get("direction", "successors")
    if direction != "successors":
        _reject_format(
            "bisimulation direction", direction, "successor matching only"
        )
    _verify_manifest(directory)
    if sharded:
        from repro.core.sharding import load_locales

        return load_locales(directory, ontology)
    try:
        num_layers = int(meta["num_layers"])
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexCorruptedError(
            f"invalid index metadata in {meta_path}: {exc}"
        ) from exc
    return _load_v4(directory, ontology, num_layers)


def _reject_format(what: str, found: Any, reads: str) -> NoReturn:
    """Raise the "rebuild" :class:`IndexVersionError` for a directory
    this build cannot read."""
    raise IndexVersionError(
        f"unsupported {what}: {found!r} (this build reads {reads}; no "
        "converter is kept — rebuild the index from its dataset with "
        "`repro-bigindex build`)"
    )


def _load_v4(
    directory: str, ontology: OntologyGraph, num_layers: int
) -> BiGIndex:
    """Load a v4 directory: mmap the container, wrap views, validate.

    Validation is O(n) scans over int views (range checks, offset
    monotonicity) — the expensive content integrity was already settled
    by the manifest's per-section checksums.
    """
    container = SectionFile(os.path.join(directory, BINARY_NAME))
    label_strings = container.json("labels.table")
    if not isinstance(label_strings, list) or not all(
        isinstance(label, str) for label in label_strings
    ):
        raise IndexCorruptedError(
            f"{container.path}: section 'labels.table' is not a list of "
            "label strings"
        )
    label_table = LabelTable(label_strings)
    base_graph = _graph_from_sections(container, "base", label_table)
    index = BiGIndex(base_graph, ontology)

    for i in range(1, num_layers + 1):
        tag = f"layer{i}"
        graph = _graph_from_sections(container, tag, label_table)
        config = _load_config(os.path.join(directory, f"{tag}.config.json"))
        parent_of = container.ints(f"{tag}.parent_of")
        below = index.layer_graph(i - 1)
        if len(parent_of) != below.num_vertices:
            raise IndexCorruptedError(
                f"layer {i} parent map covers {len(parent_of)} vertices, "
                f"expected {below.num_vertices}"
            )
        n_super = graph.num_vertices
        if len(parent_of):
            lowest, highest = min(parent_of), max(parent_of)
            if lowest < 0 or highest >= n_super:
                bad = lowest if lowest < 0 else highest
                raise IndexCorruptedError(
                    f"layer {i} parent map references unknown supernode "
                    f"{bad}"
                )
        ext_offsets = container.ints(f"{tag}.extent_offsets")
        ext_children = container.ints(f"{tag}.extent_children")
        if (
            len(ext_offsets) != n_super + 1
            or ext_offsets[0] != 0
            or ext_offsets[n_super] != len(ext_children)
            or len(ext_children) != below.num_vertices
        ):
            raise IndexCorruptedError(
                f"layer {i} extent table is inconsistent with "
                f"{n_super} supernodes over {below.num_vertices} children"
            )
        for s in range(n_super):
            if ext_offsets[s + 1] <= ext_offsets[s]:
                raise IndexCorruptedError(
                    f"layer {i} has an empty supernode extent"
                )
        index.layers.append(
            Layer(
                config=config,
                graph=graph,
                parent_of=parent_of,
                extent=ExtentTable(ext_offsets, ext_children),
            )
        )
    return index


def _graph_from_sections(
    container: SectionFile, tag: str, label_table: LabelTable
) -> Graph:
    """One graph as zero-copy views over the container's sections."""
    labels = container.ints(f"{tag}.labels")
    n = len(labels)
    out_offsets = container.ints(f"{tag}.out_offsets")
    out_targets = container.ints(f"{tag}.out_targets")
    in_offsets = container.ints(f"{tag}.in_offsets")
    in_targets = container.ints(f"{tag}.in_targets")
    for what, offsets, targets in (
        ("out", out_offsets, out_targets),
        ("in", in_offsets, in_targets),
    ):
        if (
            len(offsets) != n + 1
            or offsets[0] != 0
            or offsets[n] != len(targets)
        ):
            raise IndexCorruptedError(
                f"{container.path}: {tag} {what}-adjacency is inconsistent "
                f"with {n} vertices"
            )
    if len(out_targets) != len(in_targets):
        raise IndexCorruptedError(
            f"{container.path}: {tag} out/in edge counts disagree "
            f"({len(out_targets)} vs {len(in_targets)})"
        )
    if n and (min(labels) < 0 or max(labels) >= len(label_table)):
        raise IndexCorruptedError(
            f"{container.path}: {tag} labels reference an unknown label id"
        )
    post_labels = container.ints(f"{tag}.post_labels")
    post_offsets = container.ints(f"{tag}.post_offsets")
    post_ids = container.ints(f"{tag}.post_ids")
    if (
        len(post_offsets) != len(post_labels) + 1
        or post_offsets[0] != 0
        or post_offsets[len(post_labels)] != len(post_ids)
    ):
        raise IndexCorruptedError(
            f"{container.path}: {tag} posting offsets are inconsistent"
        )
    names_raw = container.json(f"{tag}.names")
    if not isinstance(names_raw, dict):
        raise IndexCorruptedError(
            f"{container.path}: section {tag + '.names'!r} is not an object"
        )
    try:
        names = {int(v): str(name) for v, name in names_raw.items()}
    except ValueError as exc:
        raise IndexCorruptedError(
            f"{container.path}: section {tag + '.names'!r} has a "
            f"non-integer vertex key: {exc}"
        ) from exc
    frozen = FrozenAdjacency(
        out_offsets,
        out_targets,
        in_offsets,
        in_targets,
        post_labels,
        post_offsets,
        post_ids,
        owner=container,
    )
    return Graph.from_frozen(label_table, labels, frozen, names)


def _load_config(path: str) -> Configuration:
    """Parse one ``layer<i>.config.json``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return Configuration(json.load(f))
    except FileNotFoundError as exc:
        raise IndexCorruptedError(f"index file missing: {path}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IndexCorruptedError(
            f"unreadable layer config {path}: {exc}"
        ) from exc
