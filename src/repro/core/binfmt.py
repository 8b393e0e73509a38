"""Binary v4 index container: sectioned, mmap-backed, zero-copy.

Index format v4 stores every hot payload — CSR adjacency, per-label
keyword postings, ``parent_of`` partition vectors and Bisim⁻¹ extent
tables — as fixed-width little-endian int32 arrays inside a single
container file (``index.v4.bin``).  Loading the container is ``mmap`` +
``memoryview.cast("i")``: no per-element parsing, so a cold start costs
one page-table setup instead of a JSON walk, and the OS page cache
transparently handles layers larger than RAM.

Container layout::

    offset 0   magic  b"RBIGIDX4"                      (8 bytes)
    offset 8   toc_offset  (u64 LE)                    patched on close
    offset 16  toc_length  (u64 LE)
    offset 24  section data, each section 8-byte aligned
    ...
    toc_offset JSON section table:
               {"sections": {name: {"offset", "length", "kind", "sha256"}}}

Section kinds are ``"i32"`` (packed little-endian 4-byte ints) and
``"json"`` (UTF-8 JSON, used for small cold payloads such as the label
table and vertex names).  Each section carries its own SHA-256, folded
into the index directory's ``manifest.json`` so corruption is reported
*by section name* (see :mod:`repro.core.persistence`).

The writer streams: sections are emitted chunk-by-chunk with an
incremental hash, so saving never materializes a whole section in
memory.  The reader hands out ``memoryview`` slices over the mmap —
consumers must treat them as frozen (the graph layer's
copy-on-first-mutation seam enforces this, see
:meth:`repro.graph.digraph.Graph._materialize`).

Host assumptions match the rest of the codebase: ``array("i")`` is a
4-byte int (asserted at import, like ``_pack_csr``).  Files are always
little-endian on disk; big-endian hosts fall back to a byteswapping
copy on load (correct, merely not zero-copy).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import sys
from array import array
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.utils.errors import IndexCorruptedError

MAGIC = b"RBIGIDX4"
_HEADER = struct.Struct("<8sQQ")
HEADER_SIZE = _HEADER.size  # 24

#: ints per chunk when streaming an iterable into an i32 section.
_CHUNK_INTS = 1 << 16

_LITTLE_ENDIAN = sys.byteorder == "little"

if array("i").itemsize != 4:  # pragma: no cover - exotic platforms
    raise ImportError("index format v4 requires a 4-byte array('i')")


def _le_bytes(values: array) -> Union[array, bytes]:
    """``values`` as a little-endian buffer (no copy on LE hosts)."""
    if _LITTLE_ENDIAN:
        return values
    swapped = array("i", values)
    swapped.byteswap()
    return swapped.tobytes()


# ----------------------------------------------------------------------
# Zero-copy extent table
# ----------------------------------------------------------------------
class ExtentTable:
    """Bisim⁻¹ table as two i32 sections: row offsets + children.

    ``table[s]`` is supernode ``s``'s sorted child list, a plain slice
    of the children section (zero copy: a ``memoryview``, or an
    ``array('i')`` on the byteswap fallback).  Hides the CSR layout
    behind ``len`` / indexing / iteration, and compares equal to a
    list-of-lists with the same rows, so heap-built and v4-loaded
    layers are interchangeable in tests and the differential harness.
    """

    __slots__ = ("_offsets", "_children")

    def __init__(self, offsets: Sequence[int], children: Sequence[int]) -> None:
        self._offsets = offsets
        self._children = children

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        index = item + len(self) if item < 0 else item
        if not 0 <= index < len(self):
            raise IndexError(f"supernode {item} out of range")
        return self._children[self._offsets[index] : self._offsets[index + 1]]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ExtentTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(
            list(mine) == list(theirs) for mine, theirs in zip(self, other)
        )

    __hash__ = None  # type: ignore[assignment]

    def tolist(self) -> List[List[int]]:
        return [list(row) for row in self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExtentTable({self.tolist()!r})"


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class SectionWriter:
    """Stream sections into a v4 container, hashing as it goes.

    Usage::

        writer = SectionWriter(path)
        writer.add_ints("base.labels", graph.labels)
        writer.add_json("base.names", names)
        sections = writer.close()   # {name: {"offset", ..., "sha256"}}

    Nothing larger than one chunk is ever held in memory; the section
    table (with per-section SHA-256) is appended at the end and the
    header's toc pointer patched last, so a truncated write is always
    detectable (the toc pointer stays zero or out of bounds).
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._file = open(path, "wb")
        self._file.write(_HEADER.pack(MAGIC, 0, 0))
        self._pos = HEADER_SIZE
        self._sections: Dict[str, Dict[str, Any]] = {}
        self._open: Any = None

    def _align(self) -> None:
        pad = (-self._pos) % 8
        if pad:
            self._file.write(b"\x00" * pad)
            self._pos += pad

    def begin(self, name: str, kind: str) -> None:
        """Open a section; follow with :meth:`write` calls + :meth:`end`."""
        if self._open is not None:
            raise ValueError("previous section still open")
        if name in self._sections:
            raise ValueError(f"duplicate section {name!r}")
        self._align()
        self._open = [name, kind, self._pos, hashlib.sha256()]

    def write(self, data) -> None:
        """Append one chunk (bytes, array, or memoryview) to the open section."""
        view = memoryview(data)
        self._file.write(view)
        self._open[3].update(view)
        self._pos += view.nbytes

    def end(self) -> None:
        name, kind, offset, hasher = self._open
        self._sections[name] = {
            "offset": offset,
            "length": self._pos - offset,
            "kind": kind,
            "sha256": hasher.hexdigest(),
        }
        self._open = None

    def add_ints(self, name: str, values: Iterable[int]) -> None:
        """Write an i32 section from any int iterable, in chunks."""
        self.begin(name, "i32")
        if isinstance(values, array) and values.typecode == "i":
            self.write(_le_bytes(values))
        elif isinstance(values, memoryview) and values.itemsize == 4:
            # Loaded views are already little-endian on the only hosts
            # that produce them (BE hosts load into arrays instead).
            self.write(values.cast("B"))
        else:
            chunk = array("i")
            append = chunk.append
            for value in values:
                append(value)
                if len(chunk) >= _CHUNK_INTS:
                    self.write(_le_bytes(chunk))
                    chunk = array("i")
                    append = chunk.append
            if chunk:
                self.write(_le_bytes(chunk))
        self.end()

    def add_json(self, name: str, obj: Any) -> None:
        """Write a small JSON section (label table, vertex names)."""
        self.begin(name, "json")
        self.write(
            json.dumps(obj, sort_keys=True, separators=(",", ":")).encode(
                "utf-8"
            )
        )
        self.end()

    def close(self) -> Dict[str, Dict[str, Any]]:
        """Append the section table, patch the header, fsync; return toc."""
        if self._open is not None:
            raise ValueError("section still open at close")
        self._align()
        toc_offset = self._pos
        toc = json.dumps(
            {"sections": self._sections}, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self._file.write(toc)
        self._file.seek(8)
        self._file.write(struct.pack("<QQ", toc_offset, len(toc)))
        self._file.flush()
        os.fsync(self._file.fileno())
        self._file.close()
        return self._sections


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class SectionFile:
    """A v4 container opened read-only over mmap.

    Structural damage — missing file, bad magic, out-of-bounds or
    unparsable section table, a section pointing outside the file —
    raises :class:`IndexCorruptedError` naming what broke.  Content
    damage inside a section is the manifest's job (per-section SHA-256,
    verified by :func:`repro.core.persistence._verify_manifest` before
    any section is trusted).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        try:
            file = open(path, "rb")
        except FileNotFoundError as exc:
            raise IndexCorruptedError(f"index file missing: {path}") from exc
        # The mapping holds its own descriptor: the file closes here.
        with file:
            try:
                self._mmap = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
            except (ValueError, OSError) as exc:
                raise IndexCorruptedError(
                    f"{path}: cannot map v4 container: {exc}"
                ) from exc
        self._view = memoryview(self._mmap)
        try:
            size = len(self._view)
            if size < HEADER_SIZE:
                raise IndexCorruptedError(
                    f"{path}: truncated v4 container ({size} bytes, "
                    f"header needs {HEADER_SIZE})"
                )
            magic, toc_offset, toc_length = _HEADER.unpack(
                bytes(self._view[:HEADER_SIZE])
            )
            if magic != MAGIC:
                raise IndexCorruptedError(
                    f"{path}: not a v4 index container (bad magic {magic!r})"
                )
            if (
                toc_offset < HEADER_SIZE
                or toc_length <= 0
                or toc_offset + toc_length > size
            ):
                raise IndexCorruptedError(
                    f"{path}: v4 section table out of bounds (truncated "
                    "container or torn write)"
                )
            toc_bytes = bytes(self._view[toc_offset : toc_offset + toc_length])
            self.toc_sha256 = hashlib.sha256(toc_bytes).hexdigest()
            try:
                toc = json.loads(toc_bytes.decode("utf-8"))
                sections = toc["sections"]
            except (
                json.JSONDecodeError,
                UnicodeDecodeError,
                KeyError,
                TypeError,
            ) as exc:
                raise IndexCorruptedError(
                    f"{path}: unreadable v4 section table: {exc}"
                ) from exc
            if not isinstance(sections, dict):
                raise IndexCorruptedError(
                    f"{path}: v4 section table is not an object"
                )
            for name, entry in sections.items():
                try:
                    offset = int(entry["offset"])
                    length = int(entry["length"])
                    kind = entry["kind"]
                except (KeyError, TypeError, ValueError) as exc:
                    raise IndexCorruptedError(
                        f"{path}: invalid section table entry {name!r}: {exc}"
                    ) from exc
                if (
                    offset < HEADER_SIZE
                    or length < 0
                    or offset + length > toc_offset
                ):
                    raise IndexCorruptedError(
                        f"{path}: section {name!r} out of bounds "
                        "(truncated container)"
                    )
                if kind not in ("i32", "json"):
                    raise IndexCorruptedError(
                        f"{path}: section {name!r} has unknown kind {kind!r}"
                    )
            self.sections: Dict[str, Dict[str, Any]] = sections
        except BaseException:
            self.close()
            raise

    # -- access --------------------------------------------------------
    def _entry(self, name: str) -> Dict[str, Any]:
        try:
            return self.sections[name]
        except KeyError:
            raise IndexCorruptedError(
                f"{self.path}: section {name!r} missing from container"
            ) from None

    def raw(self, name: str) -> memoryview:
        """The section's bytes as a zero-copy view over the mmap."""
        entry = self._entry(name)
        offset, length = entry["offset"], entry["length"]
        return self._view[offset : offset + length]

    def ints(self, name: str) -> Sequence[int]:
        """An i32 section as an int sequence (zero copy on LE hosts)."""
        entry = self._entry(name)
        if entry["kind"] != "i32":
            raise IndexCorruptedError(
                f"{self.path}: section {name!r} is {entry['kind']!r}, "
                "expected 'i32'"
            )
        raw = self.raw(name)
        if raw.nbytes % 4:
            raise IndexCorruptedError(
                f"{self.path}: section {name!r} length {raw.nbytes} is not "
                "a multiple of 4"
            )
        if _LITTLE_ENDIAN:
            return raw.cast("i")
        values = array("i")  # pragma: no cover - big-endian fallback
        values.frombytes(bytes(raw))
        values.byteswap()
        return values

    def json(self, name: str) -> Any:
        """A json section, parsed."""
        entry = self._entry(name)
        if entry["kind"] != "json":
            raise IndexCorruptedError(
                f"{self.path}: section {name!r} is {entry['kind']!r}, "
                "expected 'json'"
            )
        try:
            return json.loads(bytes(self.raw(name)).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise IndexCorruptedError(
                f"{self.path}: unreadable json section {name!r}: {exc}"
            ) from exc

    def section_digests(self) -> Dict[str, str]:
        """Freshly computed SHA-256 of every section's bytes.

        Used by manifest (re-)blessing and verification; hashes the mmap
        directly, chunked so huge sections never materialize.
        """
        digests: Dict[str, str] = {}
        for name in sorted(self.sections):
            raw = self.raw(name)
            hasher = hashlib.sha256()
            for start in range(0, raw.nbytes, 1 << 20):
                hasher.update(raw[start : start + (1 << 20)])
            digests[name] = hasher.hexdigest()
        return digests

    def close(self) -> None:
        """Release the mapping if no views are live (best effort).

        Loaded graphs keep views into the mmap, which keeps the mapping
        alive via the buffer protocol; close() is for verification-only
        opens where everything was consumed eagerly.
        """
        try:
            self._view.release()
            self._mmap.close()
        except BufferError:  # pragma: no cover - views still exported
            pass
