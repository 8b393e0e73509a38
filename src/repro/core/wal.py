"""Durable mutation write-ahead log for a persisted BiG-index.

The serve runtime acks an admin mutation only after the operation is
durable: the op is appended to ``mutations.wal`` inside the index
directory and fsynced *before* the new snapshot is published and the
HTTP 200 goes out.  On startup, :func:`repro.core.persistence.load_index`
replays the log tail on top of the persisted files, so a ``kill -9``
mid-stream loses nothing that was acked.  A fresh :func:`save_index`
writes a new manifest with no log, which truncates the history (the
persisted files already contain every replayed op).

File format
-----------
::

    magic   8 bytes   b"RBIGWAL2"
    record  repeated  [length u32 BE][crc32 u32 BE][payload]

    payload  edge op: [b"I" | b"D"][u u32 BE][v u32 BE]   (9 bytes)
             any other op: UTF-8 JSON object

A format-1 log (magic ``b"RBIGWAL1"``, JSON payloads only) still reads,
and is appended to in its own encoding.  ``crc32`` covers the payload
bytes only.  Records are self-delimiting
and self-checksummed, so the log needs no footer and tolerates a torn
tail: recovery keeps the longest valid record prefix and classifies the
damage (see :func:`read_wal`).  The log is deliberately *excluded* from
``manifest.json`` — it changes after every mutation, while the manifest
blesses the immutable base files.

Commit
------
:meth:`MutationWAL.commit` writes one record, flushes it and fsyncs the
file before it returns, under one lock.  The serve runtime admits one
writer at a time (``EngineRuntime.mutate``), so there is never a batch
of concurrent records to share an fsync: each acked op costs exactly one
``write`` and one ``fsync``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.runtime import OBS
from repro.utils.errors import (
    WALCorruptedError,
    WALError,
    WALTornTailError,
)

#: File magic: identifies a mutation WAL and pins its format version.
WAL_MAGIC = b"RBIGWAL2"

#: Format 1's magic: the same framing with JSON payloads only.
WAL_MAGIC_V1 = b"RBIGWAL1"

_HEADER = struct.Struct(">II")  # (payload length, crc32 of payload)

#: Upper bound on a single record's payload; a length prefix beyond this
#: is treated as tail damage (a torn length word reads as garbage).
MAX_RECORD_BYTES = 1 << 24


@dataclass(frozen=True)
class WALRecord:
    """One durable mutation: its 1-based position and the op payload."""

    serial: int
    op: Dict[str, Any]


@dataclass(frozen=True)
class WALScan:
    """Result of scanning a log: the valid prefix plus tail diagnosis.

    ``tail_kind`` is ``None`` for a clean log, else one of
    ``"truncated-header"`` / ``"truncated-payload"`` (a crash tore the
    final write) or ``"checksum-mismatch"`` / ``"unparsable-payload"`` /
    ``"implausible-length"`` (the tail bytes are damaged).  Every kind
    ends replay at ``valid_bytes``; none invalidates the prefix.
    """

    records: List[WALRecord]
    valid_bytes: int
    tail_kind: Optional[str]


#: An edge op's payload: kind byte, then both endpoints.  No JSON value
#: starts with ``I`` or ``D``, so the two payload kinds cannot collide.
_EDGE = struct.Struct(">cII")
_EDGE_KINDS = {"insert": b"I", "delete": b"D"}
_EDGE_OPS = {kind: op for op, kind in _EDGE_KINDS.items()}


def encode_record(op: Dict[str, Any], compact: bool = True) -> bytes:
    """Serialize one op as a length-prefixed, checksummed record: an
    edge op as its 9-byte binary payload (unless ``compact`` is off, for
    appending to a format-1 log), anything else as JSON."""
    kind = _EDGE_KINDS.get(op.get("op")) if compact else None
    if kind is not None and op.keys() == {"op", "u", "v"} and all(
        type(op[end]) is int and 0 <= op[end] < 1 << 32 for end in "uv"
    ):
        payload = _EDGE.pack(kind, op["u"], op["v"])
    else:
        payload = json.dumps(
            op, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _decode_payload(payload: bytes) -> Optional[Dict[str, Any]]:
    """The op a record's payload holds, or ``None`` when unparsable."""
    if len(payload) == _EDGE.size and payload[:1] in _EDGE_OPS:
        kind, u, v = _EDGE.unpack(payload)
        return {"op": _EDGE_OPS[kind], "u": u, "v": v}
    try:
        op = json.loads(payload.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return op if isinstance(op, dict) else None


def scan_wal_bytes(data: bytes) -> WALScan:
    """Scan raw log bytes into the longest valid record prefix.

    Raises :class:`WALCorruptedError` when the magic is wrong — a file
    that is not a WAL at all cannot be partially trusted.  Tail damage is
    *returned*, not raised, so callers choose between recovering
    (truncate to ``valid_bytes``) and rejecting (:func:`read_wal` with
    ``on_tail="error"``).
    """
    if len(data) < len(WAL_MAGIC):
        if data and not WAL_MAGIC.startswith(data):
            raise WALCorruptedError(
                f"not a mutation WAL: bad magic {data[:8]!r}"
            )
        # Empty file (no damage) or a crash mid-magic: no valid records
        # either way, but the partial magic must be diagnosed so
        # recovery rewrites it before anything appends behind it.
        return WALScan(
            records=[],
            valid_bytes=0,
            tail_kind="truncated-header" if data else None,
        )
    if data[: len(WAL_MAGIC)] not in (WAL_MAGIC, WAL_MAGIC_V1):
        raise WALCorruptedError(
            f"not a mutation WAL: bad magic {data[:8]!r}"
        )
    records: List[WALRecord] = []
    pos = len(WAL_MAGIC)
    valid = pos
    tail_kind: Optional[str] = None
    while pos < len(data):
        if pos + _HEADER.size > len(data):
            tail_kind = "truncated-header"
            break
        length, crc = _HEADER.unpack_from(data, pos)
        if length > MAX_RECORD_BYTES:
            tail_kind = "implausible-length"
            break
        start = pos + _HEADER.size
        end = start + length
        if end > len(data):
            tail_kind = "truncated-payload"
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            tail_kind = "checksum-mismatch"
            break
        op = _decode_payload(payload)
        if op is None:
            tail_kind = "unparsable-payload"
            break
        records.append(WALRecord(serial=len(records) + 1, op=op))
        pos = end
        valid = pos
    return WALScan(records=records, valid_bytes=valid, tail_kind=tail_kind)


def read_wal(path: str, on_tail: str = "error") -> WALScan:
    """Read a mutation log, diagnosing its tail.

    ``on_tail`` selects the policy for a damaged tail:

    * ``"error"`` — raise :class:`WALTornTailError` (carrying the kind,
      the count of valid records, and the recoverable byte offset);
    * ``"keep"`` — return the scan with the tail diagnosis for the
      caller to act on (used by recovery, which truncates).

    A missing file reads as an empty log.  A wrong magic always raises
    :class:`WALCorruptedError`.
    """
    if on_tail not in ("error", "keep"):
        raise ValueError(f"on_tail must be 'error' or 'keep': {on_tail!r}")
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        return WALScan(records=[], valid_bytes=0, tail_kind=None)
    scan = scan_wal_bytes(data)
    if scan.tail_kind is not None and on_tail == "error":
        raise WALTornTailError(
            path=path,
            kind=scan.tail_kind,
            valid_records=len(scan.records),
            valid_bytes=scan.valid_bytes,
        )
    return scan


def recover_wal(path: str) -> Tuple[List[WALRecord], Optional[str]]:
    """Read ``path`` and truncate any damaged tail in place.

    Returns the valid records and the dropped tail's kind (``None`` when
    the log was clean).  After recovery the file on disk ends exactly at
    the last valid record, so a subsequent open-for-append is safe.
    """
    scan = read_wal(path, on_tail="keep")
    if scan.tail_kind is not None:
        if scan.valid_bytes < len(WAL_MAGIC):
            # The crash tore the magic itself (truncating would only
            # zero-pad the partial magic): rewrite the empty log.
            with open(path, "wb") as f:
                f.write(WAL_MAGIC)
                f.flush()
                os.fsync(f.fileno())
        else:
            with open(path, "r+b") as f:
                f.truncate(scan.valid_bytes)
                f.flush()
                os.fsync(f.fileno())
        if OBS.enabled:
            OBS.metrics.inc("wal.torn_tail_truncations")
    return scan.records, scan.tail_kind


def apply_wal_op(index: Any, op: Dict[str, Any]) -> bool:
    """Apply one logged op through the incremental maintenance API.

    The one definition of an applicable op — ``POST /admin/mutate``, WAL
    replay and the verify drills all apply ops through here: inapplicable
    ops — re-inserting a present edge, deleting an absent one, a
    self-loop — are no-ops, which makes replay idempotent: replaying
    a log twice, or on top of files that already contain a prefix of it,
    converges to the same state.  Unknown kinds raise :class:`WALError`
    (a log from a future format must not be half-applied).
    """
    kind = op.get("op")
    if kind == "insert":
        u, v = int(op["u"]), int(op["v"])
        if u == v or index.base_graph.has_edge(u, v):
            return False
        index.insert_edge(u, v)
        return True
    if kind == "delete":
        u, v = int(op["u"]), int(op["v"])
        if not index.base_graph.has_edge(u, v):
            return False
        index.delete_edge(u, v)
        return True
    if kind == "drop-ontology":
        index.remove_ontology_edge(str(op["subtype"]), str(op["supertype"]))
        return True
    raise WALError(f"unknown WAL op kind: {kind!r}")


def replay_wal(index: Any, records: List[WALRecord]) -> int:
    """Replay recovered records onto ``index``; returns ops applied."""
    applied = 0
    for record in records:
        try:
            if apply_wal_op(index, record.op):
                applied += 1
        except WALError:
            raise
        except Exception as exc:  # noqa: BLE001 - classify for callers
            raise WALError(
                f"WAL record {record.serial} failed to replay: {exc}"
            ) from exc
    if OBS.enabled and records:
        OBS.metrics.inc("wal.replayed_records", len(records))
    return applied


class MutationWAL:
    """Append-only durable mutation log: one fsync per committed op.

    Thread-safe: concurrent :meth:`commit` calls serialize on one lock.
    Opening recovers a torn tail automatically (truncating it), so a log
    left behind by ``kill -9`` is always appendable.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file: Optional[Any] = None
        self._record_count = 0
        self._recovered_tail: Optional[str] = None
        #: False while appending to a format-1 log (JSON records only).
        self._compact = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> List[WALRecord]:
        """Open (creating if missing), recover the tail, return records.

        The returned records are what a loader should replay; the file is
        positioned for appending the next record.
        """
        with self._lock:
            if self._file is not None:
                raise WALError(f"WAL already open: {self.path}")
            if os.path.exists(self.path):
                records, self._recovered_tail = recover_wal(self.path)
                with open(self.path, "rb") as f:
                    self._compact = f.read(len(WAL_MAGIC)) != WAL_MAGIC_V1
            else:
                records = []
                with open(self.path, "wb") as f:
                    f.write(WAL_MAGIC)
                    f.flush()
                    os.fsync(f.fileno())
            self._file = open(self.path, "ab")
            self._record_count = len(records)
            if OBS.enabled:
                OBS.metrics.inc("wal.opens")
            return records

    @property
    def record_count(self) -> int:
        with self._lock:
            return self._record_count

    @property
    def recovered_tail(self) -> Optional[str]:
        """Tail-damage kind dropped during :meth:`open`, if any."""
        return self._recovered_tail

    def close(self) -> None:
        """Close the file (every committed record is already fsynced)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------
    def commit(self, op: Dict[str, Any]) -> int:
        """Append ``op`` and return its serial once it is fsynced."""
        with self._lock:
            if self._file is None:
                raise WALError(f"WAL is not open: {self.path}")
            self._file.write(encode_record(op, self._compact))
            self._file.flush()
            os.fsync(self._file.fileno())
            self._record_count += 1
            if OBS.enabled:
                OBS.metrics.inc("wal.appends")
            return self._record_count

    # ------------------------------------------------------------------
    # Context manager
    # ------------------------------------------------------------------
    def __enter__(self) -> "MutationWAL":
        if self._file is None:
            self.open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
