"""Mutation WAL tests: format, tail recovery, ack after fsync, replay.

The durability contract under test (docs/ROBUSTNESS.md):

* the on-disk format survives truncation at **every** byte offset —
  scanning always yields a clean prefix of the committed records with
  the damage classified, never garbage and never an acked record lost;
* recovery truncates the torn tail in place and the log stays
  appendable;
* replay is idempotent: applying a log once, twice, or on top of state
  that already contains a prefix of it converges to the same index
  (the property test drives this with random op schedules);
* ``commit`` never returns before an fsync covering its record, one
  fsync per commit, including under concurrent committers.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.index import BiGIndex
from repro.core.persistence import WAL_NAME, load_index, save_index
from repro.core.wal import (
    MAX_RECORD_BYTES,
    WAL_MAGIC,
    WAL_MAGIC_V1,
    MutationWAL,
    WALRecord,
    apply_wal_op,
    encode_record,
    read_wal,
    recover_wal,
    replay_wal,
    scan_wal_bytes,
)
from repro.graph.digraph import Graph
from repro.ontology.ontology import OntologyGraph
from repro.utils.errors import (
    WALCorruptedError,
    WALError,
    WALTornTailError,
)
from repro.verify.auditor import audit_index

# ----------------------------------------------------------------------
# A small committed log, shared by the exhaustive truncation sweep
# ----------------------------------------------------------------------
SAMPLE_OPS = [
    {"op": "insert", "u": 0, "v": 7},
    {"op": "delete", "u": 3, "v": 1},
    {"op": "drop-ontology", "subtype": "A", "supertype": "AB"},
    {"op": "insert", "u": 2, "v": 5},
    {"op": "delete", "u": 4, "v": 0},
]
# Both payload kinds: the last two edge ops as format-1 JSON records.
SAMPLE_RECORDS = [
    encode_record(op, compact=i < 3) for i, op in enumerate(SAMPLE_OPS)
]
SAMPLE_LOG = WAL_MAGIC + b"".join(SAMPLE_RECORDS)


def _record_boundaries() -> set:
    ends = {len(WAL_MAGIC)}
    pos = len(WAL_MAGIC)
    for record in SAMPLE_RECORDS:
        pos += len(record)
        ends.add(pos)
    return ends


RECORD_ENDS = _record_boundaries()


def _tiny_index() -> BiGIndex:
    ont = OntologyGraph()
    ont.add_subtype("A", "AB")
    ont.add_subtype("B", "AB")
    ont.add_subtype("C", "Top")
    ont.add_subtype("AB", "Top")
    g = Graph()
    for label in ("A", "B", "C", "A", "B", "C"):
        g.add_vertex(label)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)):
        g.add_edge(u, v)
    return BiGIndex.build(g, ont, num_layers=2)


# ----------------------------------------------------------------------
# Format and scanning
# ----------------------------------------------------------------------
class TestScan:
    def test_round_trip(self):
        scan = scan_wal_bytes(SAMPLE_LOG)
        assert [r.op for r in scan.records] == SAMPLE_OPS
        assert [r.serial for r in scan.records] == [1, 2, 3, 4, 5]
        assert scan.valid_bytes == len(SAMPLE_LOG)
        assert scan.tail_kind is None

    @pytest.mark.parametrize("cut", range(len(SAMPLE_LOG) + 1))
    def test_truncation_at_every_offset_keeps_a_clean_prefix(self, cut):
        """The exhaustive sweep: any tear yields a diagnosed prefix."""
        scan = scan_wal_bytes(SAMPLE_LOG[:cut])
        kept = [r.op for r in scan.records]
        # Never garbage, never reordered: always a prefix.
        assert kept == SAMPLE_OPS[: len(kept)]
        assert scan.valid_bytes <= cut
        if cut < len(WAL_MAGIC):
            # Mid-magic: an empty log; the partial magic is diagnosed
            # so recovery rewrites it (an empty file is undamaged).
            assert kept == []
            expected = "truncated-header" if cut else None
            assert scan.tail_kind == expected
        elif cut in RECORD_ENDS:
            assert scan.tail_kind is None
            assert scan.valid_bytes == cut
        else:
            assert scan.tail_kind in (
                "truncated-header", "truncated-payload"
            )
            # The recovery point is the previous record boundary.
            assert scan.valid_bytes in RECORD_ENDS

    def test_bad_magic_is_unrecoverable(self):
        with pytest.raises(WALCorruptedError):
            scan_wal_bytes(b"NOTAWAL!" + SAMPLE_LOG[8:])

    def test_checksum_mismatch_classified(self):
        damaged = bytearray(SAMPLE_LOG)
        damaged[-1] ^= 0x40  # flip a bit in the last payload byte
        scan = scan_wal_bytes(bytes(damaged))
        assert scan.tail_kind == "checksum-mismatch"
        assert [r.op for r in scan.records] == SAMPLE_OPS[:-1]

    def test_implausible_length_classified(self):
        header = struct.pack(">II", MAX_RECORD_BYTES + 1, 0)
        scan = scan_wal_bytes(SAMPLE_LOG + header + b"x")
        assert scan.tail_kind == "implausible-length"
        assert [r.op for r in scan.records] == SAMPLE_OPS

    def test_unparsable_payload_classified(self):
        for payload in (b"not json", b"[1, 2]"):  # non-dict JSON too
            bad = struct.pack(
                ">II", len(payload), zlib.crc32(payload)
            ) + payload
            scan = scan_wal_bytes(SAMPLE_LOG + bad)
            assert scan.tail_kind == "unparsable-payload"
            assert [r.op for r in scan.records] == SAMPLE_OPS

    def test_empty_and_missing_logs_read_empty(self, tmp_path):
        path = str(tmp_path / "missing.wal")
        scan = read_wal(path)
        assert scan.records == [] and scan.tail_kind is None
        assert scan_wal_bytes(b"").records == []


class TestFormats:
    def test_edge_ops_take_nine_payload_bytes(self):
        for op in SAMPLE_OPS[:2]:
            assert len(encode_record(op)) == 8 + 9
        # Anything that is not a plain edge op stays JSON.
        odd = {"op": "insert", "u": 0, "v": 1 << 32}
        record = encode_record(odd)
        assert record[8:] == b'{"op":"insert","u":0,"v":4294967296}'
        assert scan_wal_bytes(WAL_MAGIC + record).records[0].op == odd

    def test_format_1_log_reads_and_appends_in_kind(self, tmp_path):
        path = str(tmp_path / WAL_NAME)
        with open(path, "wb") as f:
            f.write(WAL_MAGIC_V1)
            f.write(b"".join(encode_record(op, False) for op in SAMPLE_OPS))
        wal = MutationWAL(path)
        assert [r.op for r in wal.open()] == SAMPLE_OPS
        wal.commit({"op": "insert", "u": 1, "v": 2})
        wal.close()
        with open(path, "rb") as f:
            data = f.read()
        assert data.startswith(WAL_MAGIC_V1)
        assert data.endswith(b'{"op":"insert","u":1,"v":2}')
        assert len(read_wal(path).records) == len(SAMPLE_OPS) + 1


# ----------------------------------------------------------------------
# On-disk recovery
# ----------------------------------------------------------------------
class TestRecovery:
    def _write(self, tmp_path, data: bytes) -> str:
        path = str(tmp_path / "mutations.wal")
        with open(path, "wb") as f:
            f.write(data)
        return path

    def test_read_wal_on_tail_error_raises_with_diagnosis(self, tmp_path):
        path = self._write(tmp_path, SAMPLE_LOG[:-3])
        with pytest.raises(WALTornTailError) as excinfo:
            read_wal(path)
        err = excinfo.value
        assert err.kind == "truncated-payload"
        assert err.valid_records == len(SAMPLE_OPS) - 1
        assert err.valid_bytes in RECORD_ENDS

    def test_recover_truncates_in_place(self, tmp_path):
        path = self._write(tmp_path, SAMPLE_LOG[:-3])
        records, kind = recover_wal(path)
        assert kind == "truncated-payload"
        assert [r.op for r in records] == SAMPLE_OPS[:-1]
        # The file now ends at the last valid record; a plain read is
        # clean.
        assert os.path.getsize(path) == read_wal(path).valid_bytes
        assert read_wal(path).tail_kind is None

    def test_recovered_log_is_appendable(self, tmp_path):
        path = self._write(tmp_path, SAMPLE_LOG[:-3])
        extra = {"op": "insert", "u": 9, "v": 9}
        with MutationWAL(path) as wal:
            assert wal.recovered_tail == "truncated-payload"
            assert wal.record_count == len(SAMPLE_OPS) - 1
            serial = wal.commit(extra)
        assert serial == len(SAMPLE_OPS)
        assert [r.op for r in read_wal(path).records] == (
            SAMPLE_OPS[:-1] + [extra]
        )

    def test_mid_magic_crash_recovers_to_empty(self, tmp_path):
        path = self._write(tmp_path, WAL_MAGIC[:3])
        with MutationWAL(path) as wal:
            assert wal.record_count == 0
            wal.commit(SAMPLE_OPS[0])
        assert [r.op for r in read_wal(path).records] == SAMPLE_OPS[:1]


# ----------------------------------------------------------------------
# MutationWAL lifecycle and commit
# ----------------------------------------------------------------------
class TestMutationWAL:
    def test_commit_serials_and_reopen(self, tmp_path):
        path = str(tmp_path / WAL_NAME)
        with MutationWAL(path) as wal:
            assert [wal.commit(op) for op in SAMPLE_OPS[:3]] == [1, 2, 3]
        with MutationWAL(path) as wal:
            assert wal.record_count == 3
            assert wal.commit({"op": "insert", "u": 1, "v": 2}) == 4

    def test_commit_returns_after_an_fsync_covering_its_record(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            real_fsync(fd)
            synced.append(os.fstat(fd).st_size)

        path = str(tmp_path / WAL_NAME)
        with MutationWAL(path) as wal:
            monkeypatch.setattr("repro.core.wal.os.fsync", recording_fsync)
            for op in SAMPLE_OPS:
                synced_before = len(synced)
                wal.commit(op)
                # The commit's own fsync ran, and it covered every byte
                # the log holds once the commit returns.
                assert len(synced) == synced_before + 1
                assert synced[-1] == os.path.getsize(path)
        assert len(synced) == len(SAMPLE_OPS)

    def test_commit_on_closed_wal_raises(self, tmp_path):
        wal = MutationWAL(str(tmp_path / WAL_NAME))
        with pytest.raises(WALError):
            wal.commit(SAMPLE_OPS[0])

    # ``pause`` is the sleep between one thread's commits: 0.0 keeps all
    # eight threads contending for the lock back to back, 0.005 spreads
    # them so commits from different threads interleave in the log.
    @pytest.mark.parametrize("pause", [0.0, 0.005])
    def test_concurrent_commits_serialize_durably(self, tmp_path, pause):
        path = str(tmp_path / WAL_NAME)
        threads = 8
        per_thread = 5
        barrier = threading.Barrier(threads)

        with MutationWAL(path) as wal:
            def committer(worker: int):
                barrier.wait()
                serials = []
                for i in range(per_thread):
                    serials.append(
                        wal.commit({"op": "insert", "u": worker, "v": i})
                    )
                    time.sleep(pause)
                return serials

            with ThreadPoolExecutor(max_workers=threads) as pool:
                serial_lists = list(pool.map(committer, range(threads)))
        serials = sorted(s for lst in serial_lists for s in lst)
        assert serials == list(range(1, threads * per_thread + 1))
        scan = read_wal(path)
        assert len(scan.records) == threads * per_thread
        assert scan.tail_kind is None
        # Each thread's commits hold increasing serials and reach the log
        # in the order that thread made them.
        for worker, lst in enumerate(serial_lists):
            assert lst == sorted(lst)
            logged = [r.op["v"] for r in scan.records if r.op["u"] == worker]
            assert logged == list(range(per_thread))


# ----------------------------------------------------------------------
# Replay semantics
# ----------------------------------------------------------------------
class TestReplay:
    def test_apply_is_idempotent_per_op(self):
        index = _tiny_index()
        op = {"op": "insert", "u": 0, "v": 3}
        assert apply_wal_op(index, op) is True
        assert apply_wal_op(index, op) is False  # already present
        op = {"op": "delete", "u": 0, "v": 3}
        assert apply_wal_op(index, op) is True
        assert apply_wal_op(index, op) is False  # already gone

    def test_unknown_op_kind_raises(self):
        with pytest.raises(WALError):
            apply_wal_op(_tiny_index(), {"op": "explode"})

    def test_replay_wraps_application_errors(self):
        records = [WALRecord(serial=1, op={"op": "insert", "u": 0})]
        with pytest.raises(WALError):
            replay_wal(_tiny_index(), records)

    def test_save_load_replays_the_tail(self, tmp_path):
        directory = str(tmp_path / "idx")
        index = _tiny_index()
        save_index(index, directory)
        ops = [
            {"op": "delete", "u": 0, "v": 1},
            {"op": "insert", "u": 0, "v": 4},
        ]
        with MutationWAL(os.path.join(directory, WAL_NAME)) as wal:
            for op in ops:
                wal.commit(op)
        oracle = _tiny_index()
        for op in ops:
            apply_wal_op(oracle, op)
        ont = OntologyGraph()
        for sub, sup in (("A", "AB"), ("B", "AB"), ("C", "Top"),
                         ("AB", "Top")):
            ont.add_subtype(sub, sup)
        loaded = load_index(directory, ont)
        assert loaded.state_digest() == oracle.state_digest()
        # The log is not part of the manifest: growing it after save
        # must not fail the checksum gate on the next load either.
        extra = {"op": "delete", "u": 1, "v": 2}
        with MutationWAL(os.path.join(directory, WAL_NAME)) as wal:
            wal.commit(extra)
        apply_wal_op(oracle, extra)
        reloaded = load_index(directory, ont)
        assert reloaded.state_digest() == oracle.state_digest()

    def test_load_can_skip_replay(self, tmp_path):
        directory = str(tmp_path / "idx")
        index = _tiny_index()
        save_index(index, directory)
        with MutationWAL(os.path.join(directory, WAL_NAME)) as wal:
            wal.commit({"op": "delete", "u": 0, "v": 1})
        ont = OntologyGraph()
        for sub, sup in (("A", "AB"), ("B", "AB"), ("C", "Top"),
                         ("AB", "Top")):
            ont.add_subtype(sub, sup)
        skipped = load_index(directory, ont, replay_wal_tail=False)
        assert skipped.state_digest() == index.state_digest()


# Edge-op schedules over the tiny index's 6 vertices: inserts and
# deletes, most of them no-ops some of the time — exactly the mix that
# makes naive (non-idempotent) replay diverge.
_OP_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ),
    min_size=0,
    max_size=12,
)


class TestReplayProperty:
    @settings(max_examples=25, deadline=None)
    @given(schedule=_OP_STRATEGY)
    @example(schedule=[("delete", 0, 2), ("insert", 0, 2), ("delete", 0, 1)])
    def test_replay_is_idempotent_and_prefix_tolerant(self, schedule):
        """once == twice == (apply prefix, then replay everything).

        Replay is a no-op on the data graph and the configurations, not
        on the layers: seeded maintenance only splits blocks, so a
        second pass can leave a layer finer than the first (the pinned
        example gives layer sizes [12, 12, 2] once and [12, 12, 12]
        twice).  Every replayed index must still audit clean, and
        ``rebuild()`` must bring all three to the same state.
        """
        records = [
            WALRecord(serial=i + 1, op={"op": kind, "u": u, "v": v})
            for i, (kind, u, v) in enumerate(schedule)
        ]

        once = _tiny_index()
        replay_wal(once, records)

        twice = _tiny_index()
        replay_wal(twice, records)
        replay_wal(twice, records)

        # A crash can persist a prefix of the log before the replayed
        # tail runs again from the top: same convergence required.
        prefix = _tiny_index()
        replay_wal(prefix, records[: len(records) // 2])
        replay_wal(prefix, records)

        edges = sorted(once.base_graph.edges())
        configs = once.configs_up_to(once.num_layers)
        for replayed in (once, twice, prefix):
            assert sorted(replayed.base_graph.edges()) == edges
            assert replayed.configs_up_to(replayed.num_layers) == configs
            report = audit_index(replayed)
            assert report.ok, report.violations
            replayed.rebuild()
        digest = once.state_digest()
        assert twice.state_digest() == digest
        assert prefix.state_digest() == digest
