"""Deterministic fault injection for the resilience contracts.

Where the oracle/auditor/fuzzer legs check the paper's *correctness*
claims, this leg checks the repository's *robustness* claims
(docs/ROBUSTNESS.md), by deliberately breaking things and asserting the
failure is the promised one:

* **Storage faults** — every file of a saved index is truncated and
  bit-flipped (seeded, reproducible); loading must raise
  :class:`~repro.utils.errors.IndexPersistenceError` — a corrupted index
  must never load as a silently wrong index.  Deeper parse paths are
  reached by re-blessing tampered files with
  :func:`~repro.core.persistence.write_manifest` so the checksum gate
  passes and the structural validation has to catch the damage itself.
* **WAL faults** — a committed mutation log is torn at sampled byte
  offsets, bit-flipped, and de-magicked; recovery must keep exactly the
  longest valid record prefix, classify the damage, stay appendable
  after truncating the tail, and replay idempotently to the same state
  as applying the ops directly (docs/ROBUSTNESS.md, "Durability & crash
  recovery").
* **Budget exhaustion** — queries are run through
  :meth:`~repro.core.evaluator.HierarchicalEvaluator.evaluate_resilient`
  under a sweep of expansion caps; every degraded result must be a
  *ranking prefix* of the direct oracle's answers (same score sequence
  below the reported ``lower_bound``), and every complete result must
  match the oracle exactly.
* **Clock skew** — a deadline budget driven by a fake clock that jumps
  backward must stay expired (sticky expiry, monotone elapsed).
* **Cancellation** — a tripped token must abort the next charge with
  reason ``"cancelled"``.

All faults derive from one master seed, so a failure report reproduces
exactly.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import struct
import tempfile
from typing import Optional, Sequence

from repro.core.binfmt import SectionFile
from repro.core.cost import CostParams
from repro.core.evaluator import eval_direct
from repro.core.index import BiGIndex
from repro.core.persistence import (
    BINARY_NAME,
    MANIFEST_NAME,
    WAL_NAME,
    load_index,
    save_index,
    write_manifest,
)
from repro.core.plugins import boost
from repro.core.wal import (
    WAL_MAGIC,
    MutationWAL,
    apply_wal_op,
    encode_record,
    read_wal,
    replay_wal,
    scan_wal_bytes,
)
from repro.datasets.synthetic import verification_corpus
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import top_k
from repro.utils.budget import Budget, CancellationToken
from repro.utils.errors import (
    BudgetExceeded,
    IndexCorruptedError,
    IndexPersistenceError,
    IndexVersionError,
    WALCorruptedError,
)
from repro.verify.drill import Report, probe_queries

#: Distance bound for the budget-sweep probe algorithm.
_D_MAX = 3
#: Expansion caps swept per query (deterministic; Budget counting is
#: machine-independent).
_EXPANSION_CAPS = (1, 4, 16, 64, 256, 4096)


def _fail(report: Report, drill: str, case: str, detail: str) -> None:
    """File one violated robustness contract."""
    report.problems.append(f"{drill} [{case}]: {detail}")


class _FakeClock:
    """Scripted clock; repeats its last value once the script runs out."""

    def __init__(self, values: Sequence[float]) -> None:
        self._values = list(values)
        self._i = 0

    def __call__(self) -> float:
        value = self._values[min(self._i, len(self._values) - 1)]
        self._i += 1
        return value


# ----------------------------------------------------------------------
# Storage faults
# ----------------------------------------------------------------------
def _expect_load_failure(
    report: Report,
    case: str,
    drill: str,
    directory: str,
    ontology,
    expected: type = IndexPersistenceError,
    must_mention: Optional[str] = None,
) -> None:
    report.checks += 1
    try:
        load_index(directory, ontology)
    except expected as exc:
        if must_mention is not None and must_mention not in str(exc):
            _fail(
                report, drill, case,
                f"error did not mention {must_mention!r}: {exc}",
            )
    except Exception as exc:  # noqa: BLE001 - classifying is the point
        _fail(
            report, drill, case,
            f"expected {expected.__name__}, got "
            f"{type(exc).__name__}: {exc}",
        )
    else:
        _fail(
            report, drill, case, "corrupted index loaded without any error"
        )


def _storage_drills(
    report: Report, index: BiGIndex, ontology, rng: random.Random
) -> None:
    workdir = tempfile.mkdtemp(prefix="bigindex-faults-")
    try:
        pristine = os.path.join(workdir, "pristine")
        save_index(index, pristine)

        # Sanity: the pristine copy must load (otherwise every drill
        # below would "pass" vacuously).
        report.checks += 1
        try:
            load_index(pristine, ontology)
        except Exception as exc:  # noqa: BLE001
            _fail(
                report, "storage/pristine", "save-load",
                f"pristine index failed to load: {exc}",
            )
            return

        victims = sorted(
            name
            for name in os.listdir(pristine)
            if os.path.isfile(os.path.join(pristine, name))
        )

        def fresh_copy(tag: str) -> str:
            target = os.path.join(workdir, tag)
            if os.path.exists(target):
                shutil.rmtree(target)
            shutil.copytree(pristine, target)
            return target

        # Truncation and a seeded bit flip, per file.
        for name in victims:
            target = fresh_copy("truncate")
            path = os.path.join(target, name)
            size = os.path.getsize(path)
            with open(path, "r+b") as f:
                f.truncate(size // 2)
            _expect_load_failure(
                report, f"truncate:{name}", "storage/truncate", target,
                ontology,
            )

            if size == 0:
                continue
            target = fresh_copy("bitflip")
            path = os.path.join(target, name)
            offset = rng.randrange(size)
            bit = 1 << rng.randrange(8)
            with open(path, "r+b") as f:
                f.seek(offset)
                byte = f.read(1)[0]
                f.seek(offset)
                f.write(bytes([byte ^ bit]))
            _expect_load_failure(
                report, f"bitflip:{name}@{offset}", "storage/bitflip",
                target, ontology,
            )

        # Whole-file loss.
        for name in victims:
            target = fresh_copy("missing")
            os.remove(os.path.join(target, name))
            _expect_load_failure(
                report, f"missing:{name}", "storage/missing", target,
                ontology,
            )

        # v4 binary container: corruption inside one section must be
        # reported *by section name*, never load as garbage.
        target = fresh_copy("section-flip")
        container_path = os.path.join(target, BINARY_NAME)
        container = SectionFile(container_path)
        entry = dict(container.sections["layer1.parent_of"])
        container.close()
        flip_at = entry["offset"] + rng.randrange(max(entry["length"], 1))
        with open(container_path, "r+b") as f:
            f.seek(flip_at)
            byte = f.read(1)[0]
            f.seek(flip_at)
            f.write(bytes([byte ^ 0x01]))
        _expect_load_failure(
            report, "binary:section-flip", "storage/binary-section",
            target, ontology,
            expected=IndexCorruptedError, must_mention="section",
        )

        # Re-blessed binary tampering: write_manifest makes the checksum
        # gate pass, so the loader's range validation must catch it.
        target = fresh_copy("binary-range")
        container_path = os.path.join(target, BINARY_NAME)
        container = SectionFile(container_path)
        entry = dict(container.sections["layer1.parent_of"])
        container.close()
        with open(container_path, "r+b") as f:
            f.seek(entry["offset"])
            f.write(struct.pack("<i", 999999))
        write_manifest(target)
        _expect_load_failure(
            report, "reblessed:binary-range", "storage/deep-parse",
            target, ontology,
            expected=IndexCorruptedError, must_mention="unknown supernode",
        )

        # A foreign format version — a future one or the retired text
        # layout — must classify as version, not corruption.
        for version in (99, 3):
            target = fresh_copy("version")
            meta_path = os.path.join(target, "meta.json")
            with open(meta_path, "r", encoding="utf-8") as f:
                meta = json.load(f)
            meta["version"] = version
            with open(meta_path, "w", encoding="utf-8") as f:
                json.dump(meta, f)
            _expect_load_failure(
                report, f"version:{version}", "storage/version", target,
                ontology, expected=IndexVersionError,
            )

        # Manifest corruption is itself detected.
        target = fresh_copy("manifest")
        with open(
            os.path.join(target, MANIFEST_NAME), "w", encoding="utf-8"
        ) as f:
            f.write("{not json")
        _expect_load_failure(
            report, "manifest:garbage", "storage/manifest", target,
            ontology, expected=IndexCorruptedError,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# WAL faults
# ----------------------------------------------------------------------
def _wal_drills(
    report: Report, index: BiGIndex, ontology, rng: random.Random
) -> None:
    """Tear, flip, and de-magic a committed mutation log.

    The durability contract under attack: recovery keeps exactly the
    longest valid record prefix (never more, never garbage), classifies
    the damage, leaves the file appendable, and replaying the kept
    records — once or twice — reaches the same state as applying the
    ops directly.
    """
    workdir = tempfile.mkdtemp(prefix="bigindex-walfaults-")
    try:
        home = os.path.join(workdir, "idx")
        save_index(index, home)
        wal_path = os.path.join(home, WAL_NAME)

        # A short schedule over real edges: deletes of present edges
        # plus one re-insert, all applicable, so replay changes state.
        edges = sorted(index.base_graph.edges())
        ops = [
            {"op": "delete", "u": u, "v": v}
            for u, v in rng.sample(edges, min(3, len(edges)))
        ]
        if ops:
            ops.append(
                {"op": "insert", "u": ops[0]["u"], "v": ops[0]["v"]}
            )
        with MutationWAL(wal_path) as wal:
            for op in ops:
                wal.commit(op)
        with open(wal_path, "rb") as f:
            pristine = f.read()
        full_ops = [record.op for record in read_wal(wal_path).records]

        # Replay parity: loading (which replays the log) must reach the
        # direct-apply oracle's state exactly.
        report.checks += 1
        oracle = index.cow_clone()
        for op in ops:
            apply_wal_op(oracle, op)
        loaded = None
        try:
            loaded = load_index(home, ontology)
        except Exception as exc:  # noqa: BLE001 - classifying is the point
            _fail(
                report, "wal/replay", "load",
                f"index with a clean WAL failed to load: {exc}",
            )
        else:
            if loaded.state_digest() != oracle.state_digest():
                _fail(
                    report, "wal/replay", "parity",
                    "replayed state differs from applying the "
                    "logged ops directly",
                )

        # Idempotence: replaying the same log again must be a no-op.
        if loaded is not None:
            report.checks += 1
            before = loaded.state_digest()
            replay_wal(loaded, read_wal(wal_path).records)
            if loaded.state_digest() != before:
                _fail(
                    report, "wal/replay", "idempotence",
                    "replaying an already-applied log changed state",
                )

        # Torn tails: every sampled truncation point must scan to a
        # clean prefix of the full log, with tail damage classified iff
        # the cut is mid-record.
        magic = len(WAL_MAGIC)
        pinned = {1, magic - 1, magic, magic + 1, len(pristine) - 1}
        others = sorted(set(range(len(pristine))) - pinned)
        offsets = sorted(
            pinned | set(rng.sample(others, min(16, len(others))))
        )
        record_ends = {magic}
        pos = magic
        for op in full_ops:
            pos += len(encode_record(op))
            record_ends.add(pos)
        for cut in offsets:
            report.checks += 1
            scan = scan_wal_bytes(pristine[:cut])
            kept = [record.op for record in scan.records]
            if kept != full_ops[: len(kept)]:
                _fail(
                    report, "wal/torn", f"cut@{cut}",
                    f"scan of a truncated log is not a prefix: {kept}",
                )
            elif cut >= magic and (scan.tail_kind is None) != (
                cut in record_ends
            ):
                _fail(
                    report, "wal/torn", f"cut@{cut}",
                    f"tail diagnosis {scan.tail_kind!r} does not match "
                    f"the cut (record boundary: {cut in record_ends})",
                )

        # A torn file recovers in place and is appendable afterwards.
        report.checks += 1
        torn_path = os.path.join(workdir, "torn.wal")
        with open(torn_path, "wb") as f:
            f.write(pristine[:-3])  # mid-payload tear
        with MutationWAL(torn_path) as torn:
            if torn.recovered_tail is None:
                _fail(
                    report, "wal/recover", "diagnose",
                    "torn tail was not diagnosed on open",
                )
            probe = {"op": "insert", "u": 0, "v": 0}
            torn.commit(probe)
        reread = read_wal(torn_path)  # on_tail="error": must be clean
        if [r.op for r in reread.records] != full_ops[:-1] + [probe]:
            _fail(
                report, "wal/recover", "append",
                "recovered log did not keep the valid prefix plus "
                "the new append",
            )

        # A bit flip past the magic damages the tail, never the prefix.
        report.checks += 1
        offset = rng.randrange(magic, len(pristine))
        bit = 1 << rng.randrange(8)
        flipped = bytearray(pristine)
        flipped[offset] ^= bit
        scan = scan_wal_bytes(bytes(flipped))
        kept = [record.op for record in scan.records]
        if scan.tail_kind is None or kept != full_ops[: len(kept)]:
            _fail(
                report, "wal/bitflip", f"@{offset}",
                f"flip was not classified as tail damage "
                f"(kind={scan.tail_kind!r}, kept={len(kept)})",
            )

        # A de-magicked log is refused outright — including by load.
        home2 = os.path.join(workdir, "badmagic")
        shutil.copytree(home, home2)
        bad_path = os.path.join(home2, WAL_NAME)
        with open(bad_path, "r+b") as f:
            f.write(b"NOTAWAL!")
        _expect_load_failure(
            report, "wal:bad-magic", "wal/magic", home2, ontology,
            expected=WALCorruptedError,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Budget faults
# ----------------------------------------------------------------------
def _budget_drills(
    report: Report,
    case: str,
    index: BiGIndex,
    graph,
    queries,
) -> None:
    """One ``evaluate_resilient`` sweep over the expansion caps, held to
    two contracts per run.

    *Prefix soundness*: a degraded result is a ranking prefix of the
    direct oracle's answers (same scores below ``lower_bound``), a
    complete one matches it exactly.  *Expansion accounting*: searchers
    (``charge_expansions``) and the evaluator (``EvalResult.charge``,
    published once per attempt) count every expansion they debit from
    the budget, so after any run — complete, degraded mid-layer, or degraded after
    retrying the whole ladder — the counter and the budget ledger must
    agree exactly.  Drift means some path charges one side and not the
    other.
    """
    algorithm = BackwardKeywordSearch(d_max=_D_MAX)
    boosted = boost(algorithm, index, allow_layer_zero=True)
    searcher = algorithm.bind(graph)
    for query in queries:
        oracle, _ = eval_direct(graph, algorithm, query, searcher=searcher)
        oracle_scores = [a.score for a in top_k(oracle, None)]
        for cap in _EXPANSION_CAPS:
            where = f"{case} {list(query.keywords)} cap={cap}"
            budget = Budget(max_expansions=cap)
            with instrumented(trace=False) as inst:
                result = boosted.evaluate_resilient(query, budget=budget)
            report.checks += 1
            got = [a.score for a in result.answers]
            if result.degraded:
                want = [s for s in oracle_scores if s < result.lower_bound]
                if got != want:
                    _fail(
                        report, "budget/prefix", where,
                        f"degraded scores {got} != oracle prefix "
                        f"{want} below {result.lower_bound}",
                    )
            elif got != oracle_scores:
                _fail(
                    report, "budget/complete", where,
                    f"complete result scores {got} != oracle "
                    f"{oracle_scores}",
                )
            report.checks += 1
            counted = inst.metrics.counter("search.expansions")
            if counted != budget.expansions:
                _fail(
                    report, "budget/accounting", where,
                    f"telemetry counted {counted} expansion(s), "
                    f"budget charged {budget.expansions}",
                )


def _clock_and_cancel_drills(report: Report) -> None:
    # Clock skew: once expired, a backward-jumping clock must not revive
    # the budget, and elapsed() must stay monotone.
    report.checks += 1
    clock = _FakeClock([0.0, 10.0, 3.0, 1.0, 0.5])
    budget = Budget(deadline=5.0, clock=clock)
    try:
        budget.charge(1)  # clock reads 10.0 -> expired
    except BudgetExceeded as exc:
        if exc.reason != "deadline":
            _fail(
                report, "clock/skew", "deadline",
                f"expected reason 'deadline', got {exc.reason!r}",
            )
        # Subsequent backward jumps (3.0, 1.0, 0.5) must keep it expired.
        if budget.exhausted_reason() != "deadline" or budget.elapsed() < 10.0:
            _fail(
                report, "clock/skew", "stickiness",
                "backward clock jump un-expired the budget "
                f"(reason={budget.exhausted_reason()!r}, "
                f"elapsed={budget.elapsed()})",
            )
    else:
        _fail(
            report, "clock/skew", "deadline",
            "deadline budget did not trip past its deadline",
        )

    # Cancellation: a tripped token aborts the next charge.
    report.checks += 1
    token = CancellationToken()
    budget = Budget(token=token)
    budget.charge(100)  # unlimited budget: charges freely
    token.cancel()
    try:
        budget.charge(1)
    except BudgetExceeded as exc:
        if exc.reason != "cancelled":
            _fail(
                report, "cancel", "reason",
                f"expected reason 'cancelled', got {exc.reason!r}",
            )
    else:
        _fail(
            report, "cancel", "latch",
            "cancelled token did not abort the charge",
        )


# ----------------------------------------------------------------------
def run_fault_injection(
    quick: bool = True, seed: int = 0, num_layers: int = 2
) -> Report:
    """Run every fault drill over the deterministic corpus.

    Parameters mirror :func:`repro.verify.runner.run_verification`.
    """
    report = Report(
        "faults", unit="fault scenario(s)", notes={"seed": seed}
    )
    rng = random.Random(seed)
    _clock_and_cancel_drills(report)
    for case_index, (name, graph, ontology) in enumerate(
        verification_corpus(quick=quick, seed=seed)
    ):
        index = BiGIndex.build(
            graph.copy(),
            ontology,
            num_layers=num_layers,
            cost_params=CostParams(exact=True),
        )
        if case_index == 0:
            # Storage drills are O(files x copies); smallest case only.
            _storage_drills(report, index, ontology, rng)
            _wal_drills(report, index, ontology, rng)
        queries = probe_queries(graph)
        if quick:
            queries = queries[:2]
        _budget_drills(report, name, index, graph, queries)
    return report
