"""Process-level crash-recovery chaos drill for ``repro-bigindex serve``.

The in-process legs (:mod:`repro.verify.servecheck`) prove the runtime's
concurrency story; this drill proves the *durability* story the only way
it can be proved — by actually killing the process.  One round:

1. a real ``repro-bigindex serve --admin`` subprocess serves a persisted
   index,
2. the drill streams admin mutations over HTTP, tracking exactly which
   ops were **acked** (HTTP 200 received),
3. at a seeded random point mid-stream the drill captures the server's
   ``/admin/flight`` ring (the pre-kill request timeline, checked
   against the ack ledger and later diffed against the recovered WAL
   prefix so a durability failure names lost request IDs, not just a
   digest), then sends one more op and ``SIGKILL``\\ s the server a few
   milliseconds later — before, during, or after that op's WAL commit,
4. optionally (seeded) the drill then appends garbage to the WAL,
   simulating a write torn mid-``fsync``,
5. the server restarts; its ``/admin/digest`` must equal an in-process
   oracle that applied **exactly the acked prefix** — or, when the kill
   raced the final ack, the acked prefix plus that one in-flight op
   (durable-but-unacked is allowed; acked-but-lost never is).

The last round ends with ``SIGTERM`` instead: the server must drain,
fsync, and exit 0 (the graceful path), and a final restart must still
agree with the oracle.  Every decision derives from one seed, so a
failure reproduces exactly.  ``repro-bigindex verify --serve`` runs this
after the in-process battery; CI's ``chaos-smoke`` job runs it through
``scripts/chaos_drill.py``.
"""

from __future__ import annotations

import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

import repro
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.persistence import WAL_NAME, load_index, save_index
from repro.core.wal import apply_wal_op
from repro.datasets.knowledge import dataset_registry
from repro.serve.client import ServeClient
from repro.verify.drill import Report

#: Dataset the drill serves; small enough to build in well under a
#: second with exact costs, real enough to have ontology layers.
_DATASET = "yago-like"
_SCALE = 0.05
_NUM_LAYERS = 2


class _ServerProcess:
    """One ``repro-bigindex serve`` subprocess with a captured log."""

    def __init__(self, index_dir: str, log_path: str) -> None:
        self.index_dir = index_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.url: Optional[str] = None
        self._log_offset = 0

    def start(self, deadline: float = 60.0) -> str:
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__
        )))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing
            else os.pathsep.join([src_root, existing])
        )
        cmd = [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            self.index_dir,
            "--admin",
            "--ontology-from", _DATASET,
            "--scale", str(_SCALE),
            "--port", "0",
            "--drain-deadline", "5",
        ]
        log = open(self.log_path, "ab")
        try:
            self._log_offset = log.tell()
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        finally:
            log.close()
        self.url = self._await_url(deadline)
        return self.url

    def _await_url(self, deadline: float) -> str:
        """Parse ``on http://...`` from the startup line as it appears."""
        end = time.monotonic() + deadline
        while time.monotonic() < end:
            if self.proc is not None and self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited during startup (rc "
                    f"{self.proc.returncode}): {self.log_tail()}"
                )
            for line in self.new_log_lines(consume=False):
                if " on http://" in line:
                    return line.split(" on ", 1)[1].split()[0]
            time.sleep(0.02)
        raise RuntimeError(f"server startup timed out: {self.log_tail()}")

    def new_log_lines(self, consume: bool = True) -> List[str]:
        """Log lines written since the last consumed read."""
        try:
            with open(self.log_path, "rb") as f:
                f.seek(self._log_offset)
                data = f.read()
        except FileNotFoundError:
            return []
        if consume:
            self._log_offset += len(data)
        return data.decode("utf-8", errors="replace").splitlines()

    def log_tail(self, lines: int = 5) -> str:
        try:
            with open(self.log_path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            return "<no log>"
        return " | ".join(
            data.decode("utf-8", errors="replace").splitlines()[-lines:]
        )

    def sigkill(self) -> None:
        assert self.proc is not None
        self.proc.kill()
        self.proc.wait()

    def sigterm(self, timeout: float = 30.0) -> int:
        assert self.proc is not None
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _tear_wal_tail(index_dir: str, rng: random.Random) -> None:
    """Append a partial record, as a crash mid-append would leave it."""
    garbage = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 7)))
    with open(os.path.join(index_dir, WAL_NAME), "ab") as f:
        f.write(garbage)


def _format_timeline(timeline: List[Dict[str, object]]) -> str:
    """Render a flight dump as one compact attribution line."""
    if not timeline:
        return "<empty flight ring>"
    parts = []
    for rec in timeline:
        desc = (
            f"#{rec.get('seq', '?')} {rec.get('request_id', '?')} "
            f"{rec.get('method', '?')} {rec.get('path', '?')} "
            f"-> {rec.get('status', '?')}"
        )
        if rec.get("path") == "/admin/mutate":
            desc += (
                f" {rec.get('op', '?')}({rec.get('u', '?')},"
                f"{rec.get('v', '?')})"
                + (" applied" if rec.get("applied") else " no-op")
            )
        parts.append(desc)
    return " | ".join(parts)


def _next_op(rng: random.Random, oracle: BiGIndex) -> Dict[str, int]:
    """A mutation biased to actually apply (so the WAL sees traffic)."""
    edges = sorted(oracle.base_graph.edges())
    n = oracle.base_graph.num_vertices
    if edges and rng.random() < 0.5:
        u, v = edges[rng.randrange(len(edges))]
        return {"op": "delete", "u": u, "v": v}
    return {
        "op": "insert",
        "u": rng.randrange(n),
        "v": rng.randrange(n),
    }


def run_chaos_drill(
    rounds: int = 3,
    ops_per_round: int = 6,
    seed: int = 0,
    workdir: Optional[str] = None,
) -> Report:
    """Kill ``repro-bigindex serve`` mid-mutation-stream; recovery must
    restore exactly the acked prefix (see the module docstring).

    The server recovers from the mmap container, so WAL replay mutates
    an mmap-backed graph — exercising copy-on-write detach under crash
    recovery."""
    report = Report(
        "chaos",
        notes=dict(
            seed=seed, rounds=rounds, ops_sent=0, ops_acked=0, kills=0,
            torn_tails=0, restarts=0, events=[],
        ),
    )
    notes = report.notes
    rng = random.Random(f"chaos:{seed}")
    own_workdir = workdir is None
    if own_workdir:
        workdir = tempfile.mkdtemp(prefix="bigindex-chaos-")
    index_dir = os.path.join(workdir, "idx")
    log_path = os.path.join(workdir, "serve.log")
    server = _ServerProcess(index_dir, log_path)
    try:
        dataset = dataset_registry(scale=_SCALE)[_DATASET]()
        built = BiGIndex.build(
            dataset.graph.copy(),
            dataset.ontology,
            num_layers=_NUM_LAYERS,
            cost_params=CostParams(exact=True),
        )
        save_index(built, index_dir)
        # The oracle loads from the same persisted files the server
        # does, so base-state digests agree byte-for-byte.
        oracle = load_index(index_dir, dataset.ontology)
        applied_acked = 0  # applied ops known durable (acked or matched)

        server.start()
        for round_index in range(rounds):
            final_round = round_index == rounds - 1
            # max_retries=0: every mutate is exactly one HTTP exchange,
            # so "acked" is unambiguous when the kill races the stream.
            client = ServeClient.for_url(
                server.url, timeout=10.0, max_retries=0
            )
            kill_at = rng.randrange(1, ops_per_round)
            # The process serving this round started at the previous
            # restart, so its flight ring holds exactly this round's
            # mutations — track them for the pre-kill capture diff.
            applied_at_round_start = applied_acked
            acked_this_round = 0
            applied_this_round = 0

            # Stream the pre-kill prefix synchronously: every one of
            # these is acked before the kill, so recovery MUST keep it.
            for _ in range(kill_at):
                op = _next_op(rng, oracle)
                notes["ops_sent"] += 1
                response = client.mutate(op["op"], op["u"], op["v"])
                if response.status != 200:
                    report.problems.append(
                        f"round {round_index}: mutate returned HTTP "
                        f"{response.status}: {response.payload}"
                    )
                    continue
                notes["ops_acked"] += 1
                acked_this_round += 1
                if apply_wal_op(oracle, op):
                    applied_acked += 1
                    applied_this_round += 1

            inflight_resolution = "none"
            flight_records_seen = -1
            flight_acked_mutations = -1
            flight_matched = True
            flight_timeline: List[Dict[str, object]] = []
            if final_round:
                # Graceful path: SIGTERM must drain, fsync, and exit 0.
                kill_kind = "sigterm"
                client.close()
                report.checks += 1
                returncode = server.sigterm()
                if returncode != 0:
                    report.problems.append(
                        f"round {round_index}: SIGTERM exit code "
                        f"{returncode} (want 0): {server.log_tail()}"
                    )
                report.checks += 1
                if not any(
                    "shut down cleanly" in line
                    for line in server.new_log_lines()
                ):
                    report.problems.append(
                        f"round {round_index}: no clean-shutdown notice "
                        f"after SIGTERM: {server.log_tail()}"
                    )
            else:
                # Crash path: race one more op against SIGKILL.  The op
                # may die pre-commit (lost, allowed), post-commit but
                # pre-ack (durable-unacked, allowed), or get fully
                # acked — in which case it is durable or the drill
                # fails.
                kill_kind = "sigkill"
                # Pre-kill flight capture: the last-requests ring is
                # the only per-request record of what the process was
                # doing when it died, so a recovery mismatch below can
                # name the request IDs it lost instead of just a
                # digest.  The dump must show every acked mutation of
                # this round (the ring capacity far exceeds a round).
                report.checks += 1
                flight_response = client.flight()
                if flight_response.status != 200:
                    flight_matched = False
                    report.problems.append(
                        f"round {round_index}: /admin/flight HTTP "
                        f"{flight_response.status} before kill"
                    )
                else:
                    flight_timeline = [
                        dict(rec)
                        for rec in flight_response.payload.get(
                            "records", []
                        )
                        if isinstance(rec, dict)
                    ]
                    flight_records_seen = len(flight_timeline)
                    acked_mutation_recs = [
                        rec for rec in flight_timeline
                        if rec.get("path") == "/admin/mutate"
                        and rec.get("status") == 200
                    ]
                    flight_acked_mutations = len(acked_mutation_recs)
                    applied_in_flight = sum(
                        1 for rec in acked_mutation_recs
                        if rec.get("applied")
                    )
                    flight_matched = (
                        flight_acked_mutations == acked_this_round
                        and applied_in_flight == applied_this_round
                        and all(
                            rec.get("request_id")
                            for rec in acked_mutation_recs
                        )
                    )
                    report.checks += 1
                    if not flight_matched:
                        report.problems.append(
                            f"round {round_index}: flight recorder saw "
                            f"{flight_acked_mutations} acked mutation(s) "
                            f"({applied_in_flight} applied), expected "
                            f"{acked_this_round} ({applied_this_round} "
                            f"applied): "
                            f"{_format_timeline(flight_timeline)}"
                        )
                inflight_op = _next_op(rng, oracle)
                notes["ops_sent"] += 1
                inflight_response: List[Optional[int]] = [None]

                def send_inflight(op=inflight_op, out=inflight_response):
                    try:
                        out[0] = client.mutate(
                            op["op"], op["u"], op["v"]
                        ).status
                    except Exception:  # noqa: BLE001 - kill races the ack
                        out[0] = None

                sender = threading.Thread(target=send_inflight)
                sender.start()
                time.sleep(rng.random() * 0.01)
                server.sigkill()
                notes["kills"] += 1
                sender.join(timeout=10.0)
                client.close()
                inflight_acked = inflight_response[0] == 200

                if rng.random() < 0.5:
                    kill_kind = "sigkill+torn-tail"
                    _tear_wal_tail(index_dir, rng)
                    notes["torn_tails"] += 1

            def record_event(
                inflight_resolution: str, wal_records: int, matched: bool
            ) -> None:
                """One kill/restart cycle's outcome: one entry of the
                report's ``events`` note (and of the JSON artifact)."""
                notes["events"].append({
                    "round": round_index,
                    # "sigkill" | "sigkill+torn-tail" | "sigterm"
                    "kill": kill_kind,
                    "acked_before_kill": notes["ops_acked"],
                    # "acked" | "lost" | "durable-unacked" | "none",
                    # "unknown" when the restarted server gave no digest
                    "inflight_resolution": inflight_resolution,
                    "wal_records_after": wal_records,
                    "digest_matched": matched,
                    # Flight-recorder dump captured from the process
                    # just before the kill: total ring records, how
                    # many were acked state-changing mutations, whether
                    # that count matched the oracle's ack ledger, and
                    # the request timeline itself (-1/empty on sigterm
                    # rounds, where the process exits gracefully
                    # instead of being killed).
                    "flight_records": flight_records_seen,
                    "flight_acked_mutations": flight_acked_mutations,
                    "flight_matched": flight_matched,
                    "flight_timeline": flight_timeline,
                })

            # Restart and compare against the oracle alternatives.
            server.start()
            notes["restarts"] += 1
            with ServeClient.for_url(server.url, timeout=10.0) as probe:
                digest_response = probe.request("GET", "/admin/digest")
            report.checks += 1
            if digest_response.status != 200:
                report.problems.append(
                    f"round {round_index}: /admin/digest HTTP "
                    f"{digest_response.status} after restart"
                )
                record_event("unknown", -1, False)
                continue
            served_digest = digest_response.payload.get("digest")
            wal_records = int(
                digest_response.payload.get("wal_records", -1)
            )

            matched = False
            mismatch = None
            if served_digest == oracle.state_digest():
                matched = True
                if kill_kind.startswith("sigkill"):
                    if inflight_acked:
                        # The in-flight op cannot both be applied (its
                        # digest would differ) and acked yet absent —
                        # unless it was a no-op, which acks without
                        # changing state.  Distinguish the two.
                        probe_clone = oracle.cow_clone()
                        if apply_wal_op(probe_clone, inflight_op):
                            # Acked, state-changing, gone: the one
                            # outcome durability forbids.
                            matched = False
                            mismatch = (
                                f"acked op {inflight_op} missing after "
                                f"recovery"
                            )
                        else:
                            # A no-op acks without touching the WAL.
                            inflight_resolution = "acked"
                            notes["ops_acked"] += 1
                    else:
                        inflight_resolution = "lost"
            elif kill_kind.startswith("sigkill"):
                alt = oracle.cow_clone()
                inflight_applied = apply_wal_op(alt, inflight_op)
                if served_digest == alt.state_digest():
                    # Durable before the ack could leave: adopt it so
                    # the oracle tracks the server from here on.
                    matched = True
                    inflight_resolution = (
                        "acked" if inflight_acked else "durable-unacked"
                    )
                    oracle = alt
                    if inflight_applied:
                        applied_acked += 1
                    if inflight_acked:
                        notes["ops_acked"] += 1
                else:
                    mismatch = (
                        f"recovered digest {served_digest!r} matches "
                        f"neither the acked prefix ({applied_acked} "
                        f"applied op(s)) nor acked+1"
                    )
            else:
                mismatch = (
                    f"digest diverged across a graceful restart "
                    f"({served_digest!r})"
                )
            if not matched:
                detail = (
                    f"round {round_index}: {mismatch}: "
                    f"{server.log_tail()}"
                )
                if flight_timeline:
                    detail += (
                        f" | pre-kill flight: "
                        f"{_format_timeline(flight_timeline)}"
                    )
                report.problems.append(detail)

            # The WAL must hold exactly the applied, durable ops.
            report.checks += 1
            if matched and wal_records != applied_acked:
                report.problems.append(
                    f"round {round_index}: WAL holds {wal_records} "
                    f"record(s), expected {applied_acked}"
                )
            # Diff the pre-kill flight timeline against the recovered
            # WAL prefix: every applied mutation the dying process had
            # acked must be durable, and a shortfall names the exact
            # request IDs that were lost.
            if kill_kind.startswith("sigkill") and flight_timeline:
                applied_recs = [
                    rec for rec in flight_timeline
                    if rec.get("path") == "/admin/mutate"
                    and rec.get("status") == 200
                    and rec.get("applied")
                ]
                expected_durable = (
                    applied_at_round_start + len(applied_recs)
                )
                report.checks += 1
                if matched and 0 <= wal_records < expected_durable:
                    lost_from = max(
                        0, wal_records - applied_at_round_start
                    )
                    lost_ids = ", ".join(
                        str(rec.get("request_id", "?"))
                        for rec in applied_recs[lost_from:]
                    )
                    report.problems.append(
                        f"round {round_index}: recovered WAL holds "
                        f"{wal_records} record(s) but the pre-kill "
                        f"flight timeline acked {expected_durable}; "
                        f"lost request(s): {lost_ids}: "
                        f"{_format_timeline(flight_timeline)}"
                    )
            if kill_kind == "sigkill+torn-tail":
                report.checks += 1
                if not any(
                    "truncated a damaged WAL tail" in line
                    for line in server.new_log_lines()
                ):
                    report.problems.append(
                        f"round {round_index}: torn tail was not "
                        f"reported on restart: {server.log_tail()}"
                    )
            record_event(inflight_resolution, wal_records, matched)
        server.sigterm()
    except Exception as exc:  # noqa: BLE001 - the report is the contract
        report.problems.append(
            f"chaos drill aborted: {type(exc).__name__}: {exc}"
        )
    finally:
        server.stop()
        if own_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return report
