"""Serve drill: HTTP responses == single-threaded evaluation, per epoch.

Three legs assert the serving stack adds *nothing* to the evaluation
semantics, all through one comparator (:func:`_read_pass`): every
response is **byte-identical** to the single-threaded in-process
evaluation *for the epoch the response pinned*.  *Canonical bytes* are
the JSON payload minus the volatile fields (timings, budget remainders)
serialized with sorted keys — the strongest equality the wire format
supports.

:func:`run_serve_drill` hammers a live server while mutations land,
:func:`run_mutation_stream_drill` adds the reader latencies (readers must
never block on a writer), and :func:`fuzz_serve` is the maintenance
fuzzer's serving face, mutating through ``/admin/mutate``.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.serve.client import ServeClient
from repro.serve.lifecycle import EngineRuntime
from repro.serve.server import serve_in_thread
from repro.serve.service import QueryService, ServerConfig, canonical_payload
from repro.verify.drill import (
    IndexFactory,
    Op,
    Probe,
    Report,
    draw_ops,
    edge_ops,
    op_to_wal,
    run_ops,
)

AlgorithmFactory = Callable[[], KeywordSearchAlgorithm]

#: Canonical response bytes per (epoch, query keywords).
Expectations = Dict[Tuple[int, ...], Dict[Tuple[str, ...], bytes]]

#: Reader p99 under mutations may not exceed
#: ``max(_LATENCY_FACTOR * idle_p99, idle_p99 + _LATENCY_SLACK)``: a
#: drain-based runtime stalls every in-flight reader for the full
#: layer-refresh (tens of ms), which the factor catches, while the
#: absolute slack (seconds) keeps a sub-millisecond idle p99 from
#: turning scheduler jitter into flakes.
_LATENCY_FACTOR = 3.0
_LATENCY_SLACK = 0.05
_UNIT = "response(s) byte-identical to single-threaded evaluation"


def _canonical_bytes(payload: Dict[str, object]) -> bytes:
    return json.dumps(canonical_payload(payload), sort_keys=True).encode()


def _make_service(
    index: BiGIndex,
    algorithm_factory: AlgorithmFactory,
    enable_admin: bool = True,
) -> QueryService:
    def evaluator_factory(idx: BiGIndex):
        return boost(algorithm_factory(), idx, allow_layer_zero=True).evaluator

    runtime = EngineRuntime(index, evaluator_factory)
    return QueryService(
        runtime, config=ServerConfig(enable_admin=enable_admin)
    )


class _EpochOracle(Probe):
    """Single-threaded oracle: canonical response bytes per (epoch, query).

    An in-process service over a replica index from the same
    deterministic factory.  As a probe its :meth:`check` *records*: run
    under :func:`run_ops` it snapshots every query's response after each
    step, and the live server's epochs must land exactly on these.
    """

    def __init__(
        self,
        index_factory: IndexFactory,
        algorithm_factory: AlgorithmFactory,
        queries: Sequence[KeywordQuery],
    ) -> None:
        self.service = _make_service(
            index_factory(), algorithm_factory, enable_admin=False
        )
        self.queries = list(queries)
        self.expectations: Expectations = {}

    def apply(self, op: Op) -> None:
        self.service.runtime.mutate(op_to_wal(op))

    @property
    def epoch(self) -> Tuple[int, ...]:
        return tuple(self.service.runtime.epoch)

    def check(self, context: str) -> None:
        per_query: Dict[Tuple[str, ...], bytes] = {}
        for query in self.queries:
            body = json.dumps({"keywords": list(query.keywords)}).encode()
            status, payload, _ = self.service.handle(
                "POST", "/query", body, {}
            )
            assert status == 200, f"oracle returned {status}: {payload}"
            per_query[query.keywords] = _canonical_bytes(payload)
        self.expectations[self.epoch] = per_query


def _read_pass(
    client: ServeClient,
    queries: Sequence[KeywordQuery],
    expectations: Expectations,
    who: str,
) -> Tuple[List[float], List[str]]:
    """The one per-epoch comparator: query each of ``queries`` once, time
    and byte-compare every response.

    A response must be a 200, must have pinned an epoch the oracle
    visited (an unknown epoch means a mutation was observed mid-flight —
    a torn read) and must equal the oracle's canonical bytes for that
    epoch (a mismatch within a known epoch is a stale cache hit or a
    mutation published under the wrong epoch).  Returns the per-request
    latencies and the problems.
    """
    latencies: List[float] = []
    problems: List[str] = []
    for query in queries:
        started = time.perf_counter()
        response = client.query(list(query.keywords))
        latencies.append(time.perf_counter() - started)
        where = f"{who} Q={list(query.keywords)}"
        if response.status != 200:
            problems.append(
                f"{where}: HTTP {response.status}: {response.payload}"
            )
            continue
        epoch = tuple(response.payload.get("epoch", ()))
        per_query = expectations.get(epoch)
        if per_query is None:
            problems.append(
                f"{where}: pinned unknown epoch {epoch} (torn read?)"
            )
            continue
        actual = _canonical_bytes(response.payload)
        if actual != per_query[query.keywords]:
            problems.append(
                f"{where} epoch {epoch}: response differs from "
                f"single-threaded evaluation:\n    served: "
                f"{actual.decode()}\n    oracle: "
                f"{per_query[query.keywords].decode()}"
            )
    return latencies, problems


def _p99(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


class _HammerLeg:
    """A live-server leg: a service over a fresh index, the oracle bytes
    for every epoch ``ops`` visits, and N reader threads to hammer it."""

    def __init__(
        self, index_factory, algorithm_factory, queries, threads, rounds,
        ops, seed,
    ) -> None:
        self.report = Report("serve", unit=_UNIT)
        oracle = _EpochOracle(index_factory, algorithm_factory, queries)
        run_ops(ops, oracle.apply, [oracle])
        self.expectations = oracle.expectations
        self.report.notes["epochs"] = len(self.expectations)
        self.service = _make_service(
            index_factory(), algorithm_factory, enable_admin=False
        )
        self.queries = list(queries)
        self.threads, self.rounds, self.seed = threads, rounds, seed

    def mutate(self, op: Op) -> None:
        self.service.runtime.mutate(op_to_wal(op))

    def hammer(self, port: int, write: Callable[[], object]) -> float:
        """``threads`` readers x ``rounds`` shuffled passes while the
        calling thread runs ``write``; every response goes through
        :func:`_read_pass` into the report.  Returns the reader p99.
        Readers never retry: each latency is exactly one HTTP exchange,
        and a shed or dropped request surfaces as a problem."""

        def reader(worker_id: int) -> Tuple[List[float], List[str]]:
            latencies: List[float] = []
            problems: List[str] = []
            order = list(self.queries)
            rng = random.Random(f"{self.seed}:{worker_id}")
            with ServeClient("127.0.0.1", port, max_retries=0) as client:
                for _ in range(self.rounds):
                    rng.shuffle(order)
                    took, found = _read_pass(
                        client, order, self.expectations,
                        f"reader {worker_id}",
                    )
                    latencies.extend(took)
                    problems.extend(found)
            return latencies, problems

        with ThreadPoolExecutor(max_workers=self.threads) as pool:
            futures = [pool.submit(reader, i) for i in range(self.threads)]
            write()
            results = [future.result() for future in futures]
        for latencies, problems in results:
            self.report.checks += len(latencies)
            self.report.problems.extend(problems)
        return _p99([x for latencies, _ in results for x in latencies])


def run_serve_drill(
    index_factory: IndexFactory,
    algorithm_factory: AlgorithmFactory,
    queries: Sequence[KeywordQuery],
    threads: int = 4,
    rounds: int = 3,
    ops: Sequence[Op] = (),
    seed: int = 0,
) -> Report:
    """Hammer a live server and byte-compare every response per epoch.

    ``threads`` client threads each run ``rounds`` passes over the query
    list against a real HTTP server while the main thread applies ``ops``
    through the runtime (copy-on-write clone, epoch bumps); the
    expectations are precomputed by replaying ``ops`` on a replica.
    """
    leg = _HammerLeg(
        index_factory, algorithm_factory, queries, threads, rounds, ops, seed
    )
    rng = random.Random(seed)

    def mutate_after_a_pause(op: Op) -> None:
        # Interleave mutations with the in-flight reader traffic; the
        # jittered pauses vary writer arrival times across runs while
        # the epoch schedule itself stays deterministic.
        time.sleep(0.002 * rng.random())
        leg.mutate(op)

    with serve_in_thread(leg.service) as server:
        leg.hammer(server.port, lambda: run_ops(ops, mutate_after_a_pause))
    return leg.report


def _latency_problem(what: str, idle: float, mutating: float) -> List[str]:
    """The copy-on-write gate on one (idle, under-mutations) p99 pair."""
    bound = max(_LATENCY_FACTOR * idle, idle + _LATENCY_SLACK)
    if mutating <= bound:
        return []
    return [
        f"{what} under mutations {mutating * 1000:.1f}ms exceeds bound "
        f"{bound * 1000:.1f}ms (idle p99 {idle * 1000:.1f}ms "
        f"x{_LATENCY_FACTOR:g} + {_LATENCY_SLACK * 1000:.0f}ms slack) — "
        f"a mutation is blocking readers"
    ]


def run_mutation_stream_drill(
    index_factory: IndexFactory,
    algorithm_factory: AlgorithmFactory,
    queries: Sequence[KeywordQuery],
    threads: int = 4,
    rounds: int = 4,
    ops: Sequence[Op] = (),
    seed: int = 0,
) -> Report:
    """Readers never block while a writer streams mutations.

    The copy-on-write acceptance gate.  Phase one measures reader p99
    against an idle server; phase two repeats the identical workload
    while the main thread streams every op in ``ops`` back-to-back
    through ``runtime.mutate`` (each mutate clones copy-on-write and
    publishes without draining, so reader latency must stay flat).  The
    drill fails if reader p99 under mutations exceeds the
    :data:`_LATENCY_FACTOR` / :data:`_LATENCY_SLACK` bound — client-side
    and again in the server's own rolling SLO window — or any response
    fails :func:`_read_pass` (same oracle as :func:`run_serve_drill`).
    """
    leg = _HammerLeg(
        index_factory, algorithm_factory, queries, threads, rounds, ops, seed
    )
    report = leg.report

    def probe_slo(port: int, phase: str) -> float:
        """The server's own rolling-window /query p99 (from /healthz)."""
        with ServeClient("127.0.0.1", port, max_retries=0) as probe:
            response = probe.healthz()
        slo = response.payload.get("slo")
        if not isinstance(slo, dict) or "/query" not in slo:
            report.problems.append(
                f"{phase}: /healthz has no slo entry for /query "
                f"(got {sorted(slo) if isinstance(slo, dict) else slo!r})"
            )
            return 0.0
        entry = slo["/query"]
        if not entry.get("count"):
            report.problems.append(
                f"{phase}: slo window for /query is empty after the "
                f"reader phase"
            )
            return 0.0
        if entry.get("error_rate"):
            report.problems.append(
                f"{phase}: slo error_rate {entry['error_rate']:.3f} for "
                f"/query (want 0 — no request may fault)"
            )
        return float(entry.get("p99_seconds") or 0.0)

    with serve_in_thread(leg.service) as server:
        idle_p99 = leg.hammer(server.port, lambda: None)
        slo_idle_p99 = probe_slo(server.port, "idle phase")
        # Reset to the baseline snapshot so phase two replays the same
        # epoch schedule the expectations were computed for.
        leg.service.runtime.reload(index_factory())
        mutate_p99 = leg.hammer(server.port, lambda: run_ops(ops, leg.mutate))
        slo_mutate_p99 = probe_slo(server.port, "mutation phase")

    report.notes.update(
        idle_p99_ms=idle_p99 * 1000,
        mutate_p99_ms=mutate_p99 * 1000,
        slo_idle_p99_ms=slo_idle_p99 * 1000,
        slo_mutate_p99_ms=slo_mutate_p99 * 1000,
    )
    report.problems.extend(
        _latency_problem("reader p99", idle_p99, mutate_p99)
    )
    # Same bound, server-side: the rolling SLO gauges must tell the same
    # story the client-side stopwatch does (the window spans both phases,
    # so the mutation-phase probe is an upper bound on recent latency).
    if slo_idle_p99 > 0:
        report.problems.extend(
            _latency_problem(
                "server-side slo /query p99", slo_idle_p99, slo_mutate_p99
            )
        )
    return report


class ServedBytesProbe(_EpochOracle):
    """Served bytes == oracle bytes, with the oracle stepped in lock-step.

    :meth:`apply` carries one edge op to both sides — the live server
    through ``POST /admin/mutate`` (the full HTTP path), the oracle
    through its runtime — and both must land on the same epoch;
    :meth:`check` snapshots the oracle and puts one :func:`_read_pass`
    through the live server (canonical bytes include the epoch, so the
    server's maintenance path must track the oracle's exactly).
    """

    def __init__(
        self, index_factory, algorithm_factory, queries, client: ServeClient,
        report: Report, who: str,
    ) -> None:
        super().__init__(index_factory, algorithm_factory, queries)
        self.client, self.report, self.who = client, report, who

    def apply(self, op: Op) -> None:
        kind, u, v = op
        response = self.client.mutate(kind, u, v)
        if response.status != 200:
            # The oracle is not stepped either, so the sides stay
            # comparable for the ops that follow.
            self.report.problems.append(
                f"{self.who} {op!r}: HTTP {response.status}: "
                f"{response.payload}"
            )
            return
        super().apply(op)
        self.report.notes["fuzz_ops"] += 1
        live_epoch = tuple(response.payload["epoch"])
        if live_epoch != self.epoch:
            self.report.problems.append(
                f"{self.who} {op!r}: live epoch {live_epoch} != oracle "
                f"{self.epoch}"
            )

    def check(self, context: str) -> None:
        super().check(context)
        latencies, problems = _read_pass(
            self.client, self.queries, self.expectations,
            f"{self.who} {context}",
        )
        self.report.checks += len(latencies)
        self.report.problems.extend(problems)


def fuzz_serve(
    index_factory: IndexFactory,
    algorithm_factory: AlgorithmFactory,
    queries: Sequence[KeywordQuery],
    ops_per_sequence: int = 6,
    sequences: int = 1,
    seed: int = 0,
) -> Report:
    """Drive a live server through mutation/query interleavings.

    Per sequence: a fresh admin-enabled server and :func:`run_ops` over
    seeded edge ops with a fresh :class:`ServedBytesProbe` diffing every
    probe query live-vs-oracle before the first op and after each one.
    """
    report = Report("serve", unit=_UNIT)
    report.notes["fuzz_ops"] = 0
    for sequence in range(sequences):
        rng = random.Random(f"serve:{seed}:{sequence}")
        live_index = index_factory()
        service = _make_service(
            live_index, algorithm_factory, enable_admin=True
        )
        with serve_in_thread(service) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                probe = ServedBytesProbe(
                    index_factory, algorithm_factory, queries, client,
                    report, f"seq {sequence}",
                )
                run_ops(
                    edge_ops(draw_ops(rng, live_index, ops_per_sequence)),
                    probe.apply,
                    [probe],
                )
    return report
