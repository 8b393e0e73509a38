"""Pinned hot-path micro-suite and benchmark-regression gate.

``repro-bigindex bench`` runs a fixed, seeded workload over the kernels
no end-to-end workload isolates; ``bench --check`` replays it against the
committed baseline (``BENCH_hotpaths.json``) and exits non-zero on a
regression.  The gate keeps the three kinds of number one run can decide:

* **exact** work counts (blocks, expansions, answers, layer sizes, cut
  edges, the ``counters.*`` telemetry blocks), compared for equality;
* **reference-speed timings** (``*.ref_seconds``) of single-threaded
  in-process kernels — refinement, the four searchers, edge-write
  maintenance, batched evaluation, shard planning — at 25% plus an
  absolute slack;
* **same-run ratios** — observability on/off over one serve workload,
  serial/parallel sharded build — which divide two arms of the same run
  and need no baseline at all.

Socket wall clocks (``serve.read.*``, the two ``obs.serve.overhead``
arms, ``shard.query``) and both arms of the
sharded build (one is multi-process, the other runs for ten-odd seconds,
which kernel readings at its two ends do not describe) are *recorded*
under plain ``.seconds`` keys and never compared with a committed
absolute.  What ``benchmarks/e2e --trace 1`` already measures on the real
CLI path — persistence, cold start, cold/warm query latency, serve and
writer throughput, the monolithic build — is not timed here; the passes
behind their *exact* companions (``query.*.answers``,
``serve.qps.warm.answers``, ``build.synt-1k.layer_sizes``) still run.

Host speed on a shared guest wanders by tens of percent over seconds, so
a raw wall clock compared with one from another session measures the
host.  :func:`reference_seconds` uses the end-to-end benchmark's method
instead — a frozen allocation-free kernel read beside every timed repeat
— and :func:`run_suite` pins the process to one CPU, the only place the
kernel samples the speed the timed code just ran at.  Run it under
``PYTHONHASHSEED=0`` (CI does) so dict and set layouts repeat.
"""

from __future__ import annotations

import gc
import os
import platform
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager, nullcontext
from statistics import median
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List
from typing import NamedTuple, Optional, Tuple

from repro.bisim.refinement import maximal_bisimulation
from repro.core.cost import CostParams
from repro.core.evaluator import HierarchicalEvaluator
from repro.core.index import BiGIndex
from repro.core.plugins import BoostedSearch
from repro.core.sharding import ShardedEvaluator, build_sharded, plan_shards
from repro.datasets.synthetic import (
    deep_dataset,
    synthetic_dataset,
    verification_corpus,
)
from repro.obs.reqlog import RequestLog
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery, KeywordSearchAlgorithm
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.serve.client import ServeClient
from repro.serve.lifecycle import EngineRuntime
from repro.serve.server import serve_in_thread
from repro.serve.service import QueryService, ServerConfig
from repro.utils.budget import Budget
from repro.utils.timers import monotonic_now
from repro.verify.runner import probe_queries

#: Flat ``"group.case.metric" -> value``: floats (seconds), ints (counts),
#: int lists (layer sizes) or the ``counters.*`` ``{counter: count}`` dicts.
Metrics = Dict[str, object]

#: Relative drift a ``.ref_seconds`` entry may show against the baseline.
REF_TOLERANCE = 0.25

#: Absolute slack added on top of the relative tolerance so sub-millisecond
#: entries (toy graphs) don't trip the gate on scheduler noise.
ABS_SLACK_SECONDS = 0.005

#: Keys gated for exact equality (machine-independent determinism); the
#: ``counters.*`` telemetry blocks are exact-gated too.
EXACT_SUFFIXES = (
    ".blocks", ".expansions", ".layer_sizes", ".answers", ".cut_edges",
    ".zone_vertices",
)

#: Ceiling on ``obs.serve.overhead.ratio`` — serving with full
#: observability on (access log, slow-query log, flight recorder, SLO
#: window) may cost at most 2% of throughput versus everything off.
OBS_OVERHEAD_LIMIT = 1.02

#: Per-request absolute noise floor for the overhead gate: when the
#: serve passes are so fast that 2% dips under per-request scheduler
#: jitter (single-CPU CI containers see tens of microseconds of it),
#: the gate requires the measured on-off delta to also exceed this
#: many seconds *per request* before failing.
OBS_SLACK_PER_REQUEST = 25e-6

#: Floor on ``shard.build.synt-100k.speedup`` — 4 per-shard build
#: processes must finish the sharded build at least this much faster
#: than the same builds run serially.
SHARD_SPEEDUP_FLOOR = 2.0

#: The speedup floor only binds on hosts with at least this many CPUs;
#: a 1-CPU container runs both arms at the same wall-clock no matter
#: how parallel the build is, so there the ratio is recorded, not gated.
SHARD_SPEEDUP_MIN_CPUS = 4

#: Concurrent ``ServeClient`` connections in every serve pass.
SERVE_THREADS = 4


# ----------------------------------------------------------------------
# The clock: reference seconds on one pinned CPU
# ----------------------------------------------------------------------
#: :func:`kernel`'s lower-decile time on the reference host — the frozen
#: ``CAL_REF_MS = 0.55`` of ``benchmarks/e2e/calib.py``, in seconds.
#: Changing it rescales every ``.ref_seconds`` entry; do not re-measure
#: it per run.
CAL_REF_SECONDS = 0.55e-3

_KERNEL_DATA = [(i * 2654435761) & 0xFFFFFFFF for i in range(3000)]
_KERNEL_SLOTS = {i: 0 for i in range(1024)}


def kernel() -> int:
    """Integer hash-mix over a fixed list into a fixed dict: a copy of
    ``benchmarks/e2e/calib.kernel`` (``benchmarks/`` is not importable
    from the installed package).  Deliberately *not* repro code — gating
    repro code against itself would hide uniform slowdowns — and
    allocation-free, so it neither triggers nor absorbs a collection.
    """
    slots = _KERNEL_SLOTS
    acc = 0
    for x in _KERNEL_DATA:
        acc = ((acc ^ x) * 2246822519) & 0xFFFFFFFF
        slots[acc & 1023] = acc
    return acc


def _wall(fn: Callable[[], object]) -> Tuple[float, object]:
    """(wall-clock seconds, result) of one call."""
    start = monotonic_now()
    result = fn()
    return monotonic_now() - start, result


def _kernel_reading() -> float:
    """The host's speed right now: best of three back-to-back kernel runs.
    The first run after timed code finds the kernel's data evicted from
    the caches and reads up to 1.5x slow; a slow reading makes the repeat
    beside it look fast, and a minimum over repeats would keep it.
    """
    return min(_wall(kernel)[0] for _ in range(3))


class Timing(NamedTuple):
    """Best repeat of one timed callable."""

    ref: float  #: seconds at reference speed (gated as ``.ref_seconds``)
    wall: float  #: raw wall-clock seconds (recorded as ``.seconds``)
    result: object  #: the last call's return value


def reference_seconds(fn: Callable[[], object], repeats: int) -> Timing:
    """Time ``fn`` ``repeats`` times beside the calibration kernel.

    Each repeat's wall clock is divided by the mean of the kernel
    readings taken immediately before and after it and multiplied by
    ``CAL_REF_SECONDS``; both timings returned are minima over repeats.
    """
    refs: List[float] = []
    walls: List[float] = []
    before = _kernel_reading()
    for _ in range(repeats):
        wall, result = _wall(fn)
        after = _kernel_reading()
        walls.append(wall)
        refs.append(wall / ((before + after) / 2.0) * CAL_REF_SECONDS)
        before = after
    return Timing(min(refs), min(walls), result)


def available_cpus() -> FrozenSet[int]:
    """The CPUs this process may run on (all of them off-Linux)."""
    if hasattr(os, "sched_getaffinity"):
        return frozenset(os.sched_getaffinity(0))
    return frozenset(range(os.cpu_count() or 1))


@contextmanager
def cpu_affinity(cpus: Iterable[int]) -> Iterator[None]:
    """Run the body on ``cpus`` (child processes inherit them), then
    restore the caller's affinity; a no-op without ``sched_setaffinity``.
    """
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, original)


# ----------------------------------------------------------------------
# The shared fixture
# ----------------------------------------------------------------------
class Fixture:
    """What the sections share; nothing else crosses between them."""

    def __init__(self, quick: bool, seed: int) -> None:
        self.quick = quick
        self.seed = seed
        self.cpus = available_cpus()  #: before run_suite pins to one
        #: The search / query graph: synt-1k (quick: the first toy graph).
        if quick:
            _, self.graph, self.ontology = verification_corpus(True, seed)[0]
            cost_params = CostParams(exact=True)
        else:
            self.graph, self.ontology = synthetic_dataset("synt-1k", seed=seed)
            cost_params = CostParams(num_samples=25)
        self.queries = probe_queries(self.graph)
        #: The 2-layer index every query and serve section evaluates on.
        with instrumented(trace=False) as inst:
            self.index = BiGIndex.build(
                self.graph.copy(),
                self.ontology,
                num_layers=2,
                cost_params=cost_params,
            )
        self.build_counters = inst.metrics.counters()
        #: Answers one uncached in-process pass over ``queries`` returns —
        #: the count every cached, batched, served or logged pass must match.
        self.answers_per_pass = _answers(_boosted(self.index), self.queries)


def _boosted(index: BiGIndex, cache_size: int = 128) -> BoostedSearch:
    bkws = BackwardKeywordSearch(d_max=3, k=10)
    return BoostedSearch(
        bkws, index, allow_layer_zero=True, cache_size=cache_size
    )


def _serve_evaluator(index: BiGIndex) -> HierarchicalEvaluator:
    return _boosted(index).evaluator


def _uncached_evaluator(index: BiGIndex) -> HierarchicalEvaluator:
    return _boosted(index, cache_size=0).evaluator


def _answers(boosted, queries: List[KeywordQuery]) -> int:
    return sum(
        len(boosted.evaluate_resilient(query).answers) for query in queries
    )


def _expect_answers(what: str, answers: int, expected: int) -> None:
    """Caches, concurrency and logging must never change the answers."""
    if answers != expected:
        raise AssertionError(
            f"{what} changed the answers: {answers} != {expected}"
        )


# ----------------------------------------------------------------------
# Sections: each takes (fixture, repeats) and returns its own metrics
# ----------------------------------------------------------------------
def section_refine(fixture: Fixture, repeats: int) -> Metrics:
    """``refine.<graph>`` — ``maximal_bisimulation`` over the verification
    corpus (plus ``synt-2k`` and ``synt-deep-1k`` in full mode; the
    ``synt-deep-*`` depth stressors are where the worklist algorithm's
    asymptotic advantage shows).  The counter block comes from one extra
    metrics-only pass, so collecting it can never pollute the timing.
    """
    seed = fixture.seed
    cases = [
        (name, graph)
        for name, graph, _ in verification_corpus(fixture.quick, seed)
    ]
    if not fixture.quick:
        cases.append(("synt-2k", synthetic_dataset("synt-2k", seed=seed)[0]))
        cases.append(("synt-deep-1k", deep_dataset("synt-deep-1k", seed=seed)[0]))
    metrics: Metrics = {}
    for name, graph in cases:
        timing = reference_seconds(
            lambda g=graph: maximal_bisimulation(g),
            repeats,
        )
        metrics[f"refine.{name}.ref_seconds"] = timing.ref
        metrics[f"refine.{name}.blocks"] = len(set(timing.result))
        with instrumented(trace=False) as inst:
            maximal_bisimulation(graph)
        metrics[f"counters.refine.{name}"] = inst.metrics.counters()
    return metrics


def section_search(fixture: Fixture, repeats: int) -> Metrics:
    """``search.<algo>`` — the four plugged searchers over the probe
    queries, unbudgeted for the timing, then budgeted for the counts."""
    algorithms: Dict[str, KeywordSearchAlgorithm] = {
        "bkws": BackwardKeywordSearch(d_max=3, k=10),
        "bdws": BidirectionalSearch(d_max=3, k=10),
        "blinks": Blinks(d_max=3, k=10),
        "r-clique": RClique(radius=2, k=10),
    }
    metrics: Metrics = {}
    for name, algorithm in algorithms.items():
        searcher = algorithm.bind(fixture.graph)

        def run_queries(s=searcher):
            for query in fixture.queries:
                s.search(query)

        metrics[f"search.{name}.ref_seconds"] = reference_seconds(
            run_queries, repeats
        ).ref
        # Second, budgeted pass: exact expansion counts (deterministic
        # across machines; timed separately so charge overhead doesn't
        # pollute the timing).  Running it under metrics-only
        # instrumentation doubles as the accounting cross-check: the
        # telemetry counter and the budget ledger observe the same
        # charge_expansions() increments, so any drift is a bug.
        budget = Budget()
        with instrumented(trace=False) as inst:
            for query in fixture.queries:
                searcher.search(query, budget=budget)
        metrics[f"search.{name}.expansions"] = budget.expansions
        counted = inst.metrics.counter("search.expansions")
        if counted != budget.expansions:
            raise AssertionError(
                f"expansion accounting drift for {name}: telemetry "
                f"counted {counted}, budget charged {budget.expansions}"
            )
        metrics[f"counters.search.{name}"] = inst.metrics.counters()
    return metrics


def section_build(fixture: Fixture, repeats: int) -> Metrics:
    """``build.synt-1k.layer_sizes`` — what Algorithm 1 built for the
    fixture (full mode) — and ``counters.build.synt-1k``, the candidates,
    layers and refinement calls that took.  Untimed: its clock is
    ``build.total_s`` on the end-to-end ``build-load`` workload."""
    if fixture.quick:
        return {}
    counters = fixture.build_counters
    kept = ("build.candidates_scored", "build.layers", "refine.calls")
    return {
        "build.synt-1k.layer_sizes": fixture.index.layer_sizes(),
        "counters.build.synt-1k": {key: counters[key] for key in kept},
    }


def section_maintain(fixture: Fixture, repeats: int) -> Metrics:
    """``maintain.<graph>`` — the write path: 16 ops (8 edges deleted and
    re-inserted, spread over the edge list) through ``delete_edge`` /
    ``insert_edge`` on a copy-on-write clone of a 2-layer index, one
    fresh clone per repeat so every repeat does the same work.  Over
    verify-toy-a, plus the fixture's synt-1k index in full mode.  The
    ``counters.maintain.*`` block (``refine.*`` and
    ``build.layers_refreshed``) pins how much refinement a write does: a
    slide back to re-running whole layers fails it.
    """
    name, graph, ontology = verification_corpus(True, fixture.seed)[0]
    toy = fixture.index if fixture.quick else BiGIndex.build(
        graph.copy(),
        ontology,
        num_layers=2,
        cost_params=CostParams(exact=True),
    )
    cases = [(name, toy)]
    if not fixture.quick:
        cases.append(("synt-1k", fixture.index))
    metrics: Metrics = {}
    for name, index in cases:
        edges = sorted(index.base_graph.edges())
        edges = edges[:: max(1, len(edges) // 8)][:8]

        def writes(index=index, edges=edges) -> None:
            clone = index.cow_clone()
            for u, v in edges:
                clone.delete_edge(u, v)
                clone.insert_edge(u, v)

        metrics[f"maintain.{name}.ref_seconds"] = reference_seconds(
            writes, repeats
        ).ref
        with instrumented(trace=False) as inst:
            writes()
        metrics[f"counters.maintain.{name}"] = {
            key: count
            for key, count in inst.metrics.counters().items()
            if key.startswith("refine.") or key == "build.layers_refreshed"
        }
    return metrics


def section_shard(fixture: Fixture, repeats: int) -> Metrics:
    """``shard.build.synt-100k`` and ``shard.query.synt-1k`` (full mode).

    The headline sharding claim: K per-shard builds in separate
    processes finish faster than the same K builds run serially.
    synt-100k is the community-structured locality dataset grown for
    exactly this measurement (small cut => small portal zone); it is
    planned once so both arms time pure construction, and both arms
    build into a directory because that is the path that has a worker
    pool.  Digest equality between the arms is the determinism gate —
    worker count must never change the built index; compare() holds the
    ratio to the CPU-conditional ``SHARD_SPEEDUP_FLOOR``.
    """
    if fixture.quick:
        return {}
    graph, ontology = synthetic_dataset("synt-100k", seed=fixture.seed)
    build_kwargs = dict(num_layers=2, cost_params=CostParams(num_samples=25))
    planning = reference_seconds(
        lambda: plan_shards(graph, 4, halo_radius=6), repeats
    )
    plan = planning.result
    workers = min(4, len(fixture.cpus))
    with tempfile.TemporaryDirectory(prefix="bench-shard-") as tmp:

        def build_arm(arm: str, arm_workers: int):
            return build_sharded(
                graph.copy(), ontology, 4,
                halo_radius=6, plan=plan, workers=arm_workers,
                directory=os.path.join(tmp, arm), **build_kwargs,
            )

        serial = reference_seconds(lambda: build_arm("serial", 1), 1)
        # The worker processes inherit the affinity in force when the
        # pool starts: lift the one-CPU pin for this arm only.
        with cpu_affinity(fixture.cpus):
            parallel = reference_seconds(
                lambda: build_arm("parallel", workers), 1
            )
        if parallel.result.state_digest() != serial.result.state_digest():
            raise AssertionError(
                "sharded build is worker-count dependent: parallel and "
                "serial digests differ"
            )
        layer_sizes = serial.result.layer_sizes()

    # Scatter-gather top-k through ShardedEvaluator over a 4-shard
    # synt-1k; every answer is byte-checked against the monolithic
    # hierarchy before timing (the exactness claim the shard drill gates
    # in verify, re-asserted on the bench corpus).
    sharded = build_sharded(
        fixture.graph.copy(), fixture.ontology, 4,
        halo_radius=6, workers=1, **build_kwargs,
    )
    algorithm = BackwardKeywordSearch(d_max=3, k=10)
    shard_eval = ShardedEvaluator(sharded, algorithm)
    mono_eval = HierarchicalEvaluator(
        fixture.index, algorithm, allow_layer_zero=True
    )
    for query in fixture.queries:
        ours, theirs = (
            [(a.score, a.signature()) for a in e.evaluate(query).answers]
            for e in (shard_eval, mono_eval)
        )
        if ours != theirs:
            raise AssertionError(
                f"scatter-gather diverged from monolithic on "
                f"{list(query.keywords)}: {ours!r} != {theirs!r}"
            )
    scatter = reference_seconds(
        lambda: sum(
            len(shard_eval.evaluate(query).answers)
            for query in fixture.queries
        ),
        repeats,
    )
    return {
        "shard.build.synt-100k.plan.ref_seconds": planning.ref,
        "shard.build.synt-100k.cut_edges": len(plan.cut_edges),
        "shard.build.synt-100k.zone_vertices": len(plan.zone_vertices),
        "shard.build.synt-100k.serial.seconds": serial.wall,
        "shard.build.synt-100k.parallel.seconds": parallel.wall,
        "shard.build.synt-100k.parallel.workers": workers,
        "shard.build.synt-100k.layer_sizes": layer_sizes,
        "shard.build.synt-100k.host_cpus": len(fixture.cpus),
        "shard.build.synt-100k.speedup": round(serial.wall / parallel.wall, 2),
        "shard.query.synt-1k.seconds": scatter.wall,
        "shard.query.synt-1k.answers": scatter.result,
        "shard.query.synt-1k.shards": sharded.num_shards,
        "shard.query.synt-1k.cut_edges": sharded.cut_edge_count(),
    }


def section_query(fixture: Fixture, repeats: int) -> Metrics:
    """``query.cold`` / ``query.warm`` / ``query.batch`` — the boosted
    query path (``eval_Ont`` via ``boost-bkws``) on the 2-layer index.

    Cold drops every cache (postings, the ``Spec`` memo) and runs on a
    new evaluator (an empty result cache); warm repeats the workload on
    one evaluator so the second pass is served from the result cache; batch
    runs the workload (queries x 4) through ``evaluate_many``.  Only the
    batch is timed (cold and warm latency are ``eval.total_ms`` and
    ``serve-hot`` ``p50_ms`` end to end); all three totals are exact.
    """
    index = fixture.index

    def drop_caches() -> None:
        """Everything lazily derived: postings and memos."""
        index.drop_caches()
        index.base_graph.drop_caches()
        for layer in index.layers:
            layer.graph.drop_caches()

    drop_caches()
    cold_answers = _answers(_boosted(index), fixture.queries)
    warm = _boosted(index)
    populate_answers = _answers(warm, fixture.queries)  # fills the cache
    warm_answers = _answers(warm, fixture.queries)
    workload = list(fixture.queries) * 4

    def run_batch() -> int:
        drop_caches()
        results = _boosted(index).evaluate_many(workload)
        return sum(len(result.answers) for result in results)

    batch = reference_seconds(run_batch, repeats)
    for label, answers, passes in (
        ("cold", cold_answers, 1),
        ("populate", populate_answers, 1),
        ("warm", warm_answers, 1),
        ("batch", batch.result, 4),
    ):
        expected = passes * fixture.answers_per_pass
        _expect_answers(f"query caching ({label})", answers, expected)
    return {
        "query.cold.answers": cold_answers,
        "query.warm.answers": warm_answers,
        "query.batch.ref_seconds": batch.ref,
        "query.batch.queries": len(workload),
        "query.batch.answers": batch.result,
    }


def _answer_count(response) -> int:
    """A served response's answer count; any status but 200 fails."""
    if response.status != 200:
        raise AssertionError(
            f"serve bench got HTTP {response.status}: {response.payload}"
        )
    return len(response.payload["answers"])


def _client_pass(
    service: QueryService, queries: List[KeywordQuery], threads: int, rounds: int
) -> Tuple[float, int, List[float]]:
    """One closed-loop pass over a live server: (elapsed, answers, latencies).

    The full ``repro-bigindex serve`` path — real sockets, one handler
    thread per persistent connection, admission, JSON — with ``threads``
    clients each replaying ``queries`` ``rounds`` times.
    """

    def worker(_worker_id: int) -> Tuple[int, List[float]]:
        answers = 0
        latencies: List[float] = []
        with ServeClient("127.0.0.1", server.port, max_retries=0) as client:
            for _ in range(rounds):
                for query in queries:
                    start = monotonic_now()
                    response = client.query(list(query.keywords))
                    latencies.append(monotonic_now() - start)
                    answers += _answer_count(response)
        return answers, latencies

    with serve_in_thread(service) as server:
        start = monotonic_now()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, range(threads)))
        elapsed = monotonic_now() - start
    return (
        elapsed,
        sum(answers for answers, _ in results),
        [sample for _, latencies in results for sample in latencies],
    )


def _p99(samples: List[float]) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]


def section_serve(fixture: Fixture, repeats: int) -> Metrics:
    """``serve.qps.warm.answers`` and ``serve.read.*_p99``.

    The first pass exact-gates what concurrent serving returns (its
    throughput is ``serve-hot``'s ``ops_per_s``).  The reader passes
    record p99 idle (cached and uncached) versus under a writer streaming
    mutations through the copy-on-write runtime, which no end-to-end
    workload has; their answers are deliberately *not* gated: readers pin
    whichever snapshot is current when they arrive, so they vary.
    """
    rounds = 2 if fixture.quick else 6
    service = QueryService(EngineRuntime(fixture.index, _serve_evaluator))
    _, served_answers, _ = _client_pass(
        service, fixture.queries, SERVE_THREADS, rounds
    )
    _expect_answers(
        "concurrent serving",
        served_answers,
        SERVE_THREADS * rounds * fixture.answers_per_pass,
    )

    runtime = EngineRuntime(fixture.index.cow_clone(), _serve_evaluator)
    mutate_service = QueryService(runtime)
    edges = sorted(fixture.index.base_graph.edges())

    def writer() -> None:
        # Delete-then-reinsert pairs: real maintenance work on every op,
        # and the final snapshot returns to the baseline state.
        for u, v in edges[: 8 if fixture.quick else 24]:
            runtime.mutate(lambda index: index.delete_edge(u, v))
            runtime.mutate(lambda index: index.insert_edge(u, v))

    def reader_pass(service: QueryService = mutate_service) -> List[float]:
        return _client_pass(
            service, fixture.queries, SERVE_THREADS,
            2 if fixture.quick else 4,
        )[2]

    reader_pass()  # warm the snapshot evaluator, unrecorded
    idle = reader_pass()  # result-cache hits; the uncached pass runs eval_Ont
    idle_uncached = reader_pass(
        QueryService(EngineRuntime(fixture.index, _uncached_evaluator))
    )
    writer_thread = threading.Thread(target=writer, name="bench-mutator")
    writer_thread.start()
    under = reader_pass()
    writer_thread.join()
    return {
        "serve.qps.warm.requests": SERVE_THREADS * rounds * len(fixture.queries),
        "serve.qps.warm.threads": SERVE_THREADS,
        "serve.qps.warm.answers": served_answers,
        "serve.read.idle_p99.seconds": _p99(idle),
        "serve.read.idle_uncached_p99.seconds": _p99(idle_uncached),
        "serve.read.mutate_p99.seconds": _p99(under),
    }


def section_obs(fixture: Fixture, repeats: int) -> Metrics:
    """``obs.serve.overhead`` — the serve workload with all request
    observability off (no access log, no flight recorder, no SLO window,
    no metrics) and fully lit (structured access log, slow-query mirror,
    flight recorder, rolling SLO window, and the evaluator's metrics
    recorded as ``repro-bigindex serve`` records them:
    ``instrumented(metrics=..., trace=False)``).  Both arms bind without
    a result cache, so every timed request runs ``eval_Ont``.

    compare() gates the on/off ratio of the run's *own* figures.  Both
    arms serve at once, one client each, and every probe query goes to
    both back to back (order alternated), so a pair's two requests run
    at the same host speed.  The figures price a serve pass
    (``SERVE_THREADS * rounds`` replays of each query): ``off`` at each
    query's median dark latency, ``on`` that plus the median of its
    paired on-off differences.  On a shared 2-vCPU host, whole passes
    timed in pairs swung the median pair's on-off delta between -2.6
    and +13.7 ms over nine runs of one tree; paired requests held it
    between 1.9 and 4.2 ms over ten.
    """
    sweeps, rounds = (5, 1) if fixture.quick else (300, 3)
    replays = SERVE_THREADS * rounds
    off: List[List[float]] = [[] for _ in fixture.queries]
    delta: List[List[float]] = [[] for _ in fixture.queries]
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        access_log = RequestLog(os.path.join(tmp, "access.jsonl"))
        slow_log = RequestLog(os.path.join(tmp, "access.jsonl.slow"))
        dark, lit = (
            QueryService(EngineRuntime(fixture.index, _uncached_evaluator), **kw)
            for kw in (
                {"config": ServerConfig(flight_records=0, slo_window_seconds=0.0)},
                {"config": ServerConfig(slow_query_ms=250.0),
                 "access_log": access_log, "slow_log": slow_log},
            )
        )
        with ExitStack() as stack:
            clients = [
                stack.enter_context(ServeClient(
                    "127.0.0.1",
                    stack.enter_context(serve_in_thread(service)).port,
                    max_retries=0,
                ))
                for service in (dark, lit)
            ]

            def timed(arm: int, keywords: List[str]) -> Tuple[float, int]:
                obs = instrumented(metrics=lit.metrics, trace=False)
                with obs if arm else nullcontext():
                    start = monotonic_now()
                    response = clients[arm].query(keywords)
                    elapsed = monotonic_now() - start
                return elapsed, _answer_count(response)

            for sweep in range(sweeps + 1):  # sweep 0 warms both, untimed
                answers = [0, 0]
                for i, query in enumerate(fixture.queries):
                    order = (0, 1) if (sweep + i) % 2 else (1, 0)
                    runs = {arm: timed(arm, list(query.keywords)) for arm in order}
                    for arm in (0, 1):
                        answers[arm] += runs[arm][1]
                    if sweep:
                        off[i].append(runs[0][0])
                        delta[i].append(runs[1][0] - runs[0][0])
                for count in answers:
                    _expect_answers("observability", count, fixture.answers_per_pass)
        access_log.close()
        slow_log.close()
    off_seconds = replays * sum(map(median, off))
    on_seconds = off_seconds + replays * sum(map(median, delta))
    return {
        "obs.serve.overhead.off.seconds": off_seconds,
        "obs.serve.overhead.on.seconds": on_seconds,
        "obs.serve.overhead.answers": replays * fixture.answers_per_pass,
        "obs.serve.overhead.requests": replays * len(fixture.queries),
        "obs.serve.overhead.ratio": round(on_seconds / off_seconds, 4),
    }


#: The suite, in run order.  The shard section has returned (and been
#: collected) before the serve sections run, so reader p99s do not
#: measure a GC pass over millions of dead synt-100k objects.
SECTIONS = (
    section_refine, section_search, section_build, section_maintain,
    section_shard, section_query, section_serve, section_obs,
)


def run_suite(quick: bool = False, seed: int = 0, repeats: int = 3) -> Metrics:
    """Run the pinned micro-suite and return its flat metric dict.

    ``quick`` restricts to the toy corpus and skips the build and shard
    sections — a smoke-sized subset for tests, not comparable to a
    full-mode baseline (:func:`compare` refuses to mix modes).  The
    process is pinned to one CPU for the duration; the caller's affinity
    is restored on the way out.
    """
    metrics: Metrics = {"mode": "quick" if quick else "full"}
    fixture = Fixture(quick, seed)
    with cpu_affinity({max(fixture.cpus)}):
        for section in SECTIONS:
            metrics.update(section(fixture, repeats))
            gc.collect()
    return metrics


# ----------------------------------------------------------------------
# Baseline documents and the regression gate
# ----------------------------------------------------------------------
def make_document(
    metrics: Metrics, baseline: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """The JSON document committed as ``BENCH_hotpaths.json`` (schema 2:
    ``.ref_seconds`` gated, ``.seconds`` recorded).  ``before`` and
    ``speedups`` are the PR-3 evidence — raw wall clocks of the pre- and
    post-overhaul code from one session — carried forward from
    ``baseline`` verbatim: nothing divides a raw wall clock from one
    session by a reference-speed number from another.
    """
    document: Dict[str, object] = {
        "schema": 2,
        # Where the measurement was taken: recorded, never compared.
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "current": metrics,
    }
    for block in ("before", "speedups"):
        if baseline and block in baseline:
            document[block] = baseline[block]
    return document


def compare(current: Metrics, baseline: Metrics) -> List[str]:
    """Regressions of ``current`` against ``baseline``, as messages.

    Keys are gated by what their name says they are: ``EXACT_SUFFIXES``
    and ``counters.*`` fail on any difference; ``.ref_seconds`` fails
    above ``baseline * (1 + REF_TOLERANCE) + ABS_SLACK_SECONDS``; the two
    same-run ratios are judged on the current run's own pair; plain
    ``.seconds`` is recorded, never compared.  A gated baseline key
    missing from the current run fails; an empty list passes.
    """
    if current.get("mode") != baseline.get("mode"):
        return [
            f"mode mismatch: current={current.get('mode')!r} "
            f"baseline={baseline.get('mode')!r}; quick and full runs "
            f"are not comparable"
        ]

    failures: List[str] = []
    for key, base_value in sorted(baseline.items()):
        cur_value = current.get(key)
        if key.endswith(EXACT_SUFFIXES) or key.startswith("counters."):
            if cur_value != base_value:
                failures.append(
                    f"{key}: {cur_value!r} != baseline {base_value!r} "
                    f"(deterministic metric; must match exactly)"
                )
        elif key.endswith((".ref_seconds", ".ratio", ".speedup")):
            if not isinstance(cur_value, (int, float)):
                failures.append(f"{key}: missing from current run")
            elif key.endswith(".ref_seconds"):
                allowed = base_value * (1 + REF_TOLERANCE) + ABS_SLACK_SECONDS
                if cur_value > allowed:
                    failures.append(
                        f"{key}: {cur_value:.6f}s exceeds allowance "
                        f"{allowed:.6f}s (baseline {base_value:.6f}s at "
                        f"reference speed, tolerance {REF_TOLERANCE:.0%})"
                    )

    # Observability overhead is gated against the current run's own
    # on/off pair — a ratio is machine-independent.  The absolute slack
    # (flat plus per-request) absorbs scheduler jitter when both passes
    # are fast enough that 2% dips below measurement resolution.
    ratio = current.get("obs.serve.overhead.ratio")
    if ratio is not None and ratio > OBS_OVERHEAD_LIMIT:
        on_seconds = current["obs.serve.overhead.on.seconds"]
        off_seconds = current["obs.serve.overhead.off.seconds"]
        obs_slack = max(
            ABS_SLACK_SECONDS,
            current["obs.serve.overhead.requests"] * OBS_SLACK_PER_REQUEST,
        )
        if on_seconds - off_seconds > obs_slack:
            failures.append(
                f"obs.serve.overhead.ratio: {ratio:.4f} exceeds "
                f"{OBS_OVERHEAD_LIMIT:.2f} (observability on "
                f"{on_seconds:.6f}s vs off {off_seconds:.6f}s, slack "
                f"{obs_slack:.6f}s; the instrumented serve path may cost "
                f"at most 2%)"
            )

    # Sharded-build speedup is gated against the current run's own
    # serial/parallel pair, and only when the host has enough cores for
    # parallelism to show at all.
    speedup = current.get("shard.build.synt-100k.speedup")
    if speedup is not None and speedup < SHARD_SPEEDUP_FLOOR:
        cpus = current["shard.build.synt-100k.host_cpus"]
        if cpus >= SHARD_SPEEDUP_MIN_CPUS:
            failures.append(
                f"shard.build.synt-100k.speedup: {speedup:.2f}x is below "
                f"the {SHARD_SPEEDUP_FLOOR:.1f}x floor on a {cpus}-CPU "
                f"host (4 per-shard build processes vs serial)"
            )
    return failures


def format_metrics(metrics: Metrics) -> str:
    """Human-readable metric table (timings in ms, counts verbatim)."""
    lines: List[str] = []
    for key, value in sorted(metrics.items()):
        if key.endswith("seconds"):
            unit = "ref-ms" if key.endswith(".ref_seconds") else "ms"
            lines.append(f"  {key:<44s} {value * 1e3:10.3f} {unit}")
        else:
            lines.append(f"  {key:<44s} {value!r}")
    return "\n".join(lines)
