"""Pinned hot-path micro-suite and benchmark-regression gate.

The three hot paths this PR optimized — partition refinement, CSR-backed
search, and parallel index construction — each get a fixed, seeded
workload here so their cost can be tracked as a number instead of a
vibe.  ``repro-bigindex bench`` runs the suite and prints it;
``repro-bigindex bench --check`` replays it against the committed
baseline (``BENCH_hotpaths.json``) and exits non-zero when a timing
regresses beyond the tolerance band, which is how CI catches an
accidental de-optimization of a path no functional test times.

Suite (full mode)
-----------------
* ``refine.<graph>`` — ``maximal_bisimulation`` on every graph of the
  differential-verification corpus plus ``synt-2k``; best of ``repeats``
  runs.  ``synt-deep-3k`` is the depth-stress case where the worklist
  algorithm's asymptotic advantage shows.
* ``search.<algo>`` — the four plugged searchers over the seeded probe
  queries on ``synt-1k``; best-of-``repeats`` wall-clock without a
  budget, plus a second budgeted pass recording the exact node-expansion
  count, which is machine-independent.
* ``build.synt-1k`` — a 2-layer ``BiGIndex.build``, serial and with a
  worker pool; best of two runs.
* ``shard.build.synt-100k`` — the sharded build over the
  community-structured 100k-vertex dataset: plan once, then build the 4
  shards + portal zone serially and with 4 worker processes.  Digests
  must match (worker count can never change the index) and the
  serial/parallel ratio is gated at ``SHARD_SPEEDUP_FLOOR`` on hosts
  with >= ``SHARD_SPEEDUP_MIN_CPUS`` cores.
* ``shard.query.synt-1k`` — scatter-gather top-k through
  ``ShardedEvaluator`` over a 4-shard synt-1k; every probe answer is
  byte-checked against the monolithic evaluator before timing.
* ``persist.save.*`` / ``persist.load.cold.*`` — round-trip the query
  index through the v4 mmap container.  Cold loads include full
  manifest verification (every section hashed), so the numbers are
  what a process restart actually pays.  The load's resident-set delta
  is recorded as evidence, not gated (RSS is machine-bound).
* ``serve.coldstart`` — restart-to-first-answer: load the v4 index from
  disk, bind a boosted searcher, and answer the first probe query.  Its
  answer count is exact-gated.
* ``obs.serve.overhead`` — the serve.qps workload twice: once with all
  request observability off (no access log, no flight recorder, no SLO
  window) and once fully lit.  The on/off ratio is gated at
  ``OBS_OVERHEAD_LIMIT`` (2%) against the run's *own* pair, so the gate
  is machine-independent; answer totals are exact-gated.
* ``query.cold`` / ``query.warm`` / ``query.batch`` — the full boosted
  query path (``eval_Ont`` via ``boost-bkws``) over the probe queries on
  a 2-layer index: cold drops every cache (CSR, postings, ``Gen``/
  ``Spec`` memos, result cache) and rebinds the searchers per repeat;
  warm reuses a long-lived evaluator so repeats are served from the
  query-result cache; batch runs the workload (queries x 4) through
  ``evaluate_many``.  The answer totals are gated exactly — the caches
  must never change what a query returns.

Cross-machine gating
--------------------
Wall-clock baselines are machine-bound, so the gate normalizes: each run
also times a fixed pure-Python calibration kernel, and the comparison
scales the baseline's timings by the ratio of calibration times before
applying the tolerance.  A CI runner 2x slower than the machine that
blessed the baseline therefore gets a 2x allowance — the gate measures
*the code*, not the hardware.  Deterministic metrics (block counts,
expansion counts, layer sizes) must match exactly, unscaled.
"""

from __future__ import annotations

import json
import platform
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.bisim.refinement import BisimDirection, maximal_bisimulation
from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.datasets.synthetic import (
    deep_dataset,
    synthetic_dataset,
    verification_corpus,
)
from repro.core.plugins import boost
from repro.obs.runtime import instrumented
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordSearchAlgorithm
from repro.search.bidirectional import BidirectionalSearch
from repro.search.blinks import Blinks
from repro.search.rclique import RClique
from repro.serve.client import ServeClient
from repro.serve.lifecycle import EngineRuntime
from repro.serve.server import serve_in_thread
from repro.serve.service import QueryService
from repro.utils.budget import Budget
from repro.utils.timers import monotonic_now
from repro.verify.runner import probe_queries

#: Metric dictionary: flat ``"group.case.metric" -> value``.  Values are
#: floats (seconds), ints (counts), or lists of ints (layer sizes).
Metrics = Dict[str, object]

#: Absolute slack added on top of the relative tolerance so sub-millisecond
#: entries (toy graphs) don't trip the gate on scheduler noise.
ABS_SLACK_SECONDS = 0.005

#: Keys gated for exact equality (machine-independent determinism).
EXACT_SUFFIXES = (".blocks", ".expansions", ".layer_sizes", ".answers")

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


def machine_info() -> Dict[str, object]:
    """Where a measurement was taken (recorded, never compared)."""
    import os

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def peak_rss_kib() -> Optional[int]:
    """Peak resident set size of this process in KiB (None off-Linux)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def current_rss_kib() -> Optional[int]:
    """Resident set size *right now* in KiB (None off-Linux).

    Unlike :func:`peak_rss_kib` this can go down, so deltas across a
    single operation are meaningful — e.g. how much resident memory a
    cold index load actually faults in.
    """
    import os

    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
    except (OSError, ValueError, IndexError):  # pragma: no cover
        return None
    return pages * os.sysconf("SC_PAGESIZE") // 1024


def calibration_seconds(repeats: int = 3) -> float:
    """A fixed pure-Python kernel timing interpreter+machine speed.

    Deliberately *not* repro code (gating repro code against itself would
    hide uniform slowdowns): signature-shaped dict/tuple churn over fixed
    pseudo-random data, best of ``repeats``.
    """
    rng = random.Random(0)
    data = [
        [rng.randrange(200) for _ in range(8)] for _ in range(2000)
    ]
    best = None
    for _ in range(repeats):
        start = monotonic_now()
        acc: Dict[Tuple[int, ...], int] = {}
        for row in data:
            key = tuple(sorted(set(row)))
            acc[key] = acc.get(key, 0) + 1
        elapsed = monotonic_now() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def _best_of(fn: Callable[[], object], repeats: int) -> Tuple[float, object]:
    """(best wall-clock, last result) over ``repeats`` calls."""
    best = None
    result: object = None
    for _ in range(repeats):
        start = monotonic_now()
        result = fn()
        elapsed = monotonic_now() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _refine_counters(graph) -> Dict[str, int]:
    """One metrics-only refinement pass: the telemetry counters.

    Runs outside the timed loop so counter collection can never pollute
    the wall-clock metric; the counts themselves are deterministic.
    """
    with instrumented(trace=False) as inst:
        maximal_bisimulation(graph, BisimDirection.SUCCESSORS)
    return inst.metrics.counters()


def _search_algorithms(d_max: int = 3, k: int = 10) -> Dict[str, KeywordSearchAlgorithm]:
    return {
        "bkws": BackwardKeywordSearch(d_max=d_max, k=k),
        "bdws": BidirectionalSearch(d_max=d_max, k=k),
        "blinks": Blinks(d_max=d_max, k=k),
        "r-clique": RClique(radius=2, k=k),
    }


def run_suite(
    quick: bool = False,
    seed: int = 0,
    workers: int = 4,
    repeats: int = 3,
) -> Metrics:
    """Run the pinned micro-suite and return its flat metric dict.

    ``quick`` restricts to the toy corpus and skips the index build —
    a smoke-sized subset for tests; its numbers are not comparable to a
    full-mode baseline (:func:`compare` refuses to mix modes).
    """
    metrics: Metrics = {"mode": "quick" if quick else "full"}
    metrics["calibration.seconds"] = calibration_seconds(repeats)

    # --- refinement over the verification corpus -----------------------
    for name, graph, _ontology in verification_corpus(quick=quick, seed=seed):
        elapsed, blocks = _best_of(
            lambda g=graph: maximal_bisimulation(g, BisimDirection.SUCCESSORS),
            repeats,
        )
        metrics[f"refine.{name}.seconds"] = elapsed
        metrics[f"refine.{name}.blocks"] = len(set(blocks))
        metrics[f"counters.refine.{name}"] = _refine_counters(graph)

    if not quick:
        extra = [("synt-2k", synthetic_dataset("synt-2k", seed=seed)[0])]
        # synt-deep-1k: the smaller depth-stress case (synt-deep-3k is
        # already in the verification corpus).
        extra.append(("synt-deep-1k", deep_dataset("synt-deep-1k", seed=seed)[0]))
        for name, extra_graph in extra:
            elapsed, blocks = _best_of(
                lambda g=extra_graph: maximal_bisimulation(
                    g, BisimDirection.SUCCESSORS
                ),
                repeats,
            )
            metrics[f"refine.{name}.seconds"] = elapsed
            metrics[f"refine.{name}.blocks"] = len(set(blocks))
            metrics[f"counters.refine.{name}"] = _refine_counters(extra_graph)

    # --- seed search: the four plugged algorithms ----------------------
    if quick:
        corpus = verification_corpus(quick=True, seed=seed)
        search_graph = corpus[0][1]
    else:
        search_graph, ontology = synthetic_dataset("synt-1k", seed=seed)
    queries = probe_queries(search_graph)
    for name, algorithm in _search_algorithms().items():
        searcher = algorithm.bind(search_graph)

        def run_queries(s=searcher):
            for query in queries:
                s.search(query)

        elapsed, _ = _best_of(run_queries, repeats)
        metrics[f"search.{name}.seconds"] = elapsed
        # Second, budgeted pass: exact expansion counts (deterministic
        # across machines; timed separately so charge overhead doesn't
        # pollute the wall-clock metric).  Running it under metrics-only
        # instrumentation doubles as the accounting cross-check: the
        # telemetry counter and the budget ledger observe the same
        # charge_expansions() increments, so any drift is a bug.
        budget = Budget()
        with instrumented(trace=False) as inst:
            for query in queries:
                searcher.search(query, budget=budget)
        metrics[f"search.{name}.expansions"] = budget.expansions
        counted = inst.metrics.counter("search.expansions")
        if counted != budget.expansions:
            raise AssertionError(
                f"expansion accounting drift for {name}: telemetry "
                f"counted {counted}, budget charged {budget.expansions}"
            )
        metrics[f"counters.search.{name}"] = inst.metrics.counters()

    # --- full index build ----------------------------------------------
    if not quick:
        build_repeats = min(2, repeats)
        elapsed, index = _best_of(
            lambda: BiGIndex.build(
                search_graph.copy(share_label_table=True),
                ontology,
                num_layers=2,
                cost_params=CostParams(num_samples=25),
            ),
            build_repeats,
        )
        metrics["build.synt-1k.serial.seconds"] = elapsed
        metrics["build.synt-1k.layer_sizes"] = index.layer_sizes()

        elapsed, parallel_index = _best_of(
            lambda: BiGIndex.build(
                search_graph.copy(share_label_table=True),
                ontology,
                num_layers=2,
                cost_params=CostParams(num_samples=25),
                workers=workers,
            ),
            build_repeats,
        )
        metrics["build.synt-1k.parallel.seconds"] = elapsed
        metrics["build.synt-1k.parallel.workers"] = workers
        if parallel_index.layer_sizes() != index.layer_sizes():
            raise AssertionError(
                "parallel build diverged from serial: "
                f"{parallel_index.layer_sizes()} != {index.layer_sizes()}"
            )

    # --- sharded build: per-shard processes vs serial --------------------
    # The headline sharding claim: K per-shard builds in separate
    # processes finish ~K/ (K/cpus) faster than the same K builds run
    # serially.  synt-100k is the community-structured locality dataset
    # grown for exactly this measurement (small cut => small portal
    # zone); it is planned once so both arms time pure construction.
    # Digest equality between the arms is the determinism gate — worker
    # count must never change the built index.  The >= 2x speedup floor
    # is enforced by compare(), but only when the measuring host has
    # >= SHARD_SPEEDUP_MIN_CPUS cores (a single-CPU box cannot show a
    # wall-clock win no matter how parallel the build is).
    if not quick:
        import os as _shard_os

        from repro.core.sharding import (
            ShardedEvaluator,
            build_sharded,
            plan_shards,
        )

        shard_graph, shard_ontology = synthetic_dataset(
            "synt-100k", seed=seed
        )
        shard_kwargs = dict(
            num_layers=2, cost_params=CostParams(num_samples=25)
        )
        plan_elapsed, shard_plan = _best_of(
            lambda: plan_shards(shard_graph, 4, halo_radius=6), 1
        )
        metrics["shard.build.synt-100k.plan.seconds"] = plan_elapsed
        metrics["shard.build.synt-100k.cut_edges"] = len(
            shard_plan.cut_edges
        )
        metrics["shard.build.synt-100k.zone_vertices"] = len(
            shard_plan.zone_vertices
        )
        serial_elapsed, serial_sharded = _best_of(
            lambda: build_sharded(
                shard_graph.copy(share_label_table=True),
                shard_ontology,
                4,
                halo_radius=6,
                plan=shard_plan,
                workers=1,
                **shard_kwargs,
            ),
            1,
        )
        shard_workers = max(workers, 4)
        par_elapsed, par_sharded = _best_of(
            lambda: build_sharded(
                shard_graph.copy(share_label_table=True),
                shard_ontology,
                4,
                halo_radius=6,
                plan=shard_plan,
                workers=shard_workers,
                **shard_kwargs,
            ),
            1,
        )
        if par_sharded.state_digest() != serial_sharded.state_digest():
            raise AssertionError(
                "sharded build is worker-count dependent: parallel and "
                "serial digests differ"
            )
        metrics["shard.build.synt-100k.serial.seconds"] = serial_elapsed
        metrics["shard.build.synt-100k.parallel.seconds"] = par_elapsed
        metrics["shard.build.synt-100k.parallel.workers"] = shard_workers
        metrics["shard.build.synt-100k.layer_sizes"] = (
            serial_sharded.layer_sizes()
        )
        metrics["shard.build.synt-100k.host_cpus"] = (
            _shard_os.cpu_count() or 1
        )
        if par_elapsed > 0:
            metrics["shard.build.synt-100k.speedup"] = round(
                serial_elapsed / par_elapsed, 2
            )

        # --- scatter-gather query path vs the monolithic evaluator ------
        # Same probe workload as query.* but through ShardedEvaluator
        # over a 4-shard synt-1k; every answer is byte-checked against
        # the monolithic hierarchy (the exactness claim the shard drill
        # gates in verify, re-asserted on the bench corpus).
        from repro.core.evaluator import HierarchicalEvaluator

        query_sharded = build_sharded(
            search_graph.copy(share_label_table=True),
            ontology,
            4,
            halo_radius=6,
            workers=1,
            **shard_kwargs,
        )
        shard_algorithm = BackwardKeywordSearch(d_max=3, k=10)
        shard_eval = ShardedEvaluator(query_sharded, shard_algorithm)
        mono_index = BiGIndex.build(
            search_graph.copy(share_label_table=True),
            ontology,
            **shard_kwargs,
        )
        mono_eval = HierarchicalEvaluator(
            mono_index, shard_algorithm, allow_layer_zero=True
        )
        for query in queries:
            ours = [
                (a.score, a.signature())
                for a in shard_eval.evaluate(query).answers
            ]
            theirs = [
                (a.score, a.signature())
                for a in mono_eval.evaluate(query).answers
            ]
            if ours != theirs:
                raise AssertionError(
                    f"scatter-gather diverged from monolithic on "
                    f"{list(query.keywords)}: {ours!r} != {theirs!r}"
                )

        def run_scatter() -> int:
            return sum(
                len(shard_eval.evaluate(query).answers)
                for query in queries
            )

        elapsed, scatter_answers = _best_of(run_scatter, repeats)
        metrics["shard.query.synt-1k.seconds"] = elapsed
        metrics["shard.query.synt-1k.answers"] = scatter_answers
        metrics["shard.query.synt-1k.shards"] = query_sharded.num_shards
        metrics["shard.query.synt-1k.cut_edges"] = (
            query_sharded.cut_edge_count()
        )

        # The synt-100k locales are millions of heap objects; if they
        # stay reachable, every gen-2 GC pass during the serve sections
        # below traverses them and the reader p99s measure garbage
        # collection instead of the server.
        import gc as _shard_gc

        del shard_graph, shard_ontology, shard_plan
        del serial_sharded, par_sharded
        del query_sharded, shard_eval, mono_index, mono_eval
        _shard_gc.collect()

    # --- query serving: cold vs warm vs batched -------------------------
    if quick:
        qindex = BiGIndex.build(
            search_graph.copy(share_label_table=True),
            corpus[0][2],
            num_layers=2,
            cost_params=CostParams(exact=True),
        )
    else:
        qindex = index  # reuse the serial build from the section above

    def _drop_query_caches() -> None:
        """Everything lazily derived: CSR views, postings, memos, results."""
        qindex.drop_caches()
        qindex.base_graph.drop_caches()
        for layer in qindex.layers:
            layer.graph.drop_caches()

    def _boosted():
        return boost(
            BackwardKeywordSearch(d_max=3, k=10),
            qindex,
            allow_layer_zero=True,
        )

    def run_cold() -> int:
        _drop_query_caches()
        boosted = _boosted()
        return sum(
            len(boosted.evaluate_resilient(query).answers)
            for query in queries
        )

    elapsed, cold_answers = _best_of(run_cold, repeats)
    metrics["query.cold.seconds"] = elapsed
    metrics["query.cold.answers"] = cold_answers

    warm_boosted = _boosted()

    def run_warm() -> int:
        return sum(
            len(warm_boosted.evaluate_resilient(query).answers)
            for query in queries
        )

    populate_answers = run_warm()  # fill the result cache, untimed
    elapsed, warm_answers = _best_of(run_warm, repeats)
    for label, answers in (("populate", populate_answers),
                           ("warm", warm_answers)):
        if answers != cold_answers:
            raise AssertionError(
                f"query caching changed the answers: {label} run returned "
                f"{answers}, cold returned {cold_answers}"
            )
    metrics["query.warm.seconds"] = elapsed
    metrics["query.warm.answers"] = warm_answers
    if elapsed > 0:
        metrics["query.warm_speedup_vs_cold"] = round(
            metrics["query.cold.seconds"] / elapsed, 2
        )

    workload = list(queries) * 4

    def run_batch() -> int:
        _drop_query_caches()
        results = _boosted().evaluate_many(workload)
        return sum(len(result.answers) for result in results)

    elapsed, batch_answers = _best_of(run_batch, min(2, repeats))
    if batch_answers != 4 * cold_answers:
        raise AssertionError(
            f"batched serving changed the answers: {batch_answers} != "
            f"4 x {cold_answers}"
        )
    metrics["query.batch.seconds"] = elapsed
    metrics["query.batch.queries"] = len(workload)
    metrics["query.batch.answers"] = batch_answers

    # --- sustained serving throughput over HTTP -------------------------
    # The full `repro-bigindex serve` path: real sockets, one handler
    # thread per persistent connection, admission, JSON encode/decode.
    # An untimed pass warms the snapshot evaluator (searchers, CSR,
    # result cache); the timed rounds then measure steady-state serving,
    # the number the ROADMAP's traffic story rides on.  The answer total
    # is exact-gated: concurrency must never change what a query returns.
    serve_threads = 4
    serve_rounds = 2 if quick else 6

    def serve_evaluator(idx: BiGIndex):
        return boost(
            BackwardKeywordSearch(d_max=3, k=10), idx, allow_layer_zero=True
        ).evaluator

    service = QueryService(EngineRuntime(qindex, serve_evaluator))
    with serve_in_thread(service) as server:
        port = server.port

        def client_pass(rounds: int) -> int:
            def worker(_worker_id: int) -> int:
                answers = 0
                with ServeClient("127.0.0.1", port) as client:
                    for _ in range(rounds):
                        for query in queries:
                            response = client.query(list(query.keywords))
                            if response.status != 200:
                                raise AssertionError(
                                    f"serve bench got HTTP "
                                    f"{response.status}: {response.payload}"
                                )
                            answers += len(response.payload["answers"])
                return answers

            with ThreadPoolExecutor(max_workers=serve_threads) as pool:
                return sum(pool.map(worker, range(serve_threads)))

        client_pass(1)  # warm the snapshot evaluator, untimed
        elapsed, served_answers = _best_of(
            lambda: client_pass(serve_rounds), min(2, repeats)
        )
    expected_answers = serve_threads * serve_rounds * cold_answers
    if served_answers != expected_answers:
        raise AssertionError(
            f"concurrent serving changed the answers: {served_answers} != "
            f"{serve_threads} threads x {serve_rounds} rounds x "
            f"{cold_answers}"
        )
    serve_requests = serve_threads * serve_rounds * len(queries)
    metrics["serve.qps.warm.seconds"] = elapsed
    metrics["serve.qps.warm.requests"] = serve_requests
    metrics["serve.qps.warm.threads"] = serve_threads
    metrics["serve.qps.warm.answers"] = served_answers
    if elapsed > 0:
        metrics["serve.qps.warm.qps"] = round(serve_requests / elapsed, 1)

    # --- non-blocking mutation stream -----------------------------------
    # Writer throughput through the copy-on-write runtime (clone, apply,
    # publish — no reader drain), plus reader p99 idle vs under the
    # stream.  Answer totals are deliberately *not* exact-gated here:
    # readers pin whichever snapshot is current when they arrive, so the
    # per-request answers legitimately vary with scheduling.
    mutate_runtime = EngineRuntime(qindex.cow_clone(), serve_evaluator)
    mutate_service = QueryService(mutate_runtime)
    stream_edges = sorted(qindex.base_graph.edges())[: 8 if quick else 24]
    stream_ops: List[Tuple[str, int, int]] = []
    for u, v in stream_edges:
        # Delete-then-reinsert pairs: real maintenance work on every op,
        # and the final snapshot returns to the baseline state.
        stream_ops.append(("delete", u, v))
        stream_ops.append(("insert", u, v))
    reader_rounds = 2 if quick else 4

    def _p99(samples: List[float]) -> float:
        ordered = sorted(samples)
        if not ordered:
            return 0.0
        return ordered[min(len(ordered) - 1, int(len(ordered) * 0.99))]

    def reader_pass(port: int) -> List[float]:
        def worker(_worker_id: int) -> List[float]:
            samples: List[float] = []
            with ServeClient("127.0.0.1", port, max_retries=0) as client:
                for _ in range(reader_rounds):
                    for query in queries:
                        start = monotonic_now()
                        response = client.query(list(query.keywords))
                        samples.append(monotonic_now() - start)
                        if response.status != 200:
                            raise AssertionError(
                                f"mutation-stream bench got HTTP "
                                f"{response.status}: {response.payload}"
                            )
            return samples

        with ThreadPoolExecutor(max_workers=serve_threads) as pool:
            return [
                sample
                for worker_samples in pool.map(
                    worker, range(serve_threads)
                )
                for sample in worker_samples
            ]

    def apply_stream_op(index: BiGIndex, op: Tuple[str, int, int]) -> None:
        kind, u, v = op
        if kind == "delete":
            index.delete_edge(u, v)
        else:
            index.insert_edge(u, v)

    mutate_elapsed = [0.0]

    def writer() -> None:
        start = monotonic_now()
        for op in stream_ops:
            mutate_runtime.mutate(
                lambda idx, op=op: apply_stream_op(idx, op)
            )
        mutate_elapsed[0] = monotonic_now() - start

    with serve_in_thread(mutate_service) as server:
        reader_pass(server.port)  # warm the snapshot evaluator, untimed
        idle_samples = reader_pass(server.port)
        writer_thread = threading.Thread(
            target=writer, name="bench-mutator"
        )
        writer_thread.start()
        under_samples = reader_pass(server.port)
        writer_thread.join()
    metrics["serve.mutate.ops"] = len(stream_ops)
    metrics["serve.mutate.seconds"] = mutate_elapsed[0]
    if mutate_elapsed[0] > 0:
        metrics["serve.mutate.qps"] = round(
            len(stream_ops) / mutate_elapsed[0], 1
        )
    metrics["serve.read.idle_p99.seconds"] = _p99(idle_samples)
    metrics["serve.read.mutate_p99.seconds"] = _p99(under_samples)

    # --- observability overhead over the serve hot path -----------------
    # Full-fidelity request observability — structured access log,
    # slow-query mirror, flight recorder, rolling SLO window — versus
    # everything off, over the same concurrent HTTP workload as
    # serve.qps.  The ratio is gated at OBS_OVERHEAD_LIMIT (<= 2%) in
    # compare(); answers are exact-gated because logging a request must
    # never change it.
    import os as _os
    import tempfile as _tempfile

    from repro.obs.reqlog import RequestLog
    from repro.serve.service import ServerConfig

    obs_rounds = 1 if quick else 3
    # The on-vs-off diff the gate inspects is a few milliseconds — the
    # same order as one bad scheduler draw on a small box — so this
    # section takes best-of more passes than the rest of the bench.
    obs_repeats = 2 if quick else 5

    def timed_serve_pass(service_obj: QueryService) -> Tuple[float, int]:
        with serve_in_thread(service_obj) as server:
            port = server.port

            def one_pass() -> int:
                def worker(_worker_id: int) -> int:
                    answers = 0
                    with ServeClient("127.0.0.1", port) as client:
                        for _ in range(obs_rounds):
                            for query in queries:
                                response = client.query(
                                    list(query.keywords)
                                )
                                if response.status != 200:
                                    raise AssertionError(
                                        f"obs overhead bench got HTTP "
                                        f"{response.status}: "
                                        f"{response.payload}"
                                    )
                                answers += len(
                                    response.payload["answers"]
                                )
                    return answers

                with ThreadPoolExecutor(
                    max_workers=serve_threads
                ) as pool:
                    return sum(pool.map(worker, range(serve_threads)))

            one_pass()  # warm the snapshot evaluator, untimed
            return _best_of(one_pass, obs_repeats)

    dark_service = QueryService(
        EngineRuntime(qindex, serve_evaluator),
        config=ServerConfig(flight_records=0, slo_window_seconds=0.0),
    )
    off_elapsed, off_answers = timed_serve_pass(dark_service)

    with _tempfile.TemporaryDirectory(prefix="bench-obs-") as obs_tmp:
        obs_access = RequestLog(_os.path.join(obs_tmp, "access.jsonl"))
        obs_slow = RequestLog(
            _os.path.join(obs_tmp, "access.jsonl.slow")
        )
        lit_service = QueryService(
            EngineRuntime(qindex, serve_evaluator),
            config=ServerConfig(slow_query_ms=250.0),
            access_log=obs_access,
            slow_log=obs_slow,
        )
        on_elapsed, on_answers = timed_serve_pass(lit_service)
        obs_access.close()
        obs_slow.close()

    obs_expected = serve_threads * obs_rounds * cold_answers
    for label, got in (("off", off_answers), ("on", on_answers)):
        if got != obs_expected:
            raise AssertionError(
                f"observability ({label}) changed the answers: "
                f"{got} != {obs_expected}"
            )
    metrics["obs.serve.overhead.off.seconds"] = off_elapsed
    metrics["obs.serve.overhead.on.seconds"] = on_elapsed
    metrics["obs.serve.overhead.answers"] = on_answers
    metrics["obs.serve.overhead.requests"] = (
        serve_threads * obs_rounds * len(queries)
    )
    if off_elapsed > 0:
        metrics["obs.serve.overhead.ratio"] = round(
            on_elapsed / off_elapsed, 4
        )

    # --- persistence: the v4 mmap container -------------------------------
    # Cold loads go through the full path a restart pays: manifest
    # verification (every binary section re-hashed), then mmap +
    # memoryview views.  Saves are timed too so the container format
    # can't buy its load speed with a pathological write path.
    import os
    import tempfile

    from repro.core.persistence import load_index, save_index

    qontology = corpus[0][2] if quick else ontology
    persist_repeats = min(2, repeats)
    with tempfile.TemporaryDirectory(prefix="bench-persist-") as tmp:
        v4_dir = os.path.join(tmp, "idx-v4")
        elapsed, _ = _best_of(
            lambda: save_index(qindex, v4_dir), persist_repeats
        )
        metrics["persist.save.v4.seconds"] = elapsed

        rss_before = current_rss_kib()
        elapsed, _ = _best_of(
            lambda: load_index(v4_dir, qontology), persist_repeats
        )
        rss_after = current_rss_kib()
        metrics["persist.load.cold.v4.seconds"] = elapsed
        if rss_before is not None and rss_after is not None:
            metrics["persist.load.cold.v4.rss_delta_kib"] = (
                rss_after - rss_before
            )

        # Restart-to-first-answer: what a freshly exec'd server pays
        # before it can serve its first query from the v4 container.
        first_query = queries[0]

        def coldstart() -> int:
            restarted = load_index(v4_dir, qontology)
            boosted = boost(
                BackwardKeywordSearch(d_max=3, k=10),
                restarted,
                allow_layer_zero=True,
            )
            return len(boosted.evaluate_resilient(first_query).answers)

        elapsed, coldstart_answers = _best_of(coldstart, persist_repeats)
        metrics["serve.coldstart.seconds"] = elapsed
        metrics["serve.coldstart.answers"] = coldstart_answers

    rss = peak_rss_kib()
    if rss is not None:
        metrics["peak_rss_kib"] = rss
    return metrics


# ----------------------------------------------------------------------
# Baseline documents and the regression gate
# ----------------------------------------------------------------------
def make_document(
    metrics: Metrics, before: Optional[Metrics] = None
) -> Dict[str, object]:
    """The JSON document shape committed as ``BENCH_hotpaths.json``."""
    document: Dict[str, object] = {
        "schema": 1,
        "machine": machine_info(),
        "current": metrics,
    }
    if before:
        document["before"] = before
        document["speedups"] = derive_speedups(before, metrics)
    return document


def derive_speedups(before: Metrics, current: Metrics) -> Dict[str, float]:
    """``before/current`` wall-clock ratios for every shared timing key."""
    speedups: Dict[str, float] = {}
    for key, old in before.items():
        if not key.endswith(".seconds"):
            continue
        new = current.get(key)
        if isinstance(old, (int, float)) and isinstance(new, (int, float)) and new > 0:
            speedups[key[: -len(".seconds")]] = round(old / new, 2)
    # The headline parallel-build claim compares against the *serial*
    # pre-change build — the knob didn't exist before this change.
    old_serial = before.get("build.synt-1k.serial.seconds")
    new_parallel = current.get("build.synt-1k.parallel.seconds")
    if isinstance(old_serial, (int, float)) and isinstance(new_parallel, (int, float)):
        if new_parallel > 0:
            speedups["build.synt-1k.parallel-vs-before-serial"] = round(
                old_serial / new_parallel, 2
            )
    return speedups


def load_document(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(
    current: Metrics,
    baseline: Metrics,
    tolerance: float = 0.25,
) -> List[str]:
    """Regressions of ``current`` against ``baseline``, as messages.

    Timing keys fail when ``current > scaled_baseline * (1 + tolerance)
    + ABS_SLACK_SECONDS`` where ``scaled_baseline`` is the baseline
    timing multiplied by the machines' calibration ratio.  Deterministic
    keys (block/expansion counts, layer sizes) fail on any difference.
    An empty list means the gate passes.
    """
    failures: List[str] = []
    if current.get("mode") != baseline.get("mode"):
        return [
            f"mode mismatch: current={current.get('mode')!r} "
            f"baseline={baseline.get('mode')!r}; quick and full runs "
            f"are not comparable"
        ]

    base_cal = baseline.get("calibration.seconds")
    cur_cal = current.get("calibration.seconds")
    if isinstance(base_cal, (int, float)) and isinstance(cur_cal, (int, float)) \
            and base_cal > 0:
        scale = cur_cal / base_cal
    else:
        scale = 1.0

    for key, base_value in sorted(baseline.items()):
        cur_value = current.get(key)
        if key.endswith(".seconds") and key != "calibration.seconds":
            if not isinstance(cur_value, (int, float)):
                failures.append(f"{key}: missing from current run")
                continue
            allowed = base_value * scale * (1.0 + tolerance) + ABS_SLACK_SECONDS
            if cur_value > allowed:
                failures.append(
                    f"{key}: {cur_value:.6f}s exceeds allowance "
                    f"{allowed:.6f}s (baseline {base_value:.6f}s, "
                    f"machine scale {scale:.2f}, tolerance "
                    f"{tolerance:.0%})"
                )
        elif key.endswith(EXACT_SUFFIXES):
            if cur_value != base_value:
                failures.append(
                    f"{key}: {cur_value!r} != baseline {base_value!r} "
                    f"(deterministic metric; must match exactly)"
                )

    # Observability overhead is gated against the current run's own
    # on/off pair — a ratio is machine-independent, so no calibration
    # scaling applies.  The absolute slack (flat plus per-request)
    # absorbs scheduler jitter when both passes are fast enough that 2%
    # dips below measurement resolution.
    ratio = current.get("obs.serve.overhead.ratio")
    on_seconds = current.get("obs.serve.overhead.on.seconds")
    off_seconds = current.get("obs.serve.overhead.off.seconds")
    requests = current.get("obs.serve.overhead.requests")
    obs_slack = ABS_SLACK_SECONDS
    if isinstance(requests, int):
        obs_slack = max(obs_slack, requests * OBS_SLACK_PER_REQUEST)
    if (
        isinstance(ratio, (int, float))
        and isinstance(on_seconds, (int, float))
        and isinstance(off_seconds, (int, float))
        and ratio > OBS_OVERHEAD_LIMIT
        and on_seconds - off_seconds > obs_slack
    ):
        failures.append(
            f"obs.serve.overhead.ratio: {ratio:.4f} exceeds "
            f"{OBS_OVERHEAD_LIMIT:.2f} (observability on "
            f"{on_seconds:.6f}s vs off {off_seconds:.6f}s, slack "
            f"{obs_slack:.6f}s; the instrumented serve path may cost "
            f"at most 2%)"
        )

    # Sharded-build speedup is gated against the current run's own
    # serial/parallel pair (machine-independent ratio), and only when
    # the host has enough cores for parallelism to show at all.
    shard_speedup = current.get("shard.build.synt-100k.speedup")
    shard_cpus = current.get("shard.build.synt-100k.host_cpus")
    if (
        isinstance(shard_speedup, (int, float))
        and isinstance(shard_cpus, int)
        and shard_cpus >= SHARD_SPEEDUP_MIN_CPUS
        and shard_speedup < SHARD_SPEEDUP_FLOOR
    ):
        failures.append(
            f"shard.build.synt-100k.speedup: {shard_speedup:.2f}x is "
            f"below the {SHARD_SPEEDUP_FLOOR:.1f}x floor on a "
            f"{shard_cpus}-CPU host (4 per-shard build processes vs "
            f"serial)"
        )
    return failures


def format_metrics(
    metrics: Metrics, speedups: Optional[Dict[str, float]] = None
) -> str:
    """Human-readable metric table (timings in ms, counts verbatim)."""
    lines: List[str] = []
    for key in sorted(metrics):
        value = metrics[key]
        if key.endswith(".seconds"):
            line = f"  {key:<40s} {value * 1e3:10.3f} ms"
            if speedups:
                ratio = speedups.get(key[: -len(".seconds")])
                if ratio is not None:
                    line += f"   ({ratio:.2f}x vs before)"
            lines.append(line)
        else:
            lines.append(f"  {key:<40s} {value!r}")
    return "\n".join(lines)
