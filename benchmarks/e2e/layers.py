"""The traced run: a fixed slice of each workload replayed in-process.

Spans (``trace.py``) go around the benchmark's own calls into each
module's public functions, with the index directory, pool and service
configuration ``repro.cli serve`` uses.  The slice is replayed twice —
through an unwrapped service and through a wrapped one — so the tracing
overhead is a measured ratio, and once more over HTTP against the real
server for the transport share.  End-to-end metrics never come from here.

Timing metrics are the mean reference-ms of a span over its occurrences
in the slice; a layer the workload does not cross reads 0.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import calib
import repro.bisim.summary
import repro.core.index
import repro.serve.service
from harness import (
    ENV,
    OUT,
    Recorder,
    Report,
    ServeDriver,
    Server,
    answer_scores,
    dir_bytes,
    hit_ratio,
    pin_to_one_cpu,
    remove_tree,
    result_cache_counters,
    wait_sampled,
)
from trace import Span, Tracer, closure_ratios, self_times
from workloads import (
    D_MAX,
    DATASET,
    K,
    LAYERS,
    READS_PER_WRITE,
    Oracle,
    Request,
    Workload,
    build_pool,
    keyword_sets,
    mutation_edges,
    requests_for,
)

from repro.core.cost import CostParams
from repro.core.index import BiGIndex
from repro.core.persistence import load_index, save_index
from repro.core.plugins import boost
from repro.core.wal import MutationWAL
from repro.datasets.knowledge import dataset_registry
from repro.graph.io import load_graph_tsv, save_graph_tsv
from repro.obs.runtime import instrumented
from repro.ontology.ontology import OntologyGraph
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.serve import EngineRuntime, QueryService, ServeClient, ServerConfig
from repro.serve.service import canonical_payload
from repro.utils.budget import Budget

#: name -> unit, in BENCHMARK.json's order.
PER_LAYER = {
    "transport.rtt_ms": "ms",
    "service.response_bytes": "bytes",
    "service.handle_self_ms": "ms",
    "service.encode_ms": "ms",
    "cache.result_hit_ratio": "ratio",
    "cache.invalidations": "count",
    "eval.total_ms": "ms",
    "eval.layer0_ms": "ms",
    "eval.layer1_ms": "ms",
    "eval.layer2_ms": "ms",
    "eval.answers_per_generalized": "ratio",
    "eval.select_ms": "ms",
    "eval.translate_ms": "ms",
    "search.explore_ms": "ms",
    "search.expansions_per_req": "count",
    "search.bind_ms": "ms",
    "eval.specialize_ms": "ms",
    "eval.generate_ms": "ms",
    "runtime.mutate_ms": "ms",
    "runtime.clone_ms": "ms",
    "index.maintain_ms": "ms",
    "wal.commit_ms": "ms",
    "wal.bytes_per_op": "bytes",
    "runtime.publish_ms": "ms",
    "io.tsv_load_ms": "ms",
    "build.total_s": "s",
    "build.algo1_s": "s",
    "build.refine_s": "s",
    "build.summarize_s": "s",
    "build.layer_sizes": "count",
    "persist.save_ms": "ms",
    "persist.load_cold_ms": "ms",
    "persist.bytes": "bytes",
    "cli.startup_ms": "ms",
    "coldstart.first_answer_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.closure_ratio": "ratio",
}

#: The slice: pool passes / hot passes / rw edges / build cycles.
SLICE = {"serve-explore": 2, "serve-hot": 50, "serve-rw": 12, "build-load": 2}
SMOKE_SLICE = {"serve-explore": 1, "serve-hot": 5, "serve-rw": 3, "build-load": 1}
#: Unwrapped/wrapped replay pairs behind ``trace.overhead_ratio`` (their
#: median): a single pair reads +-5 % of host drift, and serve-hot's slice
#: lasts only 0.2 s.
ROUNDS = {"serve-explore": 3, "serve-hot": 7, "serve-rw": 3}
CLOSURE_RANGE = (0.9, 1.02)
OVERHEAD_LIMIT = 1.05
_HEADERS = {"Content-Type": "application/json"}

Op = Tuple[str, object]  # ("query", Request) | ("delete" | "insert", edge)


def _span(tracer: Optional[Tracer], name: str, attrs: Optional[Dict[str, object]] = None):
    return tracer.span(name, attrs) if tracer else nullcontext()


# ----------------------------------------------------------------------
# The build cycle (every workload's set-up; build-load's whole op)
# ----------------------------------------------------------------------
def build_cycle(
    tracer: Optional[Tracer], run_dir: Path, scale: float, request: Optional[Request]
) -> Tuple[BiGIndex, OntologyGraph]:
    """TSV load -> Algo. 1 + refinement -> v4 save -> mmap load -> bind ->
    first answer, with the arguments ``repro.cli build`` / ``query`` pass."""
    dataset = dataset_registry(scale=scale)[DATASET]()
    tsv, index_dir = run_dir / "trace.graph", run_dir / "trace.idx"
    save_graph_tsv(dataset.graph, str(tsv))
    with ExitStack() as patches:
        if tracer:
            for owner, attr, name in (
                (repro.core.index, "greedy_configuration", "build.algo1"),
                (repro.core.index, "summarize", "build.summarize"),
                (repro.bisim.summary, "maximal_bisimulation", "build.refine"),
            ):
                patches.enter_context(tracer.patch(owner, attr, name))
        with _span(tracer, "cycle"):
            with _span(tracer, "io.tsv_load"):
                graph, _ = load_graph_tsv(str(tsv))
            with _span(tracer, "build"):
                index = BiGIndex.build(
                    graph, dataset.ontology, num_layers=LAYERS,
                    cost_params=CostParams(num_samples=25),
                )
            with _span(tracer, "persist.save"):
                save_index(index, str(index_dir))
            with _span(tracer, "coldstart"):
                with _span(tracer, "persist.load"):
                    loaded = load_index(str(index_dir), dataset.ontology)
                algorithm = BackwardKeywordSearch(d_max=D_MAX, k=K)
                for m in range(loaded.num_layers + 1):
                    with _span(tracer, "search.bind", {"layer": m}):
                        algorithm.bind(loaded.layer_graph(m))
                if request is not None:
                    boost(algorithm, loaded, allow_layer_zero=True).evaluate(
                        KeywordQuery(request.keywords), k=request.k
                    )
    return loaded, dataset.ontology


def trace_cycles(
    tracer: Tracer, op_speed: Dict[int, float], run_dir: Path, scale: float,
    request: Request, cycles: int, paired: bool,
) -> List[float]:
    """``cycles`` wrapped build cycles (ops -1, -2, ...), each timed between
    kernel readings; ``paired`` runs an unwrapped cycle before each and
    returns the wrapped / unwrapped ratios."""
    ratios = []
    for cycle in range(cycles):
        tracer.op = -1 - cycle
        ref_ms = {}
        for traced in (False, True) if paired else (True,):
            before = calib.kernel_ms(15)
            start = time.perf_counter()
            build_cycle(tracer if traced else None, run_dir, scale, request)
            wall = (time.perf_counter() - start) * 1e3
            speed = (before + calib.kernel_ms(15)) / 2
            ref_ms[traced] = wall / speed * calib.CAL_REF_MS
        op_speed[tracer.op] = speed
        if paired:
            ratios.append(ref_ms[True] / ref_ms[False])
    return ratios


def cli_startup_ms() -> float:
    """Reference-ms of ``python -c "import repro.cli"``, median of three."""
    readings = []
    for _ in range(3):
        proc = subprocess.Popen([sys.executable, "-c", "import repro.cli"], env=ENV)
        try:
            readings.append(wait_sampled(proc)[1])
        finally:
            proc.kill()
            proc.wait()
    return statistics.median(readings)


# ----------------------------------------------------------------------
# The in-process service, as cmd_serve assembles it
# ----------------------------------------------------------------------
def traced_evaluate(tracer: Tracer, evaluate: Callable) -> Callable:
    """``evaluate`` inside an ``eval`` span carrying the public result
    fields; the phases of ``EvalResult.breakdown`` become its children."""

    def run(*args, **kwargs):
        with tracer.span("eval") as span:
            result = evaluate(*args, **kwargs)
        span.attrs = {
            "layer": result.layer,
            "answers": len(result.answers),
            "generalized": result.num_generalized,
        }
        for phase, seconds in result.breakdown.as_dict().items():
            tracer.add_child(span, f"eval.{phase}", seconds)
        return result

    return run


def make_service(
    index_dir: Path, ontology: OntologyGraph, admin: bool, wal_path: Path,
    tracer: Optional[Tracer],
) -> QueryService:
    def load_fresh() -> BiGIndex:
        return load_index(str(index_dir), ontology, replay_wal_tail=False)

    def evaluator_factory(index: BiGIndex):
        evaluator = boost(
            BackwardKeywordSearch(d_max=D_MAX, k=K), index, allow_layer_zero=True
        ).evaluator
        if tracer:
            evaluator.evaluate = traced_evaluate(tracer, evaluator.evaluate)
        return evaluator

    wal = None
    if admin:
        wal = MutationWAL(str(wal_path))
        wal.open()
    runtime = EngineRuntime(load_fresh(), evaluator_factory, wal=wal)
    return QueryService(
        runtime,
        config=ServerConfig(default_k=K, enable_admin=admin),
        loader=load_fresh,
    )


def slice_ops(
    workload: Workload, pool: List[Request], edges: Sequence[Tuple[int, int]],
    size: int, seed: int,
) -> List[Op]:
    """The slice's ops, ordered as the untraced run orders them."""
    requests = requests_for(workload.name, pool, seed)
    if workload.name != "serve-rw":
        return [("query", r) for r in requests] * size
    ops: List[Op] = []
    cursor = 0
    for edge in edges[:size]:
        for kind in ("delete", "insert"):
            ops.append((kind, edge))
            for _ in range(READS_PER_WRITE):
                ops.append(("query", requests[cursor % len(requests)]))
                cursor += 1
    return ops


def op_body(op: Op) -> Tuple[str, bytes]:
    kind, what = op
    if kind == "query":
        body = {"keywords": list(what.keywords), "k": what.k}
        if what.layer is not None:
            body["layer"] = what.layer
        return "/query", json.dumps(body).encode("utf-8")
    body = {"op": kind, "u": what[0], "v": what[1]}
    return "/admin/mutate", json.dumps(body).encode("utf-8")


def replay(
    service: QueryService, ops: Sequence[Op], oracle: Oracle, tracer: Optional[Tracer]
) -> Tuple[Recorder, int]:
    """``ops`` through ``service.handle`` and the transport's ``dumps`` on
    one thread; returns the timings and the canonical response bytes.

    While an edge is deleted the baseline oracle does not apply; those
    reads are checked for status only (the untraced run checks them
    against a mirror graph).
    """
    recorder = Recorder()
    response_bytes = 0
    dirty = False
    handle = tracer.wrap("service.handle", service.handle) if tracer else service.handle

    def one(path: str, body: bytes):
        with _span(tracer, "op"):
            status, payload, _ = handle("POST", path, body, _HEADERS)
            with _span(tracer, "service.dumps"):
                json.dumps(payload, sort_keys=True).encode("utf-8")
        return status, payload

    for i, (kind, what) in enumerate(ops):
        if tracer:
            tracer.op = i
        path, body = op_body((kind, what))
        status, payload = recorder.timed(lambda: one(path, body))
        response_bytes += len(json.dumps(canonical_payload(payload), sort_keys=True))
        if kind == "query":
            ok = status == 200 and (
                dirty or answer_scores(payload) == oracle.expected(what)
            )
        else:
            ok = status == 200 and payload.get("applied") is True
            dirty = kind == "delete"
        if not ok:
            recorder.fail_last()
    return recorder, response_bytes


def cache_counters(service: QueryService) -> Dict[str, int]:
    """The result-cache counters, read where cmd_serve exposes them."""
    return result_cache_counters(service.handle("GET", "/metrics", b"", {})[1])


def trace_serving(
    tracer: Tracer, workload: Workload, run_dir: Path, ontology: OntologyGraph,
    ops: Sequence[Op], warm: Sequence[Op], oracle: Oracle, rounds: int,
) -> Tuple[Recorder, Recorder, Dict[str, float]]:
    """The slice through an unwrapped and a wrapped service, alternating
    ``rounds`` times; returns the last round's recordings and the counts
    read at its wrapped replay's boundaries (overhead: median of rounds)."""
    index_dir = run_dir / "trace.idx"
    services = {
        traced: make_service(
            index_dir, ontology, workload.admin, run_dir / f"trace{int(traced)}.wal",
            tracer if traced else None,
        )
        for traced in (False, True)
    }
    wal = services[True].runtime.wal
    targets = [
        (repro.serve.service, "encode_result", "service.encode_result"),
        (services[True].runtime, "mutate", "runtime.mutate"),
        (BiGIndex, "cow_clone", "index.cow_clone"),
        (BiGIndex, "insert_edge", "index.maintain"),
        (BiGIndex, "delete_edge", "index.maintain"),
    ]
    if wal is not None:
        targets.append((wal, "commit", "wal.commit"))
    slice_start = len(tracer.spans)
    for service in services.values():
        with instrumented(metrics=service.metrics, trace=False):
            replay(service, warm, oracle, None)
    ratios = []
    for _ in range(rounds):
        service = services[False]
        with instrumented(metrics=service.metrics, trace=False):
            off, _ = replay(service, ops, oracle, None)
        del tracer.spans[slice_start:]  # warm-up and earlier rounds are not the slice
        service = services[True]
        with instrumented(metrics=service.metrics, trace=False), ExitStack() as patches:
            for owner, attr, name in targets:
                patches.enter_context(tracer.patch(owner, attr, name))
            before = cache_counters(service)
            wal_before = os.path.getsize(wal.path) if wal is not None else 0
            on, response_bytes = replay(service, ops, oracle, tracer)
            after = cache_counters(service)
        ratios.append(sum(on.reference_ms()) / sum(off.reference_ms()))
    counts = {
        "trace.overhead_ratio": statistics.median(ratios),
        "cache.result_hit_ratio": hit_ratio(before, after),
        "cache.invalidations": float(after["invalidations"] - before["invalidations"]),
        "service.response_bytes": response_bytes / len(ops),
    }
    if wal is not None:
        writes = sum(1 for kind, _ in ops if kind != "query")
        counts["wal.bytes_per_op"] = (os.path.getsize(wal.path) - wal_before) / writes
    for service in services.values():
        if service.runtime.wal is not None:
            service.runtime.wal.close()
    return off, on, counts


def replay_http(
    workload: Workload, index_dir: Path, scale: float,
    ops: Sequence[Op], warm: Sequence[Op], oracle: Oracle,
) -> Recorder:
    """The same ops against the real server on a keep-alive connection."""
    server = Server(index_dir, scale, workload.admin)
    try:
        server.wait_ready()
        client = ServeClient.for_url(server.url, max_retries=0)
        try:
            driver = ServeDriver(client, oracle, Recorder())
            for _, request in warm:
                driver.query(request)
            driver.recorder = Recorder()
            dirty = False
            for kind, what in ops:
                if kind == "query":
                    driver.query(what, check=not dirty)
                else:
                    driver.mutate(kind, what)
                    dirty = kind == "delete"
            return driver.recorder
        finally:
            client.close()
    finally:
        server.stop()


def evaluated_requests(ops: Sequence[Op], spans: Sequence[Span]) -> List[Request]:
    """The request of every op whose ``eval`` span really evaluated (a
    result-cache hit reports no phases and expands nothing)."""
    evaluated = {s.parent for s in spans if s.attrs and s.attrs.get("aggregate")}
    return [ops[s.op][1] for s in spans if s.name == "eval" and s.id in evaluated]


def count_expansions(
    index_dir: Path, ontology: OntologyGraph, requests: Sequence[Request]
) -> int:
    """Exact node expansions of evaluating ``requests`` uncached, read off
    a budget too large to bind (budgeted runs bypass the result cache).
    Counted on the baseline graph."""
    index = load_index(str(index_dir), ontology, replay_wal_tail=False)
    evaluator = boost(
        BackwardKeywordSearch(d_max=D_MAX, k=K), index, allow_layer_zero=True
    ).evaluator
    cost: Dict[Request, int] = {}
    for request in set(requests):
        budget = Budget(max_expansions=1 << 60)
        evaluator.evaluate(
            KeywordQuery(request.keywords), layer=request.layer, k=request.k,
            budget=budget,
        )
        cost[request] = budget.expansions
    return sum(cost[request] for request in requests)


# ----------------------------------------------------------------------
# Spans -> metrics
# ----------------------------------------------------------------------
class SpanView:
    """Reference-ms statistics over a run's spans."""

    def __init__(self, spans: Sequence[Span], op_speed: Dict[int, float]) -> None:
        self.spans = spans
        scale = {op: calib.CAL_REF_MS / speed for op, speed in op_speed.items()}
        own = self_times(spans)
        self._ref = {s.id: s.ms * scale[s.op] for s in spans}
        self._self = {s.id: own[s.id] * scale[s.op] for s in spans}

    def named(self, name: str, **attrs: object) -> List[Span]:
        return [
            s for s in self.spans
            if s.name == name
            and all((s.attrs or {}).get(k) == v for k, v in attrs.items())
        ]

    def mean(self, name: str, **attrs: object) -> float:
        """Mean over the span's occurrences; 0 when there is none."""
        found = self.named(name, **attrs)
        return sum(self._ref[s.id] for s in found) / len(found) if found else 0.0

    def mean_self(self, name: str) -> float:
        found = self.named(name)
        return sum(self._self[s.id] for s in found) / len(found) if found else 0.0

    def per(self, name: str, per_name: str, own: bool = False) -> float:
        """Total (or total self time) of ``name`` spread over the
        occurrences of ``per_name``."""
        count = len(self.named(per_name))
        times = self._self if own else self._ref
        total = sum(times[s.id] for s in self.named(name))
        return total / count if count else 0.0


def span_metrics(view: SpanView) -> Dict[str, float]:
    evals = view.named("eval")
    generalized = sum(s.attrs["generalized"] for s in evals)
    return {
        "service.handle_self_ms": view.mean_self("service.handle"),
        "service.encode_ms": view.per("service.encode_result", "op")
        + view.per("service.dumps", "op"),
        "eval.total_ms": view.mean("eval"),
        "eval.layer0_ms": view.mean("eval", layer=0),
        "eval.layer1_ms": view.mean("eval", layer=1),
        "eval.layer2_ms": view.mean("eval", layer=2),
        "eval.answers_per_generalized": (
            sum(s.attrs["answers"] for s in evals) / generalized if generalized else 0.0
        ),
        "eval.select_ms": view.per("eval.layer-selection", "eval"),
        "eval.translate_ms": view.per("eval.translate", "eval"),
        "search.explore_ms": view.per("eval.explore", "eval"),
        "eval.specialize_ms": view.per("eval.specialize", "eval"),
        "eval.generate_ms": view.per("eval.generate", "eval"),
        "search.bind_ms": view.mean("search.bind"),
        "runtime.mutate_ms": view.mean("runtime.mutate"),
        "runtime.clone_ms": view.mean("index.cow_clone"),
        "index.maintain_ms": view.mean("index.maintain"),
        "wal.commit_ms": view.mean("wal.commit"),
        "runtime.publish_ms": view.mean_self("runtime.mutate"),
        "io.tsv_load_ms": view.mean("io.tsv_load"),
        "build.total_s": view.mean("build") / 1e3,
        # Algo. 1 scores candidates by summarizing samples, so refinement
        # runs under both; the three are disjoint: self, total, self.
        "build.algo1_s": view.per("build.algo1", "build", own=True) / 1e3,
        "build.refine_s": view.per("build.refine", "build") / 1e3,
        "build.summarize_s": view.per("build.summarize", "build", own=True) / 1e3,
        "persist.save_ms": view.mean("persist.save"),
        "persist.load_cold_ms": view.mean("persist.load"),
        "coldstart.first_answer_ms": view.mean("coldstart"),
    }


# ----------------------------------------------------------------------
# One traced run
# ----------------------------------------------------------------------
def run_traced(
    workload: Workload, seed: int, scale: float, smoke: bool = False
) -> Report:
    cpu = pin_to_one_cpu()
    size = (SMOKE_SLICE if smoke else SLICE)[workload.name]
    served = workload.name != "build-load"
    run_dir = OUT / f"trace-run-{workload.name}-{seed}-{os.getpid()}"
    remove_tree(run_dir)
    run_dir.mkdir(parents=True)
    index_dir = run_dir / "trace.idx"
    tracer = Tracer()
    op_speed: Dict[int, float] = {}
    values = dict.fromkeys(PER_LAYER, 0.0)
    attempted, failed = 0, 0
    try:
        # Inputs need a graph and an index: one unrecorded cycle makes them.
        index, ontology = build_cycle(None, run_dir, scale, None)
        pool = build_pool(keyword_sets(index.base_graph), index.query_distinct_at)
        oracle = Oracle(index.base_graph)
        first = requests_for(workload.name, pool, seed)[0]
        values["build.layer_sizes"] = float(sum(index.layer_sizes()[1:]))
        values["cli.startup_ms"] = cli_startup_ms()
        if served:
            # The build cycle is this workload's set-up: traced once.
            trace_cycles(tracer, op_speed, run_dir, scale, first, 1, paired=False)
            values["persist.bytes"] = float(dir_bytes(index_dir))
            ops = slice_ops(
                workload, pool, mutation_edges(index.base_graph, seed), size, seed
            )
            warm = [
                ("query", r)
                for r in dict.fromkeys(what for kind, what in ops if kind == "query")
            ]
            off, on, counts = trace_serving(
                tracer, workload, run_dir, ontology, ops, warm, oracle,
                1 if smoke else ROUNDS[workload.name],
            )
            values.update(counts)
            for i in range(len(ops)):
                op_speed[i] = calib.local_speed(on.speeds, i)
            closure_root = "op"
            http = replay_http(workload, index_dir, scale, ops, warm, oracle)
            values["transport.rtt_ms"] = statistics.median(
                http.reference_ms()
            ) - statistics.median(on.reference_ms())
            values["search.expansions_per_req"] = count_expansions(
                index_dir, ontology, evaluated_requests(ops, tracer.spans)
            ) / len(ops)
            attempted = sum(r.attempted for r in (off, on, http))
            failed = sum(r.failed for r in (off, on, http))
        else:
            ratios = trace_cycles(
                tracer, op_speed, run_dir, scale, first, size, paired=True
            )
            values["trace.overhead_ratio"] = statistics.median(ratios)
            values["persist.bytes"] = float(dir_bytes(index_dir))
            closure_root = "cycle"
            values["search.expansions_per_req"] = float(
                count_expansions(index_dir, ontology, [first])
            )
            attempted = size
    finally:
        remove_tree(run_dir)

    tracer.write(str(OUT / f"trace-{workload.name}.jsonl"))
    values.update(span_metrics(SpanView(tracer.spans, op_speed)))
    closure = statistics.median(closure_ratios(tracer.spans, closure_root))
    overhead = values["trace.overhead_ratio"]
    values["trace.closure_ratio"] = closure
    closed = CLOSURE_RANGE[0] <= closure <= CLOSURE_RANGE[1]
    notes = [
        f"workload {workload.name}  seed {seed}  scale {scale}  pinned to cpu {cpu}  "
        f"traced slice of {size}; {len(tracer.spans)} spans -> "
        f"out/trace-{workload.name}.jsonl",
    ]
    if not closed:
        notes.append(f"  TRACE FAILED: closure {closure:.4f} outside {CLOSURE_RANGE}")
    if overhead >= OVERHEAD_LIMIT:
        notes.append(f"  warning: tracing overhead {overhead:.4f} >= {OVERHEAD_LIMIT}")
    return Report(
        correct=failed == 0 and closed,
        attempted=attempted,
        failed=failed,
        metrics={name: (values[name], unit) for name, unit in PER_LAYER.items()},
        notes=notes,
    )
