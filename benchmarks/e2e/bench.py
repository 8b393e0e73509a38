#!/usr/bin/env python3
"""End-to-end benchmark: closed-loop workloads against the real CLI.

    python3 benchmarks/e2e/bench.py --workload serve-explore --seed 1 \
        --seconds 10 --trace 0

drives ``python -m repro.cli dataset|build|query|serve`` as subprocesses
from outside, checks every answer against eval on the data graph, prints
every metric by name with its unit, and ends with one JSON line.  Timings
are *reference milliseconds* (see ``calib.py``); raw wall-clock values are
printed beside them for audit.  ``--trace 1`` replays a fixed slice
in-process with spans and prints the per-layer metrics instead
(``layers.py``).  See ``README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro" / "cli.py").is_file():
    sys.exit(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
from harness import (  # noqa: E402
    OUT,
    WINDOW_CAP_SECONDS,
    Recorder,
    Report,
    ServeDriver,
    Server,
    build_args,
    children_cpu_ms,
    cli_scores,
    dataset_args,
    dir_bytes,
    hit_ratio,
    min_ops_for,
    must_run_cli,
    pin_to_one_cpu,
    proc_cpu_ms,
    proc_peak_rss_mb,
    query_args,
    remove_tree,
    run_cli,
    spread_summary,
    steal_ticks,
    tail_percentile,
)
from workloads import (  # noqa: E402
    DATASET,
    READS_PER_WRITE,
    RESULT_CACHE_ENTRIES,
    SCALE,
    SMOKE_SCALE,
    WORKLOADS,
    Oracle,
    Request,
    Workload,
    build_pool,
    keyword_sets,
    mutation_edges,
    requests_for,
)

from repro.core.persistence import load_index  # noqa: E402
from repro.datasets.knowledge import dataset_registry  # noqa: E402
from repro.graph.digraph import Graph  # noqa: E402
from repro.graph.io import load_graph_tsv  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402

#: name -> unit, in BENCHMARK.json's order.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "cpu_ms_per_op": "ms",
    "rss_mb": "MB",
    "index_bytes_per_elem": "bytes",
}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

@dataclass
class Inputs:
    graph: Graph
    pool: List[Request]
    oracle: Oracle
    edges: List[Tuple[int, int]]
    seed: int

    def requests(self, workload: Workload) -> List[Request]:
        return requests_for(workload.name, self.pool, self.seed)


def make_inputs(tsv: Path, index_dir: Path, scale: float, seed: int) -> Inputs:
    """Pool, oracle and mutation script for one seed (untimed)."""
    graph, _ = load_graph_tsv(str(tsv))
    ontology = dataset_registry(scale=scale)[DATASET]().ontology
    index = load_index(str(index_dir), ontology)
    sets = keyword_sets(graph)
    oracle = Oracle(graph)
    for keywords in sets:
        oracle.scores(keywords)
    return Inputs(
        graph, build_pool(sets, index.query_distinct_at), oracle,
        mutation_edges(graph, seed), seed,
    )


# ----------------------------------------------------------------------
# Timed windows
# ----------------------------------------------------------------------
def window_open(start: float, seconds: float, ops: int, min_ops: int) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed >= WINDOW_CAP_SECONDS:
        return False
    return elapsed < seconds or ops < min_ops


def run_passes(
    driver: ServeDriver, requests: Sequence[Request], seconds: float, min_ops: int
) -> None:
    """Whole passes over ``requests`` until the window closes."""
    start = time.perf_counter()
    while window_open(start, seconds, driver.recorder.attempted, min_ops):
        for request in requests:
            driver.query(request)


def run_rw_script(
    driver: ServeDriver, inputs: Inputs, reads: Sequence[Request],
    seconds: float, min_ops: int,
) -> None:
    """delete(u,v), reads, insert(u,v), reads — one seeded edge at a time.

    Reads after the insert see the baseline graph and are checked at
    once; reads after the delete are checked after the window against eval
    on a mirror graph with that edge removed.
    """
    recorder, oracle = driver.recorder, inputs.oracle
    after_delete: List[Tuple[Tuple[int, int], List[Tuple[int, Request, List[float]]]]] = []
    cursor = 0
    start = time.perf_counter()
    for edge in inputs.edges:
        if not window_open(start, seconds, recorder.attempted, min_ops):
            break
        driver.mutate("delete", edge)
        served = []
        for _ in range(READS_PER_WRITE):
            request = reads[cursor % len(reads)]
            cursor += 1
            scores = driver.query(request, check=False)
            served.append((recorder.attempted - 1, request, scores))
        after_delete.append((edge, served))
        driver.mutate("insert", edge)
        for _ in range(READS_PER_WRITE):
            driver.query(reads[cursor % len(reads)])
            cursor += 1
    graph = inputs.graph
    for edge, served in after_delete:
        graph.remove_edge(*edge)
        oracle.reset()
        for op, request, scores in served:
            if scores != oracle.expected(request):
                recorder.ok[op] = False
        graph.add_edge(*edge)
    oracle.reset()


def run_cycles(
    recorder: Recorder, run_dir: Path, tsv: Path, inputs: Inputs,
    reads: Sequence[Request], scale: float, seconds: float,
) -> int:
    """build + cold query per op; returns the last index's size in bytes."""
    index_bytes = 0
    start = time.perf_counter()
    while window_open(start, seconds, recorder.attempted, 0):
        request = reads[recorder.attempted % len(reads)]
        index_dir = run_dir / f"cycle{recorder.attempted}.idx"
        wall_b, ref_b, code_b, _ = run_cli(*build_args(tsv, index_dir, scale))
        wall_q, ref_q, code_q, out = run_cli(*query_args(index_dir, request, scale))
        ok = (
            code_b == 0 and code_q == 0
            and cli_scores(out) == inputs.oracle.expected(request)
        )
        recorder.add_sampled(wall_b + wall_q, ref_b + ref_q, ok)
        index_bytes = dir_bytes(index_dir)
        remove_tree(index_dir)
    return index_bytes


# ----------------------------------------------------------------------
# One untraced run
# ----------------------------------------------------------------------
@dataclass
class Stage:
    """What one finished set-up leaves standing for the timed window."""

    tsv: Path
    index_dir: Path
    #: name -> (wall ms, reference ms) of each timed set-up step.
    steps: Dict[str, Tuple[float, float]]
    server: Optional[Server] = None
    client: Optional[ServeClient] = None

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server = None


def set_up(
    workload: Workload, run_dir: Path, tag: str, scale: float, seed: int,
    inputs: Optional[Inputs],
) -> Tuple[Stage, Inputs]:
    """Command start to first timed op: TSV dataset, index build, program
    start and one untimed warm-up pass (for build-load: one cold query).
    Pool and oracle generation happen once, between the steps, untimed."""
    tsv, index_dir = run_dir / f"{tag}.graph", run_dir / f"{tag}.idx"
    stage = Stage(tsv, index_dir, {})
    stage.steps["dataset"] = must_run_cli(*dataset_args(tsv, scale))[:2]
    stage.steps["build"] = must_run_cli(*build_args(tsv, index_dir, scale))[:2]
    if inputs is None:
        inputs = make_inputs(tsv, index_dir, scale, seed)
    warm = Recorder()
    requests = inputs.requests(workload)
    try:
        if workload.name == "build-load":
            request = requests[0]
            wall, ref, out = must_run_cli(*query_args(index_dir, request, scale))
            warm.add_sampled(
                wall, ref, cli_scores(out) == inputs.oracle.expected(request)
            )
            stage.steps["query"] = (wall, ref)
        else:
            stage.server = Server(index_dir, scale, workload.admin)
            stage.steps["start"] = stage.server.wait_ready()
            stage.client = ServeClient.for_url(stage.server.url, max_retries=0)
            driver = ServeDriver(stage.client, inputs.oracle, warm)
            for request in requests:
                driver.query(request)
            stage.steps["warmup"] = (sum(warm.walls), sum(warm.reference_ms()))
        if warm.failed:
            raise RuntimeError("warm-up answers differ from the oracle")
    except BaseException:
        stage.close()
        raise
    return stage, inputs


@dataclass
class Window:
    """What the timed window measured beside the per-op timings."""

    recorder: Recorder
    cpu_ms: float
    rss_mb: float
    index_bytes: int
    premises: List[str]


def measure_served(
    workload: Workload, stage: Stage, inputs: Inputs, seconds: float
) -> Window:
    recorder = Recorder()
    min_ops = min_ops_for(workload.tail_pct)
    driver = ServeDriver(stage.client, inputs.oracle, recorder)
    pid = stage.server.pid
    counters_before = driver.cache_counters()
    cpu_before = proc_cpu_ms(pid)
    requests = inputs.requests(workload)
    if workload.name == "serve-rw":
        run_rw_script(driver, inputs, requests, seconds, min_ops)
    else:
        run_passes(driver, requests, seconds, min_ops)
    cpu_ms = proc_cpu_ms(pid) - cpu_before
    ratio = hit_ratio(counters_before, driver.cache_counters())
    premises = check_premises(workload, inputs, driver, ratio)
    rss_mb = proc_peak_rss_mb(pid)
    stage.close()  # the WAL is complete once the server has drained
    return Window(recorder, cpu_ms, rss_mb, dir_bytes(stage.index_dir), premises)


def measure_cycles(
    workload: Workload, stage: Stage, run_dir: Path, inputs: Inputs,
    scale: float, seconds: float,
) -> Window:
    recorder = Recorder(window=0)
    cpu_before = children_cpu_ms()
    index_bytes = run_cycles(
        recorder, run_dir, stage.tsv, inputs, inputs.requests(workload), scale, seconds
    )
    cpu_ms = children_cpu_ms() - cpu_before
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return Window(recorder, cpu_ms, rss_mb, index_bytes, [])


def run_untraced(
    workload: Workload, seed: int, seconds: float, scale: float,
    setup_repeats: int = SETUP_REPEATS,
) -> Report:
    cpu = pin_to_one_cpu()
    run_dir = OUT / f"run-{workload.name}-{seed}-{os.getpid()}"
    remove_tree(run_dir)
    run_dir.mkdir(parents=True)
    stage: Optional[Stage] = None
    inputs: Optional[Inputs] = None
    setups: List[Dict[str, Tuple[float, float]]] = []
    try:
        # Set-up, several times over; the last one is kept and measured on.
        for repeat in range(setup_repeats):
            if stage is not None:
                stage.close()
            stage, inputs = set_up(
                workload, run_dir, f"setup{repeat}", scale, seed, inputs
            )
            setups.append(stage.steps)
        steal_before = steal_ticks()
        if workload.name == "build-load":
            window = measure_cycles(workload, stage, run_dir, inputs, scale, seconds)
        else:
            window = measure_served(workload, stage, inputs, seconds)
        steal = steal_ticks() - steal_before
    finally:
        if stage is not None:
            stage.close()
        remove_tree(run_dir)

    recorder = window.recorder
    refs, raws = recorder.reference_ms(), recorder.raw_ms()
    if not refs:
        raise RuntimeError("no op succeeded; nothing to report")
    speed = statistics.median(recorder.speeds)
    cpu_raw = window.cpu_ms / recorder.attempted
    setup_ref = [sum(ref for _, ref in steps.values()) / 1e3 for steps in setups]
    setup_raw = [sum(wall for wall, _ in steps.values()) / 1e3 for steps in setups]
    elements = inputs.graph.num_vertices + inputs.graph.num_edges
    values = {
        "setup_s": statistics.median(setup_ref),
        "ops_per_s": len(refs) / (sum(refs) / 1e3),
        "p50_ms": statistics.median(refs),
        "tail_ms": tail_percentile(refs, workload.tail_pct),
        "cpu_ms_per_op": cpu_raw / speed * calib.CAL_REF_MS,
        "rss_mb": window.rss_mb,
        "index_bytes_per_elem": window.index_bytes / elements,
    }
    notes = [
        f"workload {workload.name}  seed {seed}  scale {scale}  pinned to cpu {cpu}",
        f"  ops attempted {recorder.attempted}, failed {recorder.failed}; "
        f"window {sum(raws) / 1e3:.2f} s of ops; tail = p{workload.tail_pct}; "
        f"steal {steal} ticks",
        f"  kernel median {speed:.4f} ms (reference {calib.CAL_REF_MS} ms)",
        "  raw wall-clock (audit, not metrics): "
        f"setup_s={statistics.median(setup_raw):.4f} "
        f"ops_per_s={len(raws) / (sum(raws) / 1e3):.4f} "
        f"p50_ms={statistics.median(raws):.4f} "
        f"tail_ms={tail_percentile(raws, workload.tail_pct):.4f} "
        f"cpu_ms_per_op={cpu_raw:.4f}",
        "  last set-up, reference s: " + ", ".join(
            f"{step} {ref / 1e3:.3f}" for step, (_, ref) in setups[-1].items()
        ),
        *(f"  PREMISE FAILED: {text}" for text in window.premises),
    ]
    return Report(
        correct=recorder.failed == 0 and not window.premises,
        attempted=recorder.attempted,
        failed=recorder.failed,
        metrics={name: (values[name], unit) for name, unit in END_TO_END.items()},
        notes=notes,
    )


def check_premises(
    workload: Workload, inputs: Inputs, driver: ServeDriver, ratio: float
) -> List[str]:
    """What each served workload assumes about the program, asserted."""
    problems = []
    if workload.name == "serve-explore":
        distinct = len({r.cache_key for r in inputs.pool})
        if distinct <= RESULT_CACHE_ENTRIES:
            problems.append(f"pool has {distinct} cache keys, LRU holds {RESULT_CACHE_ENTRIES}")
        if ratio != 0.0:
            problems.append(f"cache.result_hit_ratio {ratio:.4f}, expected 0")
        if not {0, 1, 2} <= driver.layers:
            problems.append(f"responses came from layers {sorted(driver.layers)} only")
    elif workload.name == "serve-hot":
        if ratio < 0.99:
            problems.append(f"cache.result_hit_ratio {ratio:.4f}, expected >= 0.99")
    elif workload.name == "serve-rw":
        if ratio > 0.01:
            problems.append(f"cache.result_hit_ratio {ratio:.4f}, expected ~0")
        # The script restored every edge: the base queries must match again.
        recheck = ServeDriver(driver.client, inputs.oracle, Recorder())
        for request in inputs.requests(workload):
            recheck.query(request)
        if recheck.recorder.failed:
            problems.append(
                f"{recheck.recorder.failed} base queries differ from the "
                "oracle after the script"
            )
    return problems


# ----------------------------------------------------------------------
# Tooling: --smoke, --repeat
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_RAW = re.compile(r"(\w+)=([\d.]+)")


def validate(document: Dict[str, object], spec: Dict[str, object], traced: bool) -> List[str]:
    """Check one emitted JSON line against BENCHMARK.json's metric lists."""
    problems = []
    if sorted(document) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(document)}")
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = document.get("metrics", {})
    for entry in wanted:
        got = metrics.get(entry["name"])
        if not _NAME.match(entry["name"]):
            problems.append(f"bad metric name {entry['name']!r}")
        if got is None:
            problems.append(f"metric {entry['name']} missing")
        elif got.get("unit") != entry["unit"]:
            problems.append(f"{entry['name']}: unit {got.get('unit')!r} != {entry['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{entry['name']}: value {got.get('value')!r}")
    extra = set(metrics) - {entry["name"] for entry in wanted}
    if extra:
        problems.append(f"unlisted metrics {sorted(extra)}")
    return problems


def load_spec() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def smoke() -> int:
    """Every workload, small and short, validated against BENCHMARK.json."""
    from layers import run_traced

    spec = load_spec()
    listed = [w["name"] for w in spec["workloads"]]
    problems = []
    if listed != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {listed} != {list(WORKLOADS)}")
    for workload in WORKLOADS.values():
        for traced in (False, True):
            if traced:
                report = run_traced(workload, 1, SMOKE_SCALE, smoke=True)
            else:
                report = run_untraced(workload, 1, 0.5, SMOKE_SCALE, setup_repeats=1)
            report.print()
            found = validate(json.loads(report.json_line()), spec, traced)
            if not report.correct:
                found.append("run reported correct=false")
            problems += [f"{workload.name} trace={int(traced)}: {p}" for p in found]
    for problem in problems:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def repeat(names: Sequence[str], runs: int, seed: int, seconds: float, trace: int) -> int:
    """Run each workload ``runs`` times (interleaved, a new seed each time,
    each in a fresh process as the driver does) and print the spreads."""
    results: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    for i in range(runs):
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", name,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            if proc.returncode != 0:
                print(proc.stdout)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            document = json.loads(lines[-1])
            print(f"{name} seed {seed + i}: {lines[-1]}", flush=True)
            values = {m: entry["value"] for m, entry in document["metrics"].items()}
            for line in lines:  # the untraced run's audit line
                if line.startswith("  raw wall-clock"):
                    values.update(
                        (f"raw:{m}", float(v)) for m, v in _RAW.findall(line)
                    )
            for metric, value in values.items():
                results[name].setdefault(metric, []).append(value)
    print(f"\n{'workload':<14} {'metric':<32} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'iqr/med':>8} {'range/med':>9}")
    for name, metrics in results.items():
        for metric, values in metrics.items():
            s = spread_summary(values)
            print(f"{name:<14} {metric:<32} {s['median']:>12.4f} {s['q1']:>12.4f} "
                  f"{s['q3']:>12.4f} {s['iqr_share']:>8.2%} {s['range_share']:>9.2%}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the query pool, its order and the mutated edges")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed window (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: in-process traced replay, per-layer metrics only")
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, small and short; validate the emitted JSON")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="N runs per workload, interleaved; print medians and spreads")
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.repeat is not None:
        return repeat(names, args.repeat, args.seed, seconds, args.trace)
    if len(names) != 1:
        parser.error("--workload is required (or use --smoke / --repeat)")
    workload = WORKLOADS[names[0]]
    if args.trace:
        from layers import run_traced

        report = run_traced(workload, args.seed, SCALE)
    else:
        report = run_untraced(workload, args.seed, seconds, SCALE)
    report.print()
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
