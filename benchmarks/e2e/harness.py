"""Driving the real programs from outside, and the arithmetic on timings.

Process handling (CLI runs, the ``serve`` subprocess), per-op recording
with speed calibration, and the percentile/quartile helpers.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Tuple

import calib
from workloads import DATASET, LAYERS, Oracle, Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

#: Seconds between kernel readings while a child process works.
SAMPLE_INTERVAL = 0.05
#: A run that cannot collect its op count by then is on a broken host.
WINDOW_CAP_SECONDS = 120.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> int:
    """Pin this process (and so every child) to one CPU.

    vCPU speed on a shared guest is a per-CPU state that flips by ~1.6x
    every few seconds.  A closed loop never needs two CPUs at once, and
    on one CPU the calibration kernel samples the very speed the program
    under test just ran at.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# ----------------------------------------------------------------------
# Timing arithmetic
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def samples_beyond(n: int, pct: float) -> int:
    return n - math.ceil(pct / 100.0 * n)


def min_ops_for(pct: float) -> int:
    """Fewest samples that leave >= 10 beyond the ``pct``-th percentile
    (0 for the median, which every sample count supports)."""
    if pct == 50:
        return 0
    return math.ceil(10 / (1 - pct / 100.0))


def tail_percentile(samples: Sequence[float], pct: float) -> float:
    """The fixed tail percentile, refused when fewer than ten samples lie
    beyond it (the number would be one or two outliers, not a tail).  The
    median is always supported and is ``statistics.median``."""
    if pct == 50:
        return statistics.median(samples)
    if samples_beyond(len(samples), pct) < 10:
        raise ValueError(
            f"p{pct:g} needs {min_ops_for(pct)} samples, have {len(samples)}"
        )
    return percentile(samples, pct)


def spread_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR/median and (max-min)/median of repeated runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    scale = abs(median) or 1.0
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / scale,
        "range_share": (max(values) - min(values)) / scale,
    }


def sampled_wait(poll: Callable[[float], bool]) -> Tuple[float, float]:
    """Block until ``poll(timeout)`` reports done, reading the kernel every
    ``SAMPLE_INTERVAL``; returns ``(wall ms, reference ms)``.

    For waits that span speed states (a 1.5 s build), the mean reading is
    the right divisor: wall = work x mean slowness.
    """
    start = time.perf_counter()
    readings = [calib.kernel_ms(3)]
    while not poll(SAMPLE_INTERVAL):
        readings.append(calib.kernel_ms(3))
    wall = (time.perf_counter() - start) * 1e3
    return wall, wall / statistics.fmean(readings) * calib.CAL_REF_MS


@dataclass
class Recorder:
    """Timed ops of one window: wall clock, kernel reading, verdict."""

    #: Kernel readings on each side of an op that vote on its speed; 0 for
    #: ops that carry their own sampled reading.
    window: int = calib.WINDOW
    walls: List[float] = field(default_factory=list)
    speeds: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)

    def timed(self, fn: Callable[[], object]) -> object:
        """Run one op, then the kernel once (outside the op's time)."""
        start = time.perf_counter()
        result = fn()
        self.walls.append((time.perf_counter() - start) * 1e3)
        self.speeds.append(calib.kernel_ms())
        self.ok.append(True)
        return result

    def add_sampled(self, wall_ms: float, ref_ms: float, ok: bool) -> None:
        """An op already normalized by :func:`sampled_wait`."""
        self.walls.append(wall_ms)
        self.speeds.append(wall_ms / ref_ms * calib.CAL_REF_MS)
        self.ok.append(ok)

    def fail_last(self) -> None:
        self.ok[-1] = False

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    def reference_ms(self) -> List[float]:
        """Normalized latencies of the ops that succeeded."""
        refs = calib.normalize(self.walls, self.speeds, self.window)
        return [ref for ref, ok in zip(refs, self.ok) if ok]

    def raw_ms(self) -> List[float]:
        return [wall for wall, ok in zip(self.walls, self.ok) if ok]


# ----------------------------------------------------------------------
# /proc readings
# ----------------------------------------------------------------------
def proc_cpu_ms(pid: int) -> float:
    """utime + stime of one process, milliseconds."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1e3 / _CLK_TCK


def children_cpu_ms() -> float:
    """utime + stime of every child already waited for."""
    times = os.times()
    return (times.children_user + times.children_system) * 1e3


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def steal_ticks() -> int:
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# The programs
# ----------------------------------------------------------------------
def cli_args(*args: object) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def wait_sampled(proc: subprocess.Popen) -> Tuple[float, float]:
    """:func:`sampled_wait` until ``proc`` exits."""

    def poll(timeout: float) -> bool:
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return False
        return True

    return sampled_wait(poll)


def run_cli(*args: object) -> Tuple[float, float, int, str]:
    """One ``repro.cli`` process: ``(wall ms, reference ms, exit, stdout)``."""
    proc = subprocess.Popen(
        cli_args(*args), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=ENV, text=True,
    )
    try:
        wall, ref = wait_sampled(proc)
        output = proc.stdout.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    return wall, ref, proc.returncode, output


def must_run_cli(*args: object) -> Tuple[float, float, str]:
    wall, ref, code, output = run_cli(*args)
    if code != 0:
        raise RuntimeError(f"repro.cli {args[0]} exited {code}:\n{output}")
    return wall, ref, output


def dataset_args(tsv: Path, scale: float) -> Tuple[object, ...]:
    return ("dataset", DATASET, "--out", tsv, "--scale", scale)


def build_args(tsv: Path, index_dir: Path, scale: float) -> Tuple[object, ...]:
    return (
        "build", tsv, "--index-dir", index_dir, "--layers", LAYERS,
        "--ontology-from", DATASET, "--scale", scale,
    )


def query_args(index_dir: Path, request: Request, scale: float) -> Tuple[object, ...]:
    return (
        "query", index_dir, "--keywords", *request.keywords,
        "--k", request.k, "--show", request.k,
        "--ontology-from", DATASET, "--scale", scale,
    )


_SCORE = re.compile(r"^\s+\d+\. score=(\S+) ", re.MULTILINE)


def cli_scores(stdout: str) -> List[float]:
    """Ranked scores printed by ``repro.cli query``."""
    return [float(s) for s in _SCORE.findall(stdout)]


class Server:
    """``repro.cli serve`` on a free port, terminated and reaped on exit."""

    def __init__(self, index_dir: Path, scale: float, admin: bool) -> None:
        extra = ["--admin"] if admin else []
        self.proc = subprocess.Popen(
            cli_args(
                "serve", index_dir, "--port", 0,
                "--ontology-from", DATASET, "--scale", scale, *extra,
            ),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=ENV,
        )
        self.url = ""
        self._buffer = b""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _poll_ready(self, timeout: float) -> bool:
        """Read startup lines until ``serving ... on http://...`` (a reused
        directory first prints ``replayed N durable mutation(s)``)."""
        fd = self.proc.stdout.fileno()
        if select.select([fd], [], [], timeout)[0]:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    "serve exited before it was ready:\n"
                    + self._buffer.decode("utf-8", "replace")
                )
            self._buffer += chunk
        for line in self._buffer.split(b"\n")[:-1]:
            match = re.match(rb"serving .* on (http://\S+)", line)
            if match:
                self.url = match.group(1).decode("ascii")
                return True
        return False

    def wait_ready(self) -> Tuple[float, float]:
        """``(wall ms, reference ms)`` from now until the port is known."""
        return sampled_wait(self._poll_ready)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ----------------------------------------------------------------------
# Served ops
# ----------------------------------------------------------------------
def answer_scores(payload: Dict[str, object]) -> List[float]:
    return [answer["score"] for answer in payload.get("answers", [])]


@dataclass
class ServeDriver:
    """One closed-loop client: sends, times and checks served ops."""

    client: object  # repro.serve.client.ServeClient
    oracle: Oracle
    recorder: Recorder
    layers: Set[int] = field(default_factory=set)

    def query(self, request: Request, check: bool = True) -> List[float]:
        """One timed ``POST /query``; returns the served scores."""
        response = self.recorder.timed(
            lambda: self.client.query(
                request.keywords, k=request.k, layer=request.layer
            )
        )
        scores = answer_scores(response.payload)
        if response.status != 200 or (
            check and scores != self.oracle.expected(request)
        ):
            self.recorder.fail_last()
        else:
            self.layers.add(response.payload["layer"])
        return scores

    def mutate(self, op: str, edge: Tuple[int, int]) -> None:
        response = self.recorder.timed(
            lambda: self.client.mutate(op, edge[0], edge[1])
        )
        if response.status != 200 or response.payload.get("applied") is not True:
            self.recorder.fail_last()

    def cache_counters(self) -> Dict[str, int]:
        return result_cache_counters(self.client.metrics().payload)


def result_cache_counters(metrics_payload: Dict[str, object]) -> Dict[str, int]:
    """The evaluator result cache's counters out of a ``/metrics`` body."""
    counters = metrics_payload["counters"]
    return {
        name: counters.get(f"cache.{name}", 0)
        for name in ("hit.result", "miss.result", "invalidations")
    }


def hit_ratio(before: Dict[str, int], after: Dict[str, int]) -> float:
    hits = after["hit.result"] - before["hit.result"]
    misses = after["miss.result"] - before["miss.result"]
    return hits / (hits + misses) if hits + misses else 0.0


@dataclass
class Report:
    """One run's result: the contract's JSON line plus audit notes."""

    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit), in BENCHMARK.json's order.
    metrics: Dict[str, Tuple[float, str]]
    #: Human-readable audit lines (raw values, steal, premises).
    notes: List[str]

    def json_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        })

    def print(self) -> None:
        for note in self.notes:
            print(note)
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:<32} {value:>14.4f} {unit}")
        print(self.json_line(), flush=True)


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
