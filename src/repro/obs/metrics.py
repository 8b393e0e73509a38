"""Metrics registry: counters, gauges, and histograms for query telemetry.

The registry is deliberately minimal — plain dict-backed counters with
string names — because its hot-path cost matters more than its feature
set.  Instrumented code guards every call behind ``if OBS.enabled:`` (see
:mod:`repro.obs.runtime`), so when observability is off the registry is
never touched at all; :data:`NULL_METRICS` exists only as a safe default
for code that stores a registry reference up front.

Naming convention (documented in docs/OBSERVABILITY.md): dot-separated,
``<subsystem>.<event>`` — e.g. ``search.expansions``, ``refine.rounds``,
``wal.appends``.  Counters count events, gauges record last-seen
values, histograms accumulate (count, sum, min, max) of observations.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Fixed ``le`` bucket bounds (seconds) shared by every histogram, so
#: p50/p95/p99 are derivable by any Prometheus scraper and two
#: registries merge bucket-for-bucket.  Spans sub-millisecond cache hits
#: through multi-second degraded searches; everything beyond the last
#: bound lands in the implicit ``+Inf`` overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Histogram:
    """Streaming summary of observed values: count/sum/min/max plus
    fixed-bound buckets (Prometheus ``le`` semantics: a value counts in
    the first bucket whose upper bound it does not exceed)."""

    __slots__ = ("count", "total", "min", "max", "bounds", "bucket_counts")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One slot per bound plus the +Inf overflow; non-cumulative.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper bound, cumulative count)`` pairs, ``+Inf`` last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (``q`` in [0, 1]).

        Linear interpolation inside the covering bucket, the same
        estimate ``histogram_quantile()`` computes server-side; exact at
        the recorded min/max, which also bound the result.
        """
        if not self.count:
            return 0.0
        assert self.min is not None and self.max is not None
        target = q * self.count
        running = 0.0
        lower = 0.0
        for bound, n in zip(self.bounds, self.bucket_counts):
            if running + n >= target and n:
                position = (target - running) / n
                estimate = lower + (bound - lower) * position
                return min(max(estimate, self.min), self.max)
            running += n
            lower = bound
        return self.max  # target falls in the +Inf overflow bucket

    def as_dict(self) -> Dict[str, object]:
        buckets = {
            ("+Inf" if bound == float("inf") else f"{bound:g}"): cum
            for bound, cum in self.cumulative_buckets()
        }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "buckets": buckets,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def copy(self) -> "_Histogram":
        """An independent deep copy (for merge-under-lock snapshots)."""
        twin = _Histogram(self.bounds)
        twin.count = self.count
        twin.total = self.total
        twin.min = self.min
        twin.max = self.max
        twin.bucket_counts = list(self.bucket_counts)
        return twin

    def merge(self, other: "_Histogram") -> None:
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound
        if self.bounds == other.bounds:
            for i, n in enumerate(other.bucket_counts):
                self.bucket_counts[i] += n
        else:  # mismatched layouts: re-bucket by each upper bound
            for bound, n in zip(other.bounds, other.bucket_counts):
                if n:
                    slot = bisect.bisect_left(self.bounds, bound)
                    self.bucket_counts[slot] += n
            self.bucket_counts[-1] += other.bucket_counts[-1]


class MetricsRegistry:
    """Counters, gauges, and histograms keyed by dotted metric names.

    Thread-safe: serve handler threads record concurrently, so every
    record and every read takes the registry's one lock.  Instrumented
    loops tally in plain locals and record once (OBSERVABILITY.md rule
    3), so a request makes a few dozen calls and the lock is cheap.
    """

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Record the last-seen value of gauge ``name``."""
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one observation into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram()
            hist.observe(value)

    # -- reading --------------------------------------------------------
    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """All counters, sorted by name (a copy; safe to serialize)."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def gauges(self) -> Dict[str, float]:
        """All gauges, sorted by name (a copy)."""
        with self._lock:
            return dict(sorted(self._gauges.items()))

    def histograms(self) -> Dict[str, Dict[str, object]]:
        """All histograms as {name: {count, sum, min, max, mean, buckets,
        p50, p95, p99}}."""
        with self._lock:
            return {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            }

    def histogram_quantile(self, name: str, q: float) -> float:
        """Bucket-interpolated quantile of histogram ``name`` (0 when
        the histogram has no observations)."""
        with self._lock:
            hist = self._histograms.get(name)
            return hist.quantile(q) if hist is not None else 0.0

    def snapshot(self) -> Dict[str, object]:
        """One JSON-serializable dict of everything recorded, read under
        a single lock hold (no record or merge interleaves)."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (counters add, gauges take
        the other's last value, histograms combine)."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
            histograms = {n: h.copy() for n, h in other._histograms.items()}
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(gauges)
            for name, hist in histograms.items():
                self._histograms.setdefault(name, _Histogram()).merge(hist)

    def format(self, prefixes: Optional[Mapping[str, None]] = None) -> str:
        """Human-readable multi-line dump, optionally filtered by prefix.

        ``prefixes`` (an iterable of name prefixes; a mapping's keys work
        too) limits the output to matching metric names.
        """
        wanted = tuple(prefixes) if prefixes is not None else None

        def keep(name: str) -> bool:
            return wanted is None or name.startswith(wanted)

        counters = self.counters()
        gauges = self.gauges()
        histograms = self.histograms()
        lines: List[str] = []
        for name, value in counters.items():
            if keep(name):
                lines.append(f"  {name} = {value}")
        for name, value in gauges.items():
            if keep(name):
                lines.append(f"  {name} = {value:g} (gauge)")
        for name, hist in histograms.items():
            if keep(name):
                lines.append(
                    f"  {name} = count={hist['count']} mean={hist['mean']:.3g}"
                    f" min={hist['min']:g} max={hist['max']:g} (histogram)"
                )
        return "\n".join(lines)


class NullMetrics(MetricsRegistry):
    """A registry that drops everything.

    Exists so un-guarded code paths holding a registry reference stay
    correct when instrumentation is disabled; the hot paths never reach
    it because they gate on ``OBS.enabled`` first.
    """

    __slots__ = ()

    def inc(self, name: str, amount: int = 1) -> None:  # pragma: no cover
        pass

    def gauge(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    def observe(self, name: str, value: float) -> None:  # pragma: no cover
        pass


#: Shared do-nothing registry used while instrumentation is disabled.
NULL_METRICS = NullMetrics()
