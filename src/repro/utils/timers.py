"""Timing helpers used by the benchmark harness.

The paper's Exp-1 figures break query time into three phases: exploring the
summary graphs, pruning/specialization, and final answer generation.
:class:`TimeBreakdown` accumulates named phases so the harness can print the
same breakdown.

:data:`monotonic_now` is the one clock every timing path uses — the
benchmark harness, budgets, the tracer, and these helpers all read it so
their timestamps are mutually comparable and immune to wall-clock steps
(NTP adjustments, DST).  It aliases :func:`time.perf_counter`, the
highest-resolution monotonic clock CPython offers.
"""

from __future__ import annotations

import time
from typing import Dict

#: The repo-wide monotonic clock: seconds as a float, arbitrary epoch,
#: never goes backwards.  Do not mix with ``time.time()`` in timing code.
monotonic_now = time.perf_counter


class _Phase:
    """:meth:`TimeBreakdown.phase`: two clock reads and no generator frame
    (phases wrap per-batch work); a body that raises is timed too, and so
    is an ``inner`` context (a trace span) entered inside the phase."""

    __slots__ = ("_totals", "_name", "_start", "_inner")

    def __init__(self, totals: Dict[str, float], name: str, inner=None) -> None:
        self._totals, self._name, self._inner = totals, name, inner

    def __enter__(self) -> object:
        self._start = monotonic_now()
        return None if self._inner is None else self._inner.__enter__()

    def __exit__(self, *exc_info: object) -> None:
        if self._inner is not None:
            self._inner.__exit__(*exc_info)
        totals, name = self._totals, self._name
        totals[name] = totals.get(name, 0.0) + (monotonic_now() - self._start)


class TimeBreakdown:
    """Accumulates wall-clock time under named phases.

    Example
    -------
    >>> breakdown = TimeBreakdown()
    >>> with breakdown.phase("explore"):
    ...     pass
    >>> sorted(breakdown.totals) == ["explore"]
    True
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def phase(self, name: str, inner: object = None) -> _Phase:
        """Context manager timing one phase (and ``inner``, entered inside
        it); time accumulates across uses."""
        return _Phase(self.totals, name, inner)

    def add(self, name: str, seconds: float) -> None:
        """Add ``seconds`` to phase ``name`` directly."""
        self.totals[name] = self.totals.get(name, 0.0) + seconds

    @property
    def total(self) -> float:
        """Sum of all phases."""
        return sum(self.totals.values())

    def merge(self, other: "TimeBreakdown") -> None:
        """Fold another breakdown's phases into this one."""
        for name, seconds in other.totals.items():
            self.add(name, seconds)

    def as_dict(self) -> Dict[str, float]:
        """Return a copy of the phase totals."""
        return dict(self.totals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v:.4f}s" for k, v in sorted(self.totals.items()))
        return f"TimeBreakdown({parts})"
