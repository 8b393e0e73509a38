"""Nested span tracing with a no-op fast path.

A :class:`Tracer` records a tree of named spans (wall-clock intervals
with attributes) per traced operation.  Spans nest lexically::

    with tracer.span("query", algorithm="bkws") as sp:
        with tracer.span("layer-selection"):
            ...
        sp.annotate(layer=2)

When instrumentation is disabled the module-level :data:`NULL_TRACER`
stands in: its ``span()`` returns one shared, stateless context manager,
so the disabled path costs a single attribute check plus a no-op
``with`` — no allocation, no clock read.

Traces serialize two ways:

* :meth:`Tracer.format_tree` — the human ``--explain`` rendering, with
  repeated identical siblings aggregated as ``name ×N``.
* :meth:`Tracer.to_events` / :func:`write_trace` — Chrome-trace-format
  "X" (complete) events, one JSON object per line.  Load in
  ``chrome://tracing`` / Perfetto after wrapping in a JSON array
  (``jq -s . trace.jsonl``).
"""

from __future__ import annotations

import json
import os
from typing import Callable, Dict, List, Optional, TextIO, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.utils.timers import monotonic_now


class Span:
    """One named interval in the trace tree."""

    __slots__ = ("name", "start", "end", "attrs", "children")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}
        self.children: List["Span"] = []

    def annotate(self, **attrs: object) -> None:
        """Attach key/value attributes (shown in --explain and traces)."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start


class _SpanContext:
    """Context manager that opens/closes one span on the tracer's stack."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer._close(self._span, exc)
        return False


class _NullSpan:
    """Shared stateless stand-in for a span when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: object) -> None:
        pass


#: The one null span every disabled ``span()`` call returns.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a forest of nested spans with monotonic timestamps."""

    def __init__(self, clock: Callable[[], float] = monotonic_now) -> None:
        self._clock = clock
        #: tracer start time; Chrome-trace timestamps are relative to it.
        self.epoch = clock()
        #: top-level spans, in start order.
        self.roots: List[Span] = []
        #: every span, in start order (for serialization).
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    # -- recording ------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _SpanContext:
        """Open a child span of the current span (or a new root)."""
        return _SpanContext(self, name, attrs)

    def _open(self, name: str, attrs: Dict[str, object]) -> Span:
        span = Span(name, self._clock())
        if attrs:
            span.attrs.update(attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Optional[Span], exc: Optional[BaseException]) -> None:
        if span is None:
            return
        span.end = self._clock()
        if exc is not None:
            span.attrs.setdefault("error", type(exc).__name__)
        # ``with`` blocks nest, so on the one thread a tracer serves the
        # closing span is the stack top.
        if self._stack and self._stack[-1] is span:
            self._stack.pop()

    # -- serialization --------------------------------------------------
    def to_events(
        self, metrics: Optional[MetricsRegistry] = None
    ) -> List[Dict[str, object]]:
        """Chrome-trace events: one "X" per span, plus an optional final
        "i" instant event carrying the metrics snapshot."""
        now = self._clock()
        pid = os.getpid()
        events: List[Dict[str, object]] = []
        for span in self.spans:
            end = span.end if span.end is not None else now
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": (span.start - self.epoch) * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "cat": span.name.split(".")[0].split("-")[0] or "repro",
                    "args": dict(span.attrs),
                }
            )
        if metrics is not None:
            events.append(
                {
                    "name": "metrics",
                    "ph": "i",
                    "ts": (now - self.epoch) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "s": "g",
                    "cat": "metrics",
                    "args": metrics.snapshot(),
                }
            )
        return events

    def write(
        self, stream: TextIO, metrics: Optional[MetricsRegistry] = None
    ) -> int:
        """Write events to ``stream`` as JSON lines; returns event count."""
        events = self.to_events(metrics=metrics)
        for event in events:
            stream.write(json.dumps(event, sort_keys=True, default=str))
            stream.write("\n")
        return len(events)

    # -- human rendering ------------------------------------------------
    def format_tree(self) -> str:
        """Indented per-phase tree with durations and attributes.

        Runs of siblings with identical (name, attrs) collapse into one
        ``name ×N`` line whose duration is their sum — the evaluator's
        per-level ``explore`` spans would otherwise drown the tree.
        """
        lines: List[str] = []

        def attr_text(attrs: Dict[str, object]) -> str:
            if not attrs:
                return ""
            parts = []
            for key in sorted(attrs):
                value = attrs[key]
                if isinstance(value, float):
                    parts.append(f"{key}={value:.4g}")
                else:
                    parts.append(f"{key}={value}")
            return "  [" + " ".join(parts) + "]"

        def render(span_group: List[Span], depth: int) -> None:
            # Aggregate identical siblings while preserving first-seen order.
            grouped: Dict[Tuple[str, str], List[Span]] = {}
            order: List[Tuple[str, str]] = []
            for child in span_group:
                key = (child.name, repr(sorted(child.attrs.items(),
                                               key=lambda kv: kv[0])))
                if key not in grouped:
                    grouped[key] = []
                    order.append(key)
                grouped[key].append(child)
            for key in order:
                members = grouped[key]
                head = members[0]
                total = sum(m.duration for m in members)
                count = f" ×{len(members)}" if len(members) > 1 else ""
                lines.append(
                    f"{'  ' * depth}{head.name}{count}"
                    f"  {total * 1000:.3f} ms{attr_text(head.attrs)}"
                )
                merged_children: List[Span] = []
                for member in members:
                    merged_children.extend(member.children)
                if merged_children:
                    render(merged_children, depth + 1)

        render(self.roots, 0)
        return "\n".join(lines)


class NullTracer(Tracer):
    """Tracer whose spans cost nothing; active while tracing is off."""

    def __init__(self) -> None:
        # Skip Tracer.__init__ entirely: no clock read, no lists.
        pass

    def span(self, name: str, **attrs: object) -> _NullSpan:  # type: ignore[override]
        return NULL_SPAN

    def to_events(self, metrics=None) -> List[Dict[str, object]]:
        return []

    def write(self, stream, metrics=None) -> int:
        return 0

    def format_tree(self) -> str:
        return ""


#: Shared do-nothing tracer used while instrumentation is disabled.
NULL_TRACER = NullTracer()


def write_trace(
    path: str, tracer: Tracer, metrics: Optional[MetricsRegistry] = None
) -> int:
    """Write ``tracer``'s events to ``path`` as JSONL; returns event count."""
    with open(path, "w", encoding="utf-8") as handle:
        return tracer.write(handle, metrics=metrics)
