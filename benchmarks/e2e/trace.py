"""Spans recorded by the benchmark around its calls into the program.

The program is not modified: a span either wraps a call the benchmark
makes itself (``with tracer.span(...)``) or a public function the program
calls internally, temporarily rebound to a recording wrapper
(``tracer.patch(owner, "attr", "span.name")``).  Spans stay in memory and
are written out once, after the run.  Single-threaded by design: the
traced run replays ops on one thread.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


class Span:
    """One timed interval; a context manager that times its own block.

    A slotted class, not a generated one: spans wrap sub-millisecond calls
    and their own cost has to stay under the overhead limit.
    """

    __slots__ = ("id", "name", "parent", "op", "start", "end", "attrs", "_stack")

    def __init__(
        self, id: int, name: str, parent: Optional[int], op: Optional[int],
        start: float = 0.0, end: float = 0.0,
        attrs: Optional[Dict[str, Any]] = None, stack: Optional[List["Span"]] = None,
    ) -> None:
        self.id = id
        self.name = name
        self.parent = parent
        #: The op (one request, one write, one build cycle) this span serves.
        self.op = op
        self.start = start
        self.end = end
        #: ``None`` until something is annotated (most spans carry nothing).
        self.attrs = attrs
        self._stack = stack

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    def __enter__(self) -> "Span":
        stack = self._stack
        if stack:
            self.parent = stack[-1].id
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self._stack.pop()

    def as_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "op": self.op, "start": self.start, "end": self.end,
            "attrs": self.attrs or {},
        }


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._stack: List[Span] = []

    def span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> Span:
        """A span to enter with ``with``; its parent is whatever span is
        open at that moment."""
        spans = self.spans
        span = Span(len(spans), name, None, self.op, 0.0, 0.0, attrs, self._stack)
        spans.append(span)
        return span

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` run inside a span."""

        span = self.span

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patch(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Rebind ``owner.attr`` (module, class or instance) to a recording
        wrapper for the block, restoring the original binding after."""
        missing = object()
        saved = vars(owner).get(attr, missing)
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        try:
            yield
        finally:
            if saved is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def add_child(self, parent: Span, name: str, seconds: float) -> None:
        """Record time the program itself attributed to a phase of
        ``parent`` (e.g. ``EvalResult.breakdown``): an aggregate child with
        a duration but no position of its own inside the parent."""
        if seconds > 0:
            self.spans.append(
                Span(
                    len(self.spans), name, parent.id, parent.op,
                    parent.start, parent.start + seconds, {"aggregate": True},
                )
            )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> milliseconds not covered by its direct children."""
    own = {span.id: span.ms for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.ms
    return own


def closure_ratios(spans: Sequence[Span], root_name: str) -> List[float]:
    """Per root span named ``root_name``: sum of direct children / root."""
    children: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.ms
    return [
        children.get(span.id, 0.0) / span.ms
        for span in spans
        if span.name == root_name and span.ms > 0
    ]
