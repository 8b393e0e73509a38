"""Admission control: shed load *before* a query spends anything.

The server's unit of work is the node expansion (the same unit
:class:`~repro.utils.budget.Budget` charges), so admission reasons in
expansions too — the BLINKS/bi-level line's idea of bounding work at the
entry point rather than discovering overload mid-search:

* **In-flight request cap** — at most ``max_inflight_requests`` requests
  may execute at once; beyond it the request is shed.
* **In-flight expansion reservation** — every admitted request reserves
  its worst-case expansion spend (its budget's cap, or the server
  default for unbounded requests); when the sum of reservations would
  exceed ``max_inflight_expansions`` the request is shed.  The ledger is
  pessimistic by design: a reservation is the cap, not the actual spend,
  so the server never *starts* more work than it is willing to finish.

A shed request costs one lock acquisition and produces an HTTP 503 with
``Retry-After`` — the serving-side face of the ``DegradedResult`` /
exit-3 contract (degraded-but-started work maps to 429 instead; see
:mod:`repro.serve.service`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterator, Optional

from contextlib import contextmanager

from repro.obs.metrics import MetricsRegistry


class ShedError(Exception):
    """Raised when admission control rejects a request.

    ``reason`` is ``"inflight"`` (request cap) or ``"expansions"``
    (reservation ledger full); ``retry_after`` is the hint forwarded as
    the HTTP ``Retry-After`` header.
    """

    def __init__(self, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(f"request shed: {reason}")
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class Ticket:
    """Proof of admission; release it exactly once."""

    reserved: int


class AdmissionController:
    """The global in-flight ledger shared by every handler thread."""

    def __init__(
        self,
        max_inflight_requests: Optional[int] = None,
        max_inflight_expansions: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_inflight_requests is not None and max_inflight_requests < 0:
            raise ValueError("max_inflight_requests must be non-negative")
        if max_inflight_expansions is not None and max_inflight_expansions < 0:
            raise ValueError("max_inflight_expansions must be non-negative")
        self.max_inflight_requests = max_inflight_requests
        self.max_inflight_expansions = max_inflight_expansions
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._inflight = 0
        self._reserved = 0

    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        """Requests currently executing."""
        return self._inflight

    @property
    def reserved_expansions(self) -> int:
        """Sum of in-flight expansion reservations."""
        return self._reserved

    def try_admit(self, reserve: int = 0) -> Ticket:
        """Admit a request reserving ``reserve`` expansions, or shed.

        Raises :class:`ShedError` without mutating the ledger when a cap
        would be exceeded; on success the caller owns a :class:`Ticket`
        and must :meth:`release` it when the request finishes.
        """
        reserve = max(0, int(reserve))
        with self._lock:
            if (
                self.max_inflight_requests is not None
                and self._inflight >= self.max_inflight_requests
            ):
                self._shed("inflight")
            if (
                self.max_inflight_expansions is not None
                and self._reserved + reserve > self.max_inflight_expansions
            ):
                self._shed("expansions")
            self._inflight += 1
            self._reserved += reserve
        self.metrics.inc("serve.admitted")
        return Ticket(reserved=reserve)

    def release(self, ticket: Ticket) -> None:
        with self._lock:
            self._inflight -= 1
            self._reserved -= ticket.reserved

    @contextmanager
    def admit(self, reserve: int = 0) -> Iterator[Ticket]:
        """``try_admit`` + guaranteed release around a request body."""
        ticket = self.try_admit(reserve)
        try:
            yield ticket
        finally:
            self.release(ticket)

    # ------------------------------------------------------------------
    def _shed(self, reason: str) -> None:
        self.metrics.inc("serve.shed")
        self.metrics.inc(f"serve.shed.{reason}")
        raise ShedError(reason)
