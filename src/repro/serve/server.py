"""The stdlib HTTP transport for :class:`~repro.serve.service.QueryService`.

One thread per connection (``ThreadingHTTPServer``), HTTP/1.1 with
keep-alive so the bench harness and the serve fuzzer can reuse
connections, and a handler thin enough that every decision — routing,
status codes, budgets, shedding — lives in the transport-independent
service layer where the contract tests can reach it without sockets.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterator, Optional, Tuple

from repro.serve.service import QueryService

#: Refuse request bodies beyond this (a 413); keeps a stray client from
#: buffering the server into the ground.
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServeHandler(BaseHTTPRequestHandler):
    """Decode HTTP, delegate to the service, encode JSON back."""

    #: Keep-alive; requires every response to carry Content-Length.
    protocol_version = "HTTP/1.1"
    server_version = "repro-bigindex"
    #: Small request/response pairs on a persistent connection are the
    #: worst case for Nagle + delayed ACK (tens of ms per exchange on
    #: loopback); serving latency is dominated by it unless disabled.
    disable_nagle_algorithm = True

    # The service instance rides on the server object (set by
    # :class:`QueryServer`); handlers are instantiated per connection.
    def _service(self) -> QueryService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._respond(400, {"status": "error", "error": "bad Content-Length"})
            return
        if length > MAX_BODY_BYTES:
            self._respond(
                413,
                {
                    "status": "error",
                    "error": f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                },
            )
            return
        body = self.rfile.read(length) if length else b""
        status, payload, extra = self._service().handle(
            method, self.path, body, dict(self.headers.items())
        )
        self._respond(status, payload, extra)

    def _respond(self, status: int, payload: object, extra=None) -> None:
        # A str payload is pre-rendered text (the content-negotiated
        # Prometheus /metrics); anything else is the JSON contract.
        extra = dict(extra or {})
        if isinstance(payload, str):
            data = payload.encode("utf-8")
            content_type = extra.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            # Strict JSON: a non-finite float reaching the wire is a bug.
            data = json.dumps(
                payload, sort_keys=True, allow_nan=False
            ).encode("utf-8")
            content_type = extra.pop("Content-Type", "application/json")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        for key, value in extra.items():
            self.send_header(key, value)
        self.end_headers()
        try:
            self.wfile.write(data)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to salvage

    # Silence the default stderr access log; the service's metrics are
    # the observable surface (`/metrics`, serve.* counters).
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


class QueryServer(ThreadingHTTPServer):
    """A ``ThreadingHTTPServer`` bound to one :class:`QueryService`."""

    daemon_threads = True
    #: Fast rebinds between test runs.
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: QueryService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.port}"


def start_server(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> QueryServer:
    """Bind a server (``port=0`` picks a free one) without serving yet."""
    return QueryServer((host, port), service)


def shutdown_gracefully(
    server: QueryServer,
    thread: Optional[threading.Thread] = None,
    drain_deadline: float = 10.0,
) -> bool:
    """Drain and stop a server: the SIGTERM path of ``repro-bigindex serve``.

    Ordering matters for durability and clean client errors:

    1. the service stops admitting (new requests shed 503 "draining"),
    2. in-flight requests finish, up to ``drain_deadline`` seconds —
       any admin mutation that acks during the drain is WAL-durable by
       the ack contract,
    3. the listener stops and the socket closes,
    4. the WAL (if the runtime owns one) fsyncs its tail and closes,
       and any access/slow-query logs flush and close.

    Returns whether the drain finished before the deadline.  Safe to
    call from a signal-handling thread that is *not* the serve loop
    (``serve_forever`` must run elsewhere, or ``shutdown()`` deadlocks).
    """
    service = server.service
    drained = service.drain(drain_deadline)
    server.shutdown()
    server.server_close()
    if thread is not None:
        thread.join(timeout=5.0)
    wal = service.runtime.wal
    if wal is not None:
        wal.close()
    for log in (service.access_log, service.slow_log):
        if log is not None:
            log.close()
    return drained


@contextmanager
def serve_in_thread(
    service: QueryService, host: str = "127.0.0.1", port: int = 0
) -> Iterator[QueryServer]:
    """Run a live server on a daemon thread for the ``with`` body.

    The pattern every in-process consumer uses (tests, the bench's
    ``serve.qps`` entry, the fuzzer's ``--serve`` leg): real sockets,
    real handler threads, deterministic shutdown.
    """
    server = start_server(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-serve",
        daemon=True,
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
