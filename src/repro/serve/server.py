"""The HTTP/1.1 transport for :class:`~repro.serve.service.QueryService`.

One thread per connection (``socketserver.ThreadingTCPServer``) runs a
keep-alive loop: read the request head by hand, read the body, hand
``(method, path, body, headers)`` to the service, and write the whole
response — status line, headers and body — with one ``sendall``.  Every
decision about a request (routing, status codes, budgets, shedding)
lives in the transport-independent service layer, where the contract
tests reach it without sockets; this module only frames bytes.

Wire rules (``docs/SERVING.md``, "Wire"):

* the request line and each header line are at most 64 KiB (414 / 431),
  and a request carries at most 100 header lines (431);
* a header name followed by whitespace before its colon is a 400;
* ``Content-Length`` is ASCII digits (400 otherwise), repeated only with
  the same value (400 otherwise, in any letter case) and at most
  :data:`MAX_BODY_BYTES` (413, the body is never read);
* any ``Transfer-Encoding`` is answered 501: chunked bodies are not
  supported;
* HTTP/1.1 keeps the connection open unless the client sends
  ``Connection: close``; HTTP/1.0 closes it after the response;
  ``Expect: 100-continue`` gets an interim ``100`` before the body;
* a transport error answers the service's ``{"status": "error", "error":
  ...}`` JSON shape with ``Connection: close``, and the connection closes.
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from contextlib import contextmanager
from email.utils import formatdate
from http import HTTPStatus
from typing import Iterator, Mapping, Optional, Tuple

from repro.serve.service import EncodedAnswers, QueryService

#: Refuse request bodies beyond this (a 413); keeps a stray client from
#: buffering the server into the ground.
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Longest request or header line, terminator included (414 / 431).
MAX_LINE_BYTES = 64 * 1024
#: Most header lines one request may carry (431).
MAX_HEADERS = 100

SERVER_HEADER = f"repro-bigindex Python/{sys.version.split()[0]}"
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_BLANK = (b"\r\n", b"\n", b"")


def encode_response(
    status: int, payload: object, extra: Mapping[str, str], close: bool
) -> Tuple[bytes, bytes]:
    """``(head, body)`` bytes of one response.

    A str payload is pre-rendered text (the content-negotiated Prometheus
    ``/metrics``); anything else is the JSON contract, strict: a
    non-finite float reaching the wire is a bug.  The body is always
    ``json.dumps(payload, sort_keys=True, allow_nan=False)``; top-level
    :class:`~repro.serve.service.EncodedAnswers` are spliced in as their
    stored text, which gives those bytes because ``answers`` sorts before
    every other key of the payload.
    """
    if isinstance(payload, str):
        body = payload.encode("utf-8")
        content_type = "text/plain; charset=utf-8"
    else:
        answers = payload.get("answers")
        if isinstance(answers, EncodedAnswers):
            rest = {
                key: value for key, value in payload.items()
                if key != "answers"
            }
            text = '{"answers": ' + answers.json + ", " + json.dumps(
                rest, sort_keys=True, allow_nan=False
            )[1:]
        else:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        body = text.encode("utf-8")
        content_type = "application/json"
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
        f"Server: {SERVER_HEADER}",
        f"Date: {formatdate(usegmt=True)}",
        f"Content-Type: {extra.get('Content-Type', content_type)}",
        f"Content-Length: {len(body)}",
    ]
    lines.extend(
        f"{name}: {value}"
        for name, value in extra.items()
        if name != "Content-Type"
    )
    if close:
        lines.append("Connection: close")
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1"), body


class ServeHandler(socketserver.StreamRequestHandler):
    """One connection: parse each request head, delegate, write back."""

    #: Small request/response pairs on a persistent connection are the
    #: worst case for Nagle + delayed ACK (tens of ms per exchange on
    #: loopback); serving latency is dominated by it unless disabled.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        # The service instance rides on the server object (set by
        # :class:`QueryServer`); handlers are instantiated per connection.
        service = self.server.service  # type: ignore[attr-defined]
        try:
            while self._serve_one(service):
                pass
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client went away mid-exchange; nothing to salvage

    def _serve_one(self, service: QueryService) -> bool:
        """Answer one request; whether the connection stays open."""
        readline = self.rfile.readline
        line = readline(MAX_LINE_BYTES + 1)
        while line in (b"\r\n", b"\n"):
            # RFC 9112 2.2: ignore blank lines ahead of a request line.
            line = readline(MAX_LINE_BYTES + 1)
        if not line:
            return False  # the client closed between requests
        if len(line) > MAX_LINE_BYTES:
            return self._refuse(
                414, f"request line over {MAX_LINE_BYTES} bytes"
            )
        words = line.decode("latin-1").split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            return self._refuse(400, f"malformed request line {line[:100]!r}")
        method, path, version = words
        if version not in ("HTTP/1.0", "HTTP/1.1"):
            return self._refuse(505, f"unsupported version {version!r}")

        headers = {}
        length = None
        for _ in range(MAX_HEADERS + 1):
            line = readline(MAX_LINE_BYTES + 1)
            if line in _BLANK:
                break
            if len(line) > MAX_LINE_BYTES:
                return self._refuse(
                    431, f"header line over {MAX_LINE_BYTES} bytes"
                )
            name, colon, value = line.decode("latin-1").partition(":")
            # RFC 9112 5.1: whitespace between the name and the colon is
            # a 400, never a header whose name ends in blanks.
            if not colon or name[-1:] in (" ", "\t"):
                return self._refuse(
                    400, f"malformed header line {line[:100]!r}"
                )
            value = value.strip()
            if name.lower() == "content-length":
                # RFC 9112 6.3: disagreeing lengths leave the message's
                # end unknown, whatever case each header is sent in.
                if length not in (None, value):
                    return self._refuse(
                        400,
                        f"conflicting Content-Length {length!r} and {value!r}",
                    )
                length = value
            headers[name] = value
        else:
            return self._refuse(431, f"more than {MAX_HEADERS} headers")

        lowered = {name.lower(): value for name, value in headers.items()}
        if "transfer-encoding" in lowered:
            return self._refuse(
                501, "Transfer-Encoding is not supported; send Content-Length"
            )
        if length is None:
            length = "0"
        if not (length.isascii() and length.isdigit()):
            return self._refuse(400, f"bad Content-Length {length!r}")
        length = int(length)
        if length > MAX_BODY_BYTES:
            return self._refuse(
                413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}"
            )
        keep_alive = (
            version == "HTTP/1.1"
            and lowered.get("connection", "").lower() != "close"
        )
        if (
            version == "HTTP/1.1"
            and lowered.get("expect", "").lower() == "100-continue"
        ):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            return False  # the client closed mid-body
        status, payload, extra = service.handle(method, path, body, headers)
        head, data = encode_response(status, payload, extra, not keep_alive)
        # A HEAD answer announces its body's length but carries none.
        self.connection.sendall(head if method == "HEAD" else head + data)
        return keep_alive

    def _refuse(self, status: int, error: str) -> bool:
        """Answer a transport error in the service's JSON shape and close."""
        head, data = encode_response(
            status, {"status": "error", "error": error}, {}, close=True
        )
        self.connection.sendall(head + data)
        return False


class QueryServer(socketserver.ThreadingTCPServer):
    """A ``ThreadingTCPServer`` bound to one :class:`QueryService`."""

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
