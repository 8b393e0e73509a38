#!/usr/bin/env python
"""Mixed-workload smoke for a running ``repro-bigindex serve`` instance.

CI's ``serve-smoke`` job boots the server against a persisted index and
pushes a mixed workload through it with this script: single queries,
batches, deliberately budget-starved queries (exercising the 429
degraded path), and introspection reads, spread over
``CLIENT_THREADS`` client threads, each on its own persistent keep-alive
connection — so the server runs that many handler threads.  The run
**fails on any 5xx** and writes a throughput summary JSON for the
artifact upload.

Observability checks ride along:

* ``serve.requests`` scraped from ``GET /metrics`` before and after the
  workload must differ by exactly the HTTP exchanges made in between:
  the server's per-thread counter shards, summed across its handler
  threads, lose nothing.
* ``cache.hit.frontier`` must be positive after the workload: the
  served index is loaded from disk, so its frozen graphs memoize keyword
  frontiers, and queries sharing a keyword hit the memo (budgeted ones
  too, unless a starved cap cannot afford the hits).
* ``/healthz``'s aggregate ``cache.hits`` / ``misses`` must equal the
  per-kind ``cache.hit.<kind>`` / ``cache.miss.<kind>`` sums scraped
  from ``GET /metrics``: the aggregate is derived from the kinds, and
  no cache lookup runs between the two reads once the workload is over.
* ``--prom-out FILE`` scrapes ``GET /metrics`` with ``Accept:
  text/plain`` after the workload, validates the body with the strict
  Prometheus parser (:func:`repro.obs.promtext.parse_prometheus`),
  requires the bucketed ``serve_latency_seconds`` histogram family, and
  writes the exposition for the artifact upload.
* A raw-socket leg checks the wire itself: two ``/query`` requests
  pipelined in one write must come back in order (by ``X-Request-Id``)
  with the statuses the client saw for the same queries and the
  connection open; an HTTP/1.0 ``GET /healthz`` must answer 200 and
  close; one ``/query`` sent twice on one connection (the second a
  result-cache hit unless the server sets default budgets) must answer
  equal ``canonical_payload`` bodies and keep the connection open; a
  malformed request line, a header name with a space before its colon
  and two disagreeing ``Content-Length`` headers must each answer a
  JSON 400 with ``Connection: close`` and close.
* ``--access-log FILE`` (the same file the server was booted with)
  schema-validates every JSONL record and asserts that **every 429/5xx
  the workload observed is attributable to a logged request ID** — the
  client records each response's ``X-Request-Id`` and the log must
  contain it.

Usage:
    PYTHONPATH=src python scripts/serve_smoke.py \
        --url http://127.0.0.1:8180 --requests 200 --out serve-qps.json \
        --access-log access-log.jsonl --prom-out metrics.prom
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import random
import socket
import sys
import threading
import time

from repro.obs.promtext import parse_prometheus
from repro.obs.schema import validate_access_record
from repro.serve.client import ServeClient
from repro.serve.service import canonical_payload


#: Client threads, each on its own keep-alive connection (and so on its
#: own server handler thread).
CLIENT_THREADS = 4


def draw_op(rng: random.Random, queries: list) -> tuple:
    """One workload request: ``(kind, keywords-or-batch)``."""
    keywords = list(queries[rng.randrange(len(queries))])
    roll = rng.random()
    if roll < 0.55:
        return "query", keywords
    if roll < 0.75:
        return "batch", [
            list(queries[rng.randrange(len(queries))]) for _ in range(3)
        ]
    if roll < 0.9:
        # Budget-starved: exercises the degraded/429 contract.
        return "starved", keywords
    if roll < 0.95:
        return "healthz", None
    return "metrics", None


class Tally:
    """What one client thread saw."""

    def __init__(self) -> None:
        self.statuses = collections.Counter()
        self.answers = 0
        self.degraded = 0
        self.exchanges = 0
        # request_id -> status of every degraded (429) or faulted (5xx)
        # response, for the access-log attribution check.
        self.unattributed = {}
        self.error = None


def drive(url: str, ops: list, tally: Tally) -> None:
    """Send ``ops`` over one keep-alive connection, recording into
    ``tally`` (an exception is recorded, not raised)."""
    try:
        with ServeClient.for_url(url) as client:
            for kind, what in ops:
                if kind == "query":
                    response = client.query(what)
                elif kind == "batch":
                    response = client.batch(what)
                elif kind == "starved":
                    response = client.query(what, expansion_budget=1)
                elif kind == "healthz":
                    response = client.healthz()
                else:
                    response = client.metrics()
                tally.statuses[response.status] += 1
                tally.exchanges += response.attempts
                if response.degraded:
                    tally.degraded += 1
                if response.status == 429 or response.status >= 500:
                    tally.unattributed[response.request_id] = response.status
                payload = response.payload
                if isinstance(payload, dict):
                    tally.answers += len(payload.get("answers") or ())
                    for entry in payload.get("results") or ():
                        tally.answers += len(entry.get("answers") or ())
    except Exception as exc:  # reported by main()
        tally.error = exc


def scraped(client: ServeClient, counter: str) -> int:
    """``counter`` as ``GET /metrics`` reports it (the scrape counts
    itself in ``serve.requests`` only after answering)."""
    payload = client.metrics().payload
    if not isinstance(payload, dict):
        return -1
    return payload.get("counters", {}).get(counter, 0)


def check_request_count(client: ServeClient, before: int, sent: int) -> int:
    """``serve.requests`` must have grown by every exchange made since
    the ``before`` scrape (that scrape included)."""
    counted = scraped(client, "serve.requests") - before
    if counted != sent:
        print(
            f"FAIL: serve.requests grew by {counted}, but the clients made "
            f"{sent} exchange(s), {CLIENT_THREADS} connection(s) in parallel",
            file=sys.stderr,
        )
        return 1
    print(
        f"metrics: serve.requests grew by {counted}, matching the {sent} "
        f"exchange(s) ({CLIENT_THREADS} client threads)"
    )
    return 0


def check_frontier_memo(client: ServeClient) -> int:
    """A served index is loaded from disk, so its graphs are frozen and
    queries sharing a keyword must hit the frontier memo."""
    hits = scraped(client, "cache.hit.frontier")
    if hits <= 0:
        print(
            f"FAIL: cache.hit.frontier is {hits} after the workload; the "
            "loaded index's frontier memo never served a keyword frontier",
            file=sys.stderr,
        )
        return 1
    print(f"metrics: cache.hit.frontier = {hits}")
    return 0


def check_cache_health(client: ServeClient) -> int:
    """``/healthz``'s ``cache.hits`` / ``misses`` == the per-kind sums."""
    health = client.healthz().payload
    metrics = client.metrics().payload
    if not isinstance(health, dict) or not isinstance(metrics, dict):
        print("FAIL: /healthz or /metrics answered no JSON object",
              file=sys.stderr)
        return 1
    cache, counters = health.get("cache", {}), metrics.get("counters", {})
    for field, prefix in (("hits", "cache.hit."), ("misses", "cache.miss.")):
        summed = sum(
            value for name, value in counters.items()
            if name.startswith(prefix)
        )
        if cache.get(field) != summed:
            print(
                f"FAIL: /healthz cache.{field} is {cache.get(field)}, but "
                f"the {prefix}<kind> counters on /metrics sum to {summed}",
                file=sys.stderr,
            )
            return 1
    print(
        f"healthz: cache.hits = {cache['hits']}, cache.misses = "
        f"{cache['misses']}, the per-kind sums on /metrics"
    )
    return 0


def check_prometheus(client: ServeClient, prom_out: str) -> int:
    """Scrape the text exposition, strict-parse it, write the artifact."""
    response = client.metrics(prometheus=True)
    if response.status != 200:
        print(
            f"FAIL: Prometheus /metrics answered {response.status}",
            file=sys.stderr,
        )
        return 1
    content_type = response.headers.get("Content-Type", "")
    if not content_type.startswith("text/plain"):
        print(
            f"FAIL: Prometheus /metrics Content-Type {content_type!r}",
            file=sys.stderr,
        )
        return 1
    try:
        families = parse_prometheus(response.text)
    except ValueError as exc:
        print(f"FAIL: invalid Prometheus exposition: {exc}", file=sys.stderr)
        return 1
    histograms = {
        name for name, family in families.items()
        if family.type == "histogram"
    }
    if "serve_latency_seconds" not in histograms:
        print(
            f"FAIL: no serve_latency_seconds histogram family in "
            f"/metrics (histograms: {sorted(histograms)})",
            file=sys.stderr,
        )
        return 1
    with open(prom_out, "w", encoding="utf-8") as handle:
        handle.write(response.text)
    print(
        f"prometheus: {len(families)} familie(s), "
        f"{len(histograms)} histogram(s), written to {prom_out}"
    )
    return 0


def read_response(sock: socket.socket, buffered: bytes = b"") -> tuple:
    """One HTTP response: ``(status, headers, body, rest)``, header names
    lower-cased; ``status`` is None if the socket closed first."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return None, {}, b"", data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return int(lines[0].split()[1]), headers, rest[:length], rest[length:]


def closed_after(sock: socket.socket, rest: bytes) -> bool:
    """Whether the server closed ``sock`` with nothing left to read."""
    return rest == b"" and sock.recv(1) == b""


def check_raw_wire(url: str, queries: list, statuses: list) -> int:
    """Pipelining, HTTP/1.0 close, a repeated query and malformed heads,
    over raw sockets; ``statuses`` are what the client saw for
    ``queries``."""
    host, _, port = url.split("//", 1)[-1].rstrip("/").partition(":")
    address = (host, int(port or 80))
    problems = []
    with socket.create_connection(address, timeout=30) as sock:
        ids = [f"smoke-pipe-{i}" for i in range(len(queries))]
        data = b""
        for request_id, keywords in zip(ids, queries):
            body = json.dumps({"keywords": list(keywords)}).encode()
            data += (
                f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
                f"X-Request-Id: {request_id}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
        sock.sendall(data)  # every request in one write
        rest = b""
        for request_id, expected in zip(ids, statuses):
            status, headers, _, rest = read_response(sock, rest)
            if (status, headers.get("x-request-id")) != (expected, request_id):
                problems.append(
                    f"pipelined answer {status} for "
                    f"{headers.get('x-request-id')!r}, expected {expected} "
                    f"for {request_id!r}"
                )
        if headers.get("connection") == "close":
            problems.append("pipelined HTTP/1.1 answer closed the connection")
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(f"GET /healthz HTTP/1.0\r\nHost: {host}\r\n\r\n".encode())
        status, headers, body, rest = read_response(sock)
        if status != 200 or json.loads(body).get("status") != "ok":
            problems.append(f"HTTP/1.0 /healthz answered {status}")
        if not closed_after(sock, rest):
            problems.append("HTTP/1.0 /healthz left the connection open")
    body = json.dumps({"keywords": list(queries[0])}).encode()
    with socket.create_connection(address, timeout=30) as sock:
        # The second is a result-cache hit when the server sets no
        # default budget (budgeted queries bypass the cache).
        request = (
            f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode() + body
        answers = []
        for _ in range(2):
            sock.sendall(request)
            status, headers, data, _ = read_response(sock)
            answers.append(
                (status, canonical_payload(json.loads(data)) if data else None)
            )
        if answers[0] != answers[1]:
            problems.append(
                f"a repeated /query answered {answers[1][0]} with a body "
                f"unlike the first's ({answers[0][0]})"
            )
        if headers.get("connection") == "close":
            problems.append("a repeated /query closed the connection")
    malformed = {
        "request line": b"HELLO\r\n",
        "space before a header colon": (
            f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length : {len(body)}\r\n\r\n"
        ).encode() + body,
        "conflicting Content-Length": (
            f"POST /query HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: 3\r\ncontent-length: {len(body)}\r\n\r\n"
        ).encode() + body,
    }
    for what, data in malformed.items():
        with socket.create_connection(address, timeout=30) as sock:
            sock.sendall(data)
            status, headers, reply, rest = read_response(sock)
            try:
                shape = json.loads(reply).get("status") if reply else None
            except json.JSONDecodeError:
                shape = None
            answer = (status, shape, headers.get("connection"))
            if answer != (400, "error", "close"):
                problems.append(
                    f"malformed {what} answered {status}, body status "
                    f"{shape!r}, Connection {headers.get('connection')!r}"
                )
            elif not closed_after(sock, rest):
                problems.append(f"malformed {what} left the connection open")
    for problem in problems:
        print(f"FAIL: wire: {problem}", file=sys.stderr)
    if not problems:
        print(
            f"wire: {len(queries)} pipelined answers in order, HTTP/1.0 "
            "closed, a repeated /query answered alike on an open "
            f"connection, {len(malformed)} malformed heads a JSON 400"
        )
    return 1 if problems else 0


def check_access_log(path: str, unattributed: dict) -> int:
    """Schema-validate the access log; attribute every 429/5xx to it.

    ``unattributed`` maps request_id -> status for every degraded or
    faulted response the workload saw; each must appear in the log.
    """
    pending = dict(unattributed)
    records = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    print(
                        f"FAIL: {path}:{lineno}: not JSON: {exc}",
                        file=sys.stderr,
                    )
                    return 1
                problems = validate_access_record(record)
                if problems:
                    print(
                        f"FAIL: {path}:{lineno}: {'; '.join(problems)}",
                        file=sys.stderr,
                    )
                    return 1
                records += 1
                pending.pop(record.get("request_id"), None)
    except FileNotFoundError:
        print(f"FAIL: access log {path} not found", file=sys.stderr)
        return 1
    if not records:
        print(f"FAIL: access log {path} is empty", file=sys.stderr)
        return 1
    if pending:
        listed = ", ".join(
            f"{rid} (HTTP {status})"
            for rid, status in sorted(pending.items())
        )
        print(
            f"FAIL: {len(pending)} degraded/faulted response(s) have no "
            f"access-log line: {listed}",
            file=sys.stderr,
        )
        return 1
    print(
        f"access log: {records} schema-valid record(s); all "
        f"{len(unattributed)} degraded/faulted response(s) attributed"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--url", required=True)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument(
        "--keywords",
        nargs="+",
        required=True,
        help="label pool; queries are 2-keyword combinations of these",
    )
    parser.add_argument("--out", default="serve-qps.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--access-log",
        default=None,
        help="server-side access log (JSONL) to schema-validate and "
             "attribute every 429/5xx response against",
    )
    parser.add_argument(
        "--prom-out",
        default=None,
        help="scrape GET /metrics in Prometheus text format after the "
             "workload, strict-parse it, and write it here",
    )
    args = parser.parse_args()

    queries = list(itertools.combinations(args.keywords, 2))
    if not queries:
        print("need at least two keywords", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    ops = [draw_op(rng, queries) for _ in range(args.requests)]
    tallies = [Tally() for _ in range(CLIENT_THREADS)]
    started = time.perf_counter()
    with ServeClient.for_url(args.url) as client:
        before = scraped(client, "serve.requests")
        health = client.healthz()
        if not health.ok:
            print(f"healthz answered {health.status}", file=sys.stderr)
            return 1
        threads = [
            threading.Thread(
                target=drive,
                args=(args.url, ops[i::CLIENT_THREADS], tallies[i]),
                name=f"smoke-client-{i}",
            )
            for i in range(CLIENT_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        for tally in tallies:
            if tally.error is not None:
                print(f"FAIL: client thread raised {tally.error!r}",
                      file=sys.stderr)
                return 1

        statuses = collections.Counter({health.status: 1})
        unattributed = {}
        for tally in tallies:
            statuses.update(tally.statuses)
            unattributed.update(tally.unattributed)
        sent = health.attempts + sum(t.exchanges for t in tallies)
        count_rc = check_request_count(client, before, 1 + sent)
        memo_rc = check_frontier_memo(client)
        health_rc = check_cache_health(client)
        prom_rc = (
            check_prometheus(client, args.prom_out)
            if args.prom_out else 0
        )
        wire_queries = (queries * 2)[:2]
        wire_rc = check_raw_wire(
            args.url,
            wire_queries,
            [client.query(list(q)).status for q in wire_queries],
        )

    total = sum(statuses.values())
    faults = sum(count for code, count in statuses.items() if code >= 500)
    summary = {
        "url": args.url,
        "requests": total,
        "seconds": round(elapsed, 4),
        "qps": round(total / elapsed, 1) if elapsed else None,
        "statuses": {str(code): count for code, count in sorted(statuses.items())},
        "answers": sum(t.answers for t in tallies),
        "degraded": sum(t.degraded for t in tallies),
        "retries": sent - total,
        "client_threads": CLIENT_THREADS,
        "faults": faults,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(json.dumps(summary, indent=2, sort_keys=True))

    access_rc = (
        check_access_log(args.access_log, unattributed)
        if args.access_log else 0
    )

    if faults:
        breakdown = ", ".join(
            f"{code}: {count}" for code, count in sorted(statuses.items())
        )
        print(
            f"FAIL: {faults} 5xx response(s); per-status breakdown: "
            f"{breakdown}",
            file=sys.stderr,
        )
        return 1
    if statuses.get(200, 0) == 0:
        print("FAIL: no successful responses", file=sys.stderr)
        return 1
    return count_rc or memo_rc or health_rc or prom_rc or wire_rc or access_rc


if __name__ == "__main__":
    sys.exit(main())
