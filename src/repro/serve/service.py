"""Transport-independent request handling for ``repro-bigindex serve``.

The service owns the JSON wire contract (documented in
``docs/SERVING.md``) and is deliberately separable from HTTP: handlers
take ``(body bytes, headers mapping)`` and return
``(status, payload dict, extra headers)``, so the tests, the verify
drill and the bench harness can exercise the exact serving path either
in-process or over a real socket.

Status mapping — the HTTP face of the existing CLI contract:

========  ============================================================
200       complete result (CLI exit 0)
200       ``/batch`` envelope (per-query statuses ride inside)
400       malformed body, bad budget headers, query errors (CLI exit 2)
403       admin endpoint while admin is disabled
404/405   unknown path / wrong method
429       executed but *degraded* — partial-result JSON with the proven
          prefix and ``lower_bound`` (CLI exit 3)
503       shed by admission control before execution, ``Retry-After``
500       unexpected server fault (the CI smoke asserts none happen)
========  ============================================================

Budget headers (both optional, server defaults apply when absent):

* ``X-Budget-Timeout`` — wall-clock seconds (float).  ``0`` is legal
  and degrades immediately; negative/NaN values are a 400; ``inf``
  means "no deadline".
* ``X-Budget-Expansions`` — node-expansion cap (int).  ``0`` is legal;
  negative or non-integer values are a 400; values above the server's
  per-request ceiling are clamped to it.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

from repro.core.evaluator import DegradedResult, EvalResult
from repro.core.index import BiGIndex
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import render_prometheus
from repro.obs.reqlog import (
    RequestLog,
    SloWindow,
    mint_request_id,
    outcome_for_status,
    valid_request_id,
)
from repro.obs.runtime import OBS
from repro.search.base import Answer, KeywordQuery
from repro.serve.admission import AdmissionController, ShedError
from repro.serve.lifecycle import EngineRuntime
from repro.utils.budget import Budget
from repro.utils.errors import BigIndexError, QueryError
from repro.utils.timers import monotonic_now

#: ``(status code, payload, extra response headers)``.  The payload is a
#: JSON-serializable dict for every route except a content-negotiated
#: ``GET /metrics``, which returns pre-rendered Prometheus text as a
#: ``str`` (the transport sends it verbatim with the Content-Type the
#: extra headers carry).
Response = Tuple[int, Union[Dict[str, object], str], Dict[str, str]]


#: ``Retry-After`` seconds suggested on a 503.
RETRY_AFTER_SECONDS = 1.0

#: Cap on ``/batch`` workload size (a 400 beyond it).
MAX_BATCH_QUERIES = 256


class BadRequest(Exception):
    """A 400: malformed body or budget headers."""


@dataclass
class ServerConfig:
    """Operator knobs for one serving process."""

    #: Default wall-clock deadline per request (seconds); ``None`` = no
    #: deadline unless the request asks for one.
    default_timeout: Optional[float] = None
    #: Default node-expansion cap per request; ``None`` = unbounded
    #: unless the request asks for a cap.
    default_max_expansions: Optional[int] = None
    #: Hard per-request expansion ceiling; request caps above it are
    #: clamped (never rejected) so one client cannot out-reserve the
    #: whole server.
    max_request_expansions: Optional[int] = None
    #: Admission: concurrent request cap (``None`` = unlimited).
    max_inflight_requests: Optional[int] = None
    #: Admission: in-flight expansion reservation cap (``None`` = off).
    max_inflight_expansions: Optional[int] = None
    #: Default top-k when a request does not send ``k``.
    default_k: Optional[int] = 10
    #: Enable ``/admin/mutate`` and ``/admin/reload``.
    enable_admin: bool = False
    #: Requests at/above this wall-clock latency (milliseconds) are
    #: counted in ``log.slow_queries``, flagged ``slow`` in the access
    #: log, and mirrored to the slow-query log.  ``None`` disables.
    slow_query_ms: Optional[float] = None
    #: Flight-recorder ring capacity (last-N request records, dumpable
    #: via ``GET /admin/flight`` and ``SIGUSR2``).  ``0`` disables.
    flight_records: int = 256
    #: Rolling SLO window width for per-endpoint latency quantiles and
    #: error/shed rates (``/healthz`` ``slo`` section, ``slo.*``
    #: gauges).  ``0`` disables.
    slo_window_seconds: float = 60.0

    def effective_cap(self, requested: Optional[int]) -> Optional[int]:
        """The expansion cap actually applied for a request."""
        cap = requested if requested is not None else self.default_max_expansions
        if cap is not None and self.max_request_expansions is not None:
            cap = min(cap, self.max_request_expansions)
        return cap

    def reservation_for(self, cap: Optional[int]) -> int:
        """Expansions to reserve against the in-flight ledger.

        Bounded requests reserve their cap.  Unbounded requests reserve
        the per-request ceiling (or, failing that, the whole in-flight
        cap): the ledger is pessimistic, so work without a declared
        bound is accounted at the worst case the server allows.
        """
        if cap is not None:
            return cap
        if self.max_request_expansions is not None:
            return self.max_request_expansions
        if self.max_inflight_expansions is not None:
            return self.max_inflight_expansions
        return 0


# ----------------------------------------------------------------------
# JSON encoding of evaluation outcomes
# ----------------------------------------------------------------------
def encode_answer(answer: Answer) -> Dict[str, object]:
    return {
        "score": answer.score,
        "root": answer.root,
        "keyword_nodes": {kw: v for kw, v in answer.keyword_nodes},
        "vertices": list(answer.vertices),
        "edges": [list(edge) for edge in answer.edges],
    }


class EncodedAnswers(list):
    """The answer dicts of one :class:`EvalResult`, carrying their own
    ``json.dumps(..., sort_keys=True, allow_nan=False)`` text as
    :attr:`json`, so the transport splices it into the response body
    instead of encoding the answers again.  Every response a result-cache
    entry serves shares one: read-only."""

    __slots__ = ("json",)


def encode_result(result: object) -> Dict[str, object]:
    """The response body for one evaluation outcome.

    Accepts an :class:`EvalResult`, a :class:`DegradedResult`, or an
    exception (``/batch`` uses ``return_exceptions``); the ``status``
    field discriminates.  The top-level dict is always fresh (``/query``
    adds ``epoch`` and ``serial``, ``/batch`` adds ``keywords``), but a
    complete result's ``answers`` are :class:`EncodedAnswers` memoized in
    the result's :attr:`~repro.core.evaluator.EvalResult.memo`: encoded on
    a result-cache entry's first hit, shared by every later one.  Two
    threads racing to fill the memo store equal values.
    """
    if isinstance(result, Exception):
        return {
            "status": "error",
            "error": str(result),
            "error_type": type(result).__name__,
        }
    if isinstance(result, DegradedResult):
        payload: Dict[str, object] = {
            "status": "degraded",
            "reason": result.reason,
            # An infinite bound (every frontier exhausted) means "no
            # unseen answer exists"; JSON has no Infinity, so it is null.
            "lower_bound": (
                None if math.isinf(result.lower_bound) else result.lower_bound
            ),
            "layer": result.layer,
            "answers": [encode_answer(a) for a in result.answers],
            "unranked": [encode_answer(a) for a in result.unranked],
            "attempts": [
                {
                    "layer": a.layer,
                    "reason": a.reason,
                    "expansions": a.expansions,
                    "proven": a.proven,
                    "unproven": a.unproven,
                }
                for a in result.attempts
            ],
        }
        if result.stats is not None:
            payload["stats"] = {
                "expansions_consumed": result.stats.expansions_consumed,
                "expansions_remaining": result.stats.expansions_remaining,
                "time_remaining_seconds": result.stats.time_remaining_seconds,
                "layers_attempted": list(result.stats.layers_attempted),
            }
        return payload
    assert isinstance(result, EvalResult)
    memo = result.memo
    if not memo:
        answers = EncodedAnswers(encode_answer(a) for a in result.answers)
        answers.json = json.dumps(answers, sort_keys=True, allow_nan=False)
        memo[:] = (answers,)
    return {
        "status": "ok",
        "layer": result.layer,
        "answers": memo[0],
        "num_generalized": result.num_generalized,
        "num_candidates": result.num_candidates,
        "num_verified": result.num_verified,
    }


#: Response fields that vary run-to-run (timings, budget remainders).
#: The verify drill and the serve fuzzer strip them before comparing a
#: concurrent response byte-for-byte against single-threaded evaluation.
VOLATILE_FIELDS = ("seconds", "stats", "attempts", "serial", "qps")


def canonical_payload(payload: Mapping[str, object]) -> Dict[str, object]:
    """A deterministic view of a response body for identity checks.

    Strips :data:`VOLATILE_FIELDS` recursively so nested structures (the
    per-query entries of a ``/batch`` envelope) canonicalize too.
    """

    def strip(value: object) -> object:
        if isinstance(value, Mapping):
            return {
                key: strip(inner)
                for key, inner in value.items()
                if key not in VOLATILE_FIELDS
            }
        if isinstance(value, (list, tuple)):
            return [strip(item) for item in value]
        return value

    return strip(payload)  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Header / body parsing
# ----------------------------------------------------------------------
def _parse_timeout(raw: str) -> Optional[float]:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"X-Budget-Timeout: not a number: {raw!r}")
    if math.isnan(value):
        raise BadRequest("X-Budget-Timeout: NaN is not a deadline")
    if value < 0:
        raise BadRequest(f"X-Budget-Timeout: must be >= 0, got {raw!r}")
    if math.isinf(value):
        return None  # no deadline at all
    return value

def _parse_expansions(raw: str) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise BadRequest(f"X-Budget-Expansions: not an integer: {raw!r}")
    if value < 0:
        raise BadRequest(f"X-Budget-Expansions: must be >= 0, got {raw!r}")
    return value


def parse_budget_headers(
    headers: Mapping[str, str], config: ServerConfig
) -> Tuple[Optional[float], Optional[int]]:
    """``(deadline seconds, expansion cap)`` for one request.

    Header values override the config defaults; the expansion cap is
    clamped to the per-request ceiling.  Malformed values raise
    :class:`BadRequest` (the edge cases — zero, negative, overflow, NaN
    — are pinned by the contract tests).
    """
    lowered = {str(k).lower(): v for k, v in headers.items()}
    timeout = config.default_timeout
    if "x-budget-timeout" in lowered:
        timeout = _parse_timeout(lowered["x-budget-timeout"])
    requested: Optional[int] = None
    if "x-budget-expansions" in lowered:
        requested = _parse_expansions(lowered["x-budget-expansions"])
    return timeout, config.effective_cap(requested)


def _parse_json(body: bytes) -> Dict[str, object]:
    if not body:
        raise BadRequest("empty request body (expected a JSON object)")
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequest(f"invalid JSON body: {exc}")
    if not isinstance(data, dict):
        raise BadRequest("request body must be a JSON object")
    return data


def _parse_keywords(value: object, what: str = "keywords") -> KeywordQuery:
    if (
        not isinstance(value, list)
        or not value
        or not all(isinstance(kw, str) for kw in value)
    ):
        raise BadRequest(f"{what} must be a non-empty list of strings")
    try:
        return KeywordQuery(value)
    except QueryError as exc:
        raise BadRequest(f"{what}: {exc}")


def _parse_optional_int(data: Mapping[str, object], key: str) -> Optional[int]:
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f"{key} must be an integer")
    return value


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class QueryService:
    """The app layer: routes decoded requests through the runtime.

    Parameters
    ----------
    runtime:
        Snapshot/locking engine over the live index.
    config:
        Serving knobs; defaults are wide open (no caps, admin off).
    loader:
        Zero-argument callable returning a fresh :class:`BiGIndex` for
        ``/admin/reload``; without one the endpoint answers 400.
    metrics:
        Registry backing ``/metrics`` and the ``serve.*`` counters; the
        service always records into it directly (independent of the
        process-wide ``OBS`` switch, which additionally routes evaluator
        and cache telemetry here when the CLI enables it).
    access_log / slow_log:
        Optional :class:`~repro.obs.reqlog.RequestLog` sinks.  Every
        request writes one access record; requests at/above
        ``config.slow_query_ms`` are additionally mirrored to
        ``slow_log``.  The service does not own either log's lifetime
        (the CLI closes them on shutdown).
    """

    def __init__(
        self,
        runtime: EngineRuntime,
        config: Optional[ServerConfig] = None,
        loader: Optional[Callable[[], BiGIndex]] = None,
        metrics: Optional[MetricsRegistry] = None,
        access_log: Optional[RequestLog] = None,
        slow_log: Optional[RequestLog] = None,
    ) -> None:
        self.runtime = runtime
        self.config = config or ServerConfig()
        self.loader = loader
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.access_log = access_log
        self.slow_log = slow_log
        self.flight = FlightRecorder(self.config.flight_records)
        self.slo = (
            SloWindow(self.config.slo_window_seconds)
            if self.config.slo_window_seconds > 0
            else None
        )
        # Runtime counters (snapshot.retired, snapshot.published) land in
        # this registry even when the process-wide OBS switch is off, so
        # /healthz and /metrics always see COW accounting.
        if runtime.metrics is None:
            runtime.metrics = self.metrics
        self.admission = AdmissionController(
            max_inflight_requests=self.config.max_inflight_requests,
            max_inflight_expansions=self.config.max_inflight_expansions,
            metrics=self.metrics,
        )
        self._started = monotonic_now()
        self._draining = threading.Event()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def handle(
        self, method: str, path: str, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        """Route one request; never raises (faults become a 500).

        Correlation: a well-formed client ``X-Request-Id`` is adopted,
        anything else gets a minted one; the ID rides on the response
        headers, the access-log line, the flight-recorder slot, and —
        when tracing is on — the request span.
        """
        started = monotonic_now()
        request_id = self._request_id(headers)
        route = (method.upper(), path.rstrip("/") or "/")
        if OBS.enabled:
            with OBS.tracer.span(
                "serve.request",
                request_id=request_id,
                method=route[0],
                path=route[1],
            ):
                response = self._dispatch(route, method, path, body, headers)
        else:
            response = self._dispatch(route, method, path, body, headers)
        status, payload, extra = response
        extra = dict(extra)
        extra.setdefault("X-Request-Id", request_id)
        latency = monotonic_now() - started
        self.metrics.inc("serve.requests")
        self.metrics.inc(f"serve.responses.{status}")
        self.metrics.observe("serve.latency_seconds", latency)
        self._observe_request(request_id, route, status, payload, latency)
        return status, payload, extra

    def _dispatch(
        self,
        route: Tuple[str, str],
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str],
    ) -> Response:
        try:
            if self._draining.is_set() and route[1] not in (
                "/healthz", "/metrics"
            ):
                # Graceful shutdown: stop admitting work, keep answering
                # introspection so orchestrators see the drain progress.
                self.metrics.inc("serve.drained_rejects")
                raise ShedError("draining")
            entry = self._ROUTES.get(route)
            if entry is None:
                status, error = (
                    (405, f"method {method} not allowed")
                    if route[1] in self._PATHS
                    else (404, f"unknown path {path!r}")
                )
            elif entry[1] and not self.config.enable_admin:
                status, error = 403, "admin endpoints are disabled"
            else:
                return entry[0](self, body, headers)
            response = (status, {"status": "error", "error": error}, {})
        except BadRequest as exc:
            response = (400, {"status": "error", "error": str(exc)}, {})
        except ShedError as exc:
            response = (
                503,
                {
                    "status": "shed",
                    "reason": exc.reason,
                    "retry_after": RETRY_AFTER_SECONDS,
                },
                {"Retry-After": f"{RETRY_AFTER_SECONDS:g}"},
            )
        except Exception as exc:  # noqa: BLE001 - serving boundary
            self.metrics.inc("serve.faults")
            response = (
                500,
                {
                    "status": "error",
                    "error": f"internal error: {exc}",
                    "error_type": type(exc).__name__,
                },
                {},
            )
        return response

    # ------------------------------------------------------------------
    # Request observability (correlation, flight, SLO, access log)
    # ------------------------------------------------------------------
    def _request_id(self, headers: Mapping[str, str]) -> str:
        for key, value in headers.items():
            if str(key).lower() == "x-request-id":
                supplied = valid_request_id(value)
                if supplied is not None:
                    self.metrics.inc("req.received")
                    return supplied
                break
        self.metrics.inc("req.minted")
        return mint_request_id()

    @staticmethod
    def _payload_digest(payload: object) -> Optional[str]:
        """A short fingerprint of the *canonical* response body.

        Two responses with the same digest carried byte-identical
        deterministic content (volatile timing fields stripped) — the
        hook the chaos drill's flight timeline diffs on.
        """
        if not isinstance(payload, Mapping):
            return None
        data = json.dumps(
            canonical_payload(payload), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha1(data.encode("utf-8")).hexdigest()[:12]

    def _observe_request(
        self,
        request_id: str,
        route: Tuple[str, str],
        status: int,
        payload: object,
        latency: float,
    ) -> None:
        endpoint = route[1]
        outcome = outcome_for_status(status)
        if self.slo is not None:
            self.slo.observe(endpoint, latency, status)
        epoch = serial = None
        if isinstance(payload, Mapping):
            epoch = payload.get("epoch")
            serial = payload.get("serial")
        latency_ms = round(latency * 1000.0, 3)
        slow = (
            self.config.slow_query_ms is not None
            and latency_ms >= self.config.slow_query_ms
        )
        if slow:
            self.metrics.inc("log.slow_queries")
        if self.flight.enabled:
            entry: Dict[str, object] = {
                "request_id": request_id,
                "method": route[0],
                "path": endpoint,
                "status": status,
                "outcome": outcome,
                "latency_ms": latency_ms,
                "epoch": epoch,
                "serial": serial,
            }
            if endpoint.startswith("/admin/"):
                # Canonical-body digests are what the chaos drill's
                # flight-vs-WAL diff keys on, but hashing every query
                # response would tax the hot path — admin traffic only.
                entry["digest"] = self._payload_digest(payload)
            if endpoint == "/admin/mutate" and isinstance(payload, Mapping):
                for key in ("op", "u", "v", "applied"):
                    if key in payload:
                        entry[key] = payload[key]
            self.flight.record(entry)
        if self.access_log is not None:
            record: Dict[str, object] = {
                "ts": time.time(),
                "request_id": request_id,
                "method": route[0],
                "path": endpoint,
                "status": status,
                "outcome": outcome,
                "latency_ms": latency_ms,
                "epoch": epoch,
                "serial": serial,
                "slow": slow,
            }
            self.access_log.write(record)
            if slow and self.slow_log is not None:
                self.slow_log.write(record)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def handle_query(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        self.metrics.inc("serve.requests.query")
        data = _parse_json(body)
        query = _parse_keywords(data.get("keywords"))
        layer = _parse_optional_int(data, "layer")
        k = (
            _parse_optional_int(data, "k")
            if "k" in data
            else self.config.default_k
        )
        timeout, cap = parse_budget_headers(headers, self.config)
        reserve = self.config.reservation_for(cap)
        with self.admission.admit(reserve):
            with self.runtime.pin() as snapshot:
                started = monotonic_now()
                budget = (
                    Budget(deadline=timeout, max_expansions=cap)
                    if timeout is not None or cap is not None
                    else None
                )
                try:
                    result = snapshot.evaluator.evaluate_resilient(
                        query, budget=budget, layer=layer, k=k
                    )
                except (QueryError, BigIndexError) as exc:
                    raise BadRequest(str(exc))
                payload = encode_result(result)
                payload["epoch"] = list(snapshot.epoch)
                payload["serial"] = snapshot.serial
                payload["seconds"] = monotonic_now() - started
        if payload["status"] == "degraded":
            self.metrics.inc("serve.degraded")
            return 429, payload, {}
        return 200, payload, {}

    def handle_batch(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        self.metrics.inc("serve.requests.batch")
        data = _parse_json(body)
        raw_queries = data.get("queries")
        if not isinstance(raw_queries, list) or not raw_queries:
            raise BadRequest("queries must be a non-empty list")
        if len(raw_queries) > MAX_BATCH_QUERIES:
            raise BadRequest(
                f"batch of {len(raw_queries)} exceeds the server cap of "
                f"{MAX_BATCH_QUERIES}"
            )
        queries = [
            _parse_keywords(entry, what=f"queries[{i}]")
            for i, entry in enumerate(raw_queries)
        ]
        layer = _parse_optional_int(data, "layer")
        k = (
            _parse_optional_int(data, "k")
            if "k" in data
            else self.config.default_k
        )
        timeout, cap = parse_budget_headers(headers, self.config)
        # Budgets are stateful ledgers: one fresh ledger per query, with
        # the whole workload's worst case reserved up front.
        budget_factory = None
        if timeout is not None or cap is not None:
            def budget_factory() -> Budget:
                return Budget(deadline=timeout, max_expansions=cap)
        reserve = self.config.reservation_for(cap) * len(queries)
        with self.admission.admit(reserve):
            with self.runtime.pin() as snapshot:
                started = monotonic_now()
                outcomes = snapshot.evaluator.evaluate_many(
                    queries,
                    layer=layer,
                    k=k,
                    budget_factory=budget_factory,
                    return_exceptions=True,
                )
                elapsed = monotonic_now() - started
                results = []
                for query, outcome in zip(queries, outcomes):
                    encoded = encode_result(outcome)
                    encoded["keywords"] = list(query.keywords)
                    results.append(encoded)
                counts = {"ok": 0, "degraded": 0, "error": 0}
                for encoded in results:
                    counts[str(encoded["status"])] += 1
                self.metrics.inc("serve.degraded", counts["degraded"])
                payload: Dict[str, object] = {
                    "status": "ok",
                    "count": len(results),
                    "ok": counts["ok"],
                    "degraded": counts["degraded"],
                    "errors": counts["error"],
                    "results": results,
                    "epoch": list(snapshot.epoch),
                    "serial": snapshot.serial,
                    "seconds": elapsed,
                }
                if elapsed > 0:
                    payload["qps"] = len(results) / elapsed
        return 200, payload, {}

    #: Counter names (exact or prefix) one ``/healthz`` probe surfaces so
    #: COW, persistence, and WAL health need no ``/metrics`` spelunking.
    _HEALTH_COUNTERS = ("snapshot.retired", "snapshot.published",
                        "persist.mmap.detaches")
    _HEALTH_COUNTER_PREFIXES = ("wal.",)

    def _cache_health(self, counters: Mapping[str, int]) -> Dict[str, object]:
        """Aggregate and per-kind cache hit rates from the counters; the
        aggregate sums the per-kind ``cache.hit.<kind>`` /
        ``cache.miss.<kind>`` counters."""
        hits = misses = 0
        kinds: Dict[str, object] = {}
        for name, value in counters.items():
            if name.startswith("cache.miss."):
                misses += value
            elif name.startswith("cache.hit."):
                hits += value
                kind = name[len("cache.hit."):]
                total = value + counters.get(f"cache.miss.{kind}", 0)
                kinds[kind] = (value / total) if total else None
        lookups = hits + misses
        health: Dict[str, object] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
        }
        if kinds:
            health["hit_rate_by_kind"] = kinds
        return health

    def handle_healthz(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        snapshot = self.runtime.current
        stats = self.runtime.stats
        counters = self.metrics.counters()
        surfaced = {
            name: value for name, value in counters.items()
            if name in self._HEALTH_COUNTERS
            or name.startswith(self._HEALTH_COUNTER_PREFIXES)
        }
        payload: Dict[str, object] = {
            "status": "ok",
            "epoch": list(snapshot.epoch),
            "serial": snapshot.serial,
            "layers": snapshot.index.num_layers,
            "layer_sizes": snapshot.index.layer_sizes(),
            "storage": snapshot.storage_kind,
            "inflight": self.admission.inflight,
            "reserved_expansions": self.admission.reserved_expansions,
            "mutations": stats.mutations,
            "reloads": stats.reloads,
            "retired_snapshots": stats.retired,
            "pinned_snapshots": self.runtime.pinned_snapshots(),
            "draining": self._draining.is_set(),
            "uptime_seconds": monotonic_now() - self._started,
            "counters": surfaced,
            "cache": self._cache_health(counters),
        }
        if self.runtime.wal is not None:
            payload["wal_records"] = self.runtime.wal.record_count
        if self.slo is not None:
            payload["slo"] = self.slo.publish_gauges(self.metrics)
        return 200, payload, {}

    def handle_metrics(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        """The registry snapshot — JSON by default, Prometheus text when
        the request asks for it (``Accept: text/plain`` or an
        OpenMetrics type).  The JSON shape is unchanged for existing
        consumers; negotiation is purely additive."""
        if self.slo is not None:
            self.slo.publish_gauges(self.metrics)
        # Log/flight volume and the admission ledger are published at
        # scrape time instead of per request: the sources already track
        # their own totals, and extra locked registry calls per request
        # would tax the <=2% observability budget for nothing.
        if self.access_log is not None:
            self.metrics.gauge("log.access_lines", self.access_log.lines)
            self.metrics.gauge("log.rotations", self.access_log.rotations)
        if self.slow_log is not None:
            self.metrics.gauge("log.slow_lines", self.slow_log.lines)
        if self.flight.enabled:
            self.metrics.gauge("flight.records", len(self.flight))
        self.metrics.gauge("serve.inflight", self.admission.inflight)
        self.metrics.gauge(
            "serve.inflight_expansions", self.admission.reserved_expansions
        )
        accept = ""
        for key, value in headers.items():
            if str(key).lower() == "accept":
                accept = str(value).lower()
                break
        if "text/plain" in accept or "openmetrics" in accept:
            text = render_prometheus(self.metrics.snapshot())
            return (
                200,
                text,
                {"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
            )
        return 200, self.metrics.snapshot(), {}

    def handle_flight(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        """The flight-recorder ring, oldest record first (admin-gated)."""
        records = self.flight.dump()
        return (
            200,
            {
                "status": "ok",
                "enabled": self.flight.enabled,
                "capacity": self.flight.capacity,
                "count": len(records),
                "records": records,
            },
            {},
        )

    def handle_mutate(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        data = _parse_json(body)
        op = data.get("op")
        if op not in ("insert", "delete"):
            raise BadRequest(f"op must be 'insert' or 'delete', got {op!r}")
        u = _parse_optional_int(data, "u")
        v = _parse_optional_int(data, "v")
        if u is None or v is None:
            raise BadRequest("mutation needs integer endpoints u and v")

        entry = {"op": op, "u": u, "v": v}
        try:
            applied, snapshot = self.runtime.mutate(entry)
        except (BigIndexError, IndexError) as exc:
            raise BadRequest(f"mutation failed: {exc}")
        self.metrics.inc("serve.mutations")
        return (
            200,
            {
                "status": "ok",
                "applied": applied,
                # Echo the op so an acked mutation is attributable from
                # the response alone (the flight recorder and the chaos
                # drill's timeline diff both key on it).
                **entry,
                "epoch": list(snapshot.epoch),
                "serial": snapshot.serial,
                "durable": self.runtime.wal is not None,
            },
            {},
        )

    def handle_digest(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        """State fingerprint for differential drills (admin-gated).

        ``digest`` is :meth:`BiGIndex.state_digest` of the *current*
        snapshot — an external oracle that applied the same acked ops
        must produce the same value.  ``wal_records`` reports how many
        ops the durable log holds: those replayed at startup plus those
        committed since.
        """
        snapshot = self.runtime.current
        payload: Dict[str, object] = {
            "status": "ok",
            "digest": snapshot.index.state_digest(),
            "epoch": list(snapshot.epoch),
            "serial": snapshot.serial,
        }
        if self.runtime.wal is not None:
            payload["wal_records"] = self.runtime.wal.record_count
        return 200, payload, {}

    def handle_reload(
        self, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        if self.loader is None:
            raise BadRequest("server was started without a reloadable index")
        snapshot = self.reload(self.loader())
        return (
            200,
            {
                "status": "ok",
                "epoch": list(snapshot.epoch),
                "serial": snapshot.serial,
            },
            {},
        )

    #: ``(method, path) -> (handler, admin-gated)``; every handler takes
    #: ``(self, body, headers)``.  A known path with another method is a
    #: 405, any other path a 404.
    _ROUTES = {
        ("POST", "/query"): (handle_query, False),
        ("POST", "/batch"): (handle_batch, False),
        ("GET", "/healthz"): (handle_healthz, False),
        ("GET", "/metrics"): (handle_metrics, False),
        ("POST", "/admin/mutate"): (handle_mutate, True),
        ("POST", "/admin/reload"): (handle_reload, True),
        ("GET", "/admin/digest"): (handle_digest, True),
        ("GET", "/admin/flight"): (handle_flight, True),
    }
    _PATHS = frozenset(path for _, path in _ROUTES)

    # ------------------------------------------------------------------
    # Programmatic lifecycle (used by tests and the CLI)
    # ------------------------------------------------------------------
    def reload(self, index: BiGIndex):
        """Zero-downtime swap to ``index`` (see ``EngineRuntime.reload``)."""
        snapshot = self.runtime.reload(index)
        self.metrics.inc("serve.reloads")
        return snapshot

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop admitting work: every new request (except ``/healthz``
        and ``/metrics``) is shed with 503 from now on."""
        self._draining.set()

    def drain(self, deadline_seconds: float = 10.0) -> bool:
        """Wait for in-flight requests to finish, up to a deadline.

        Calls :meth:`begin_drain` first.  Returns whether the server
        went idle before the deadline; a ``False`` means the caller is
        about to exit with requests still running (logged by the CLI).
        """
        self.begin_drain()
        pause = threading.Event()
        deadline = monotonic_now() + deadline_seconds
        while self.admission.inflight > 0 and monotonic_now() < deadline:
            pause.wait(0.02)
        return self.admission.inflight == 0
