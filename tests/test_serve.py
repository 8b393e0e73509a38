"""Serve stack tests: HTTP contract, admission, lifecycle, concurrency.

Three tiers:

* **Contract** — golden request/response shapes for every endpoint,
  including the degraded (429) partial-result JSON, shed (503) with
  ``Retry-After``, malformed-body 400s, and the budget-header edge cases
  (zero / negative / overflow / NaN / inf).
* **Lifecycle** — mutation and reload through the runtime: epoch bumps,
  serial monotonicity, zero-downtime reload semantics, RW-lock behavior.
* **Concurrency** — N client threads over a real HTTP server interleaved
  with mutations; every response must byte-match the single-threaded
  oracle for the epoch it pinned.
"""

from __future__ import annotations

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.index import BiGIndex
from repro.core.plugins import boost
from repro.search.banks import BackwardKeywordSearch
from repro.search.base import KeywordQuery
from repro.obs.reqlog import RequestLog, valid_request_id
from repro.serve.admission import AdmissionController, ShedError
from repro.serve.client import ServeClient
from repro.serve.lifecycle import EngineRuntime
from repro.serve.server import serve_in_thread
from repro.serve.service import (
    QueryService,
    ServerConfig,
    canonical_payload,
    parse_budget_headers,
)
from repro.serve.service import BadRequest
from repro.utils.errors import GraphError


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def build_index(random_graph_factory, small_ontology, seed: int = 0) -> BiGIndex:
    graph = random_graph_factory(seed=seed)
    return BiGIndex.build(graph, small_ontology, num_layers=2)


def make_service(index: BiGIndex, config: ServerConfig = None, loader=None):
    def evaluator_factory(idx: BiGIndex):
        return boost(
            BackwardKeywordSearch(d_max=4, k=10), idx, allow_layer_zero=True
        ).evaluator

    runtime = EngineRuntime(index, evaluator_factory)
    return QueryService(runtime, config=config, loader=loader)


@pytest.fixture
def service(random_graph_factory, small_ontology):
    return make_service(
        build_index(random_graph_factory, small_ontology),
        ServerConfig(enable_admin=True),
    )


def post(service, path, body, headers=None):
    data = json.dumps(body).encode() if not isinstance(body, bytes) else body
    return service.handle("POST", path, data, headers or {})


# ----------------------------------------------------------------------
# Contract: /query
# ----------------------------------------------------------------------
class TestQueryContract:
    def test_ok_response_shape(self, service):
        status, payload, _ = post(service, "/query", {"keywords": ["A", "B"]})
        assert status == 200
        assert payload["status"] == "ok"
        assert isinstance(payload["layer"], int)
        assert isinstance(payload["answers"], list) and payload["answers"]
        answer = payload["answers"][0]
        assert set(answer) == {
            "score", "root", "keyword_nodes", "vertices", "edges",
        }
        assert answer["keyword_nodes"].keys() == {"A", "B"}
        assert payload["epoch"] == list(service.runtime.epoch)
        assert payload["serial"] == 0
        assert payload["seconds"] >= 0

    def test_results_ranked_by_score(self, service):
        _, payload, _ = post(service, "/query", {"keywords": ["A", "B"]})
        scores = [a["score"] for a in payload["answers"]]
        assert scores == sorted(scores)

    def test_k_limits_answers(self, service):
        _, payload, _ = post(
            service, "/query", {"keywords": ["A", "B"], "k": 2}
        )
        assert len(payload["answers"]) <= 2

    def test_forced_layer_is_respected(self, service):
        _, payload, _ = post(
            service, "/query", {"keywords": ["A", "B"], "layer": 0}
        )
        assert payload["layer"] == 0

    def test_matches_direct_evaluation(self, service):
        """The HTTP payload is exactly the in-process evaluation, encoded."""
        _, payload, _ = post(service, "/query", {"keywords": ["A", "B"]})
        evaluator = service.runtime.current.evaluator
        result = evaluator.evaluate_resilient(KeywordQuery(["A", "B"]), k=10)
        assert len(payload["answers"]) == len(result.answers)
        for encoded, answer in zip(payload["answers"], result.answers):
            assert encoded["score"] == answer.score
            assert encoded["root"] == answer.root
            assert encoded["vertices"] == list(answer.vertices)

    def test_degraded_maps_to_429_with_partial_json(self, service):
        status, payload, _ = post(
            service,
            "/query",
            {"keywords": ["A", "B"]},
            {"X-Budget-Expansions": "1"},
        )
        assert status == 429
        assert payload["status"] == "degraded"
        assert "lower_bound" in payload
        assert "reason" in payload
        assert isinstance(payload["answers"], list)
        assert isinstance(payload["unranked"], list)
        assert payload["attempts"], "attempt instrumentation missing"
        assert payload["stats"]["expansions_consumed"] >= 0

    def test_zero_expansion_budget_degrades_immediately(self, service):
        status, payload, _ = post(
            service,
            "/query",
            {"keywords": ["A", "B"]},
            {"X-Budget-Expansions": "0"},
        )
        assert status == 429
        assert payload["status"] == "degraded"

    def test_generous_budget_is_a_complete_200(self, service):
        status, payload, _ = post(
            service,
            "/query",
            {"keywords": ["A", "B"]},
            {"X-Budget-Expansions": "1000000", "X-Budget-Timeout": "60"},
        )
        assert status == 200
        assert payload["status"] == "ok"


class TestQueryValidation:
    @pytest.mark.parametrize(
        "body",
        [
            b"",                               # empty
            b"not json",                       # unparseable
            b"[1, 2]",                         # not an object
            b'{"keywords": []}',               # empty keywords
            b'{"keywords": "AB"}',             # wrong type
            b'{"keywords": [1, 2]}',           # non-string keywords
            b'{"keywords": ["A", "A"]}',       # duplicates (QueryError)
            b'{"keywords": ["A", "B"], "k": "many"}',   # bad k
            b'{"keywords": ["A", "B"], "layer": true}',  # bool layer
        ],
    )
    def test_malformed_bodies_are_400(self, service, body):
        status, payload, _ = post(service, "/query", body)
        assert status == 400
        assert payload["status"] == "error"
        assert payload["error"]

    def test_unknown_path_404(self, service):
        status, _, _ = service.handle("POST", "/nope", b"{}", {})
        assert status == 404

    def test_wrong_method_405(self, service):
        status, _, _ = service.handle("GET", "/query", b"", {})
        assert status == 405
        status, _, _ = service.handle("POST", "/healthz", b"", {})
        assert status == 405


class TestBudgetHeaders:
    """Edge cases pinned: zero / negative / overflow / NaN / inf."""

    CONFIG = ServerConfig(max_request_expansions=5000)

    def parse(self, headers):
        return parse_budget_headers(headers, self.CONFIG)

    def test_absent_headers_use_defaults(self):
        config = ServerConfig(default_timeout=2.5, default_max_expansions=10)
        assert parse_budget_headers({}, config) == (2.5, 10)

    def test_zero_values_are_legal(self):
        timeout, cap = self.parse(
            {"X-Budget-Timeout": "0", "X-Budget-Expansions": "0"}
        )
        assert timeout == 0.0
        assert cap == 0

    @pytest.mark.parametrize(
        "headers",
        [
            {"X-Budget-Timeout": "-1"},
            {"X-Budget-Timeout": "-0.001"},
            {"X-Budget-Timeout": "nan"},
            {"X-Budget-Timeout": "abc"},
            {"X-Budget-Timeout": ""},
            {"X-Budget-Expansions": "-1"},
            {"X-Budget-Expansions": "1.5"},
            {"X-Budget-Expansions": "lots"},
            {"X-Budget-Expansions": ""},
        ],
    )
    def test_malformed_values_raise(self, headers):
        with pytest.raises(BadRequest):
            self.parse(headers)

    def test_infinite_timeout_means_no_deadline(self):
        timeout, _ = self.parse({"X-Budget-Timeout": "inf"})
        assert timeout is None

    def test_overflow_expansions_clamped_to_server_ceiling(self):
        _, cap = self.parse({"X-Budget-Expansions": str(10 ** 30)})
        assert cap == 5000

    def test_header_names_case_insensitive(self):
        timeout, cap = self.parse(
            {"x-budget-timeout": "1.5", "X-BUDGET-EXPANSIONS": "7"}
        )
        assert timeout == 1.5
        assert cap == 7

    def test_malformed_header_is_http_400(self, service):
        status, payload, _ = post(
            service,
            "/query",
            {"keywords": ["A", "B"]},
            {"X-Budget-Timeout": "-3"},
        )
        assert status == 400
        assert "X-Budget-Timeout" in payload["error"]


# ----------------------------------------------------------------------
# Contract: /batch, /healthz, /metrics
# ----------------------------------------------------------------------
class TestBatchContract:
    def test_batch_envelope(self, service):
        status, payload, _ = post(
            service, "/batch", {"queries": [["A", "B"], ["C", "D"]]}
        )
        assert status == 200
        assert payload["count"] == 2
        assert payload["ok"] == 2
        assert payload["degraded"] == 0
        assert payload["errors"] == 0
        assert [r["keywords"] for r in payload["results"]] == [
            ["A", "B"], ["C", "D"],
        ]
        assert all(r["status"] == "ok" for r in payload["results"])

    def test_batch_matches_single_queries(self, service):
        _, batch, _ = post(
            service, "/batch", {"queries": [["A", "B"], ["C", "D"]]}
        )
        for entry in batch["results"]:
            _, single, _ = post(
                service, "/query", {"keywords": entry["keywords"]}
            )
            assert entry["answers"] == single["answers"]

    def test_batch_duplicate_keywords_rejected_at_parse(self, service):
        status, payload, _ = post(
            service, "/batch", {"queries": [["A", "B"], ["A", "A"]]}
        )
        assert status == 400
        assert "queries[1]" in payload["error"]

    def test_batch_with_invalid_query_is_400(self, service):
        status, payload, _ = post(
            service, "/batch", {"queries": [["A", "B"], []]}
        )
        assert status == 400
        assert "queries[1]" in payload["error"]

    def test_batch_cap_enforced(self, service, monkeypatch):
        monkeypatch.setattr("repro.serve.service.MAX_BATCH_QUERIES", 2)
        status, payload, _ = post(
            service,
            "/batch",
            {"queries": [["A", "B"]] * 3},
        )
        assert status == 400
        assert "cap" in payload["error"]

    def test_batch_budget_degrades_per_query(self, service):
        status, payload, _ = post(
            service,
            "/batch",
            {"queries": [["A", "B"], ["C", "D"]]},
            {"X-Budget-Expansions": "1"},
        )
        assert status == 200  # envelope is 200; statuses ride inside
        assert payload["degraded"] == 2
        assert all(
            r["status"] == "degraded" and "lower_bound" in r
            for r in payload["results"]
        )


def _strict_loads(data: bytes):
    """``json.loads`` as a strict parser: Infinity / NaN tokens raise."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token!r} on the wire")

    return json.loads(data, parse_constant=reject)


class TestStrictJsonWire:
    """Every response body is strict JSON, the infinite bound included.

    The golden: bdws on synt-1k exhausts every frontier of
    ``T7_100 T7_103`` within 56 expansions without confirming a root, so
    its proven bound is infinite — "no unseen answer exists".  That is
    ``"lower_bound": null`` on the wire, never ``Infinity``.
    """

    @pytest.fixture(scope="class")
    def live(self):
        from repro.core.cost import CostParams
        from repro.datasets.synthetic import synthetic_dataset
        from repro.search.bidirectional import BidirectionalSearch

        graph, ontology = synthetic_dataset("synt-1k", seed=0)
        index = BiGIndex.build(
            graph, ontology, num_layers=1,
            cost_params=CostParams(num_samples=5),
        )
        service = QueryService(EngineRuntime(
            index,
            lambda idx: boost(
                BidirectionalSearch(d_max=3, k=5), idx, allow_layer_zero=True
            ).evaluator,
        ))
        with serve_in_thread(service) as server:
            yield server

    def _post(self, server, path, body, headers=None):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            connection.request(
                "POST", path, json.dumps(body).encode(), headers or {}
            )
            response = connection.getresponse()
            return response.status, _strict_loads(response.read())
        finally:
            connection.close()

    def test_infinite_bound_is_null_on_query(self, live):
        status, payload = self._post(
            live, "/query", {"keywords": ["T7_100", "T7_103"]},
            {"X-Budget-Expansions": "56"},
        )
        assert status == 429
        assert payload["status"] == "degraded"
        assert payload["lower_bound"] is None
        assert payload["answers"] == [] and payload["unranked"] == []

    def test_finite_bound_stays_a_number(self, live):
        status, payload = self._post(
            live, "/query", {"keywords": ["T7_100", "T7_103"]},
            {"X-Budget-Expansions": "1"},
        )
        assert status == 429
        assert isinstance(payload["lower_bound"], (int, float))

    def test_batch_and_ok_payloads_round_trip(self, live):
        status, payload = self._post(
            live, "/batch",
            {"queries": [["T7_100", "T7_103"], ["T7_100", "T7_101"]]},
            {"X-Budget-Expansions": "56"},
        )
        assert status == 200
        assert payload["results"][0]["lower_bound"] is None
        status, payload = self._post(
            live, "/query", {"keywords": ["T7_100", "T7_103"]}
        )
        assert status == 200 and payload["status"] == "ok"


class TestIntrospectionEndpoints:
    def test_healthz(self, service):
        status, payload, _ = service.handle("GET", "/healthz", b"", {})
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["epoch"] == list(service.runtime.epoch)
        assert payload["layers"] == 2
        assert len(payload["layer_sizes"]) == 3
        assert payload["inflight"] == 0
        assert payload["uptime_seconds"] >= 0

    def test_metrics_counts_requests(self, service):
        post(service, "/query", {"keywords": ["A", "B"]})
        post(service, "/query", b"broken")
        status, payload, _ = service.handle("GET", "/metrics", b"", {})
        assert status == 200
        counters = payload["counters"]
        assert counters["serve.requests.query"] == 2
        assert counters["serve.responses.200"] == 1
        assert counters["serve.responses.400"] == 1
        assert payload["histograms"]["serve.latency_seconds"]["count"] >= 2


# ----------------------------------------------------------------------
# Admission control and shedding
# ----------------------------------------------------------------------
class TestAdmission:
    def test_inflight_cap_sheds(self):
        controller = AdmissionController(max_inflight_requests=2)
        t1 = controller.try_admit()
        controller.try_admit()
        with pytest.raises(ShedError) as excinfo:
            controller.try_admit()
        assert excinfo.value.reason == "inflight"
        controller.release(t1)
        controller.try_admit()  # slot freed

    def test_expansion_ledger_sheds(self):
        controller = AdmissionController(max_inflight_expansions=100)
        ticket = controller.try_admit(reserve=80)
        with pytest.raises(ShedError) as excinfo:
            controller.try_admit(reserve=30)
        assert excinfo.value.reason == "expansions"
        controller.release(ticket)
        controller.try_admit(reserve=30)

    def test_oversized_single_request_always_sheds(self):
        controller = AdmissionController(max_inflight_expansions=100)
        with pytest.raises(ShedError):
            controller.try_admit(reserve=101)

    def test_shed_maps_to_503_with_retry_after(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(max_inflight_requests=0),
        )
        status, payload, headers = post(
            service, "/query", {"keywords": ["A", "B"]}
        )
        assert status == 503
        assert payload["status"] == "shed"
        assert payload["reason"] == "inflight"
        assert "Retry-After" in headers
        assert service.metrics.counter("serve.shed") == 1
        assert service.metrics.counter("serve.shed.inflight") == 1

    def test_expansion_cap_shed_is_503_before_any_work(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(max_inflight_expansions=10),
        )
        status, payload, _ = post(
            service,
            "/query",
            {"keywords": ["A", "B"]},
            {"X-Budget-Expansions": "50"},
        )
        assert status == 503
        assert payload["reason"] == "expansions"
        # Shed strictly before execution: nothing was evaluated.
        assert service.metrics.counter("serve.degraded") == 0

    def test_ledger_drains_after_requests(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(max_inflight_expansions=1000),
        )
        for _ in range(3):
            status, _, _ = post(
                service,
                "/query",
                {"keywords": ["A", "B"]},
                {"X-Budget-Expansions": "900"},
            )
            assert status in (200, 429)
        assert service.admission.inflight == 0
        assert service.admission.reserved_expansions == 0


# ----------------------------------------------------------------------
# Lifecycle: mutation, reload
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_mutate_bumps_epoch_and_serial(self, service):
        before = service.runtime.current
        graph = before.index.base_graph
        u, v = next(
            (u, v)
            for u in graph.vertices()
            for v in graph.vertices()
            if u != v and not graph.has_edge(u, v)
        )
        status, payload, _ = post(
            service, "/admin/mutate", {"op": "insert", "u": u, "v": v}
        )
        assert status == 200
        assert payload["applied"] is True
        after = service.runtime.current
        assert after.serial == before.serial + 1
        assert after.epoch != before.epoch
        assert payload["epoch"] == list(after.epoch)

    def test_inapplicable_mutation_is_applied_false(self, service):
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        status, payload, _ = post(
            service, "/admin/mutate", {"op": "insert", "u": u, "v": v}
        )
        assert status == 200
        assert payload["applied"] is False

    def test_admin_disabled_is_403(self, random_graph_factory, small_ontology):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(enable_admin=False),
        )
        status, _, _ = post(
            service, "/admin/mutate", {"op": "insert", "u": 0, "v": 1}
        )
        assert status == 403
        status, _, _ = post(service, "/admin/reload", {})
        assert status == 403

    def test_reload_publishes_new_snapshot_without_drain(
        self, random_graph_factory, small_ontology
    ):
        index = build_index(random_graph_factory, small_ontology)
        loader = lambda: build_index(  # noqa: E731
            random_graph_factory, small_ontology
        )
        service = make_service(
            index, ServerConfig(enable_admin=True), loader=loader
        )
        old = service.runtime.current
        status, payload, _ = post(service, "/admin/reload", {})
        assert status == 200
        new = service.runtime.current
        assert new.serial == old.serial + 1
        assert new.index is not old.index
        # Zero-downtime contract: the old snapshot keeps working — a
        # reader pinned on it would still evaluate the old index.
        result = old.evaluator.evaluate(KeywordQuery(["A", "B"]))
        assert result.answers

    def test_reload_without_loader_is_400(self, service):
        status, payload, _ = post(service, "/admin/reload", {})
        assert status == 400

    def test_query_after_mutation_sees_new_epoch(self, service):
        _, before, _ = post(service, "/query", {"keywords": ["A", "B"]})
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        post(service, "/admin/mutate", {"op": "delete", "u": u, "v": v})
        _, after, _ = post(service, "/query", {"keywords": ["A", "B"]})
        assert after["epoch"] != before["epoch"]
        assert after["serial"] == before["serial"] + 1


# ----------------------------------------------------------------------
# Concurrency: live server vs single-threaded oracle, across epochs
# ----------------------------------------------------------------------
class TestConcurrentServing:
    QUERIES = (("A", "B"), ("C", "D"), ("A", "C"), ("B", "D"))

    def _oracle_bytes(self, factory, ops):
        """Canonical response bytes per (epoch, query), single-threaded."""
        service = make_service(factory(), ServerConfig())
        expectations = {}

        def snap():
            per_query = {}
            for keywords in self.QUERIES:
                status, payload, _ = post(
                    service, "/query", {"keywords": list(keywords)}
                )
                assert status == 200
                per_query[keywords] = json.dumps(
                    canonical_payload(payload), sort_keys=True
                )
            expectations[tuple(service.runtime.epoch)] = per_query

        snap()
        for op, u, v in ops:
            service.runtime.mutate({"op": op, "u": u, "v": v})
            snap()
        return expectations

    def test_hammer_with_mutations_matches_oracle_per_epoch(
        self, random_graph_factory, small_ontology
    ):
        factory = lambda: build_index(  # noqa: E731
            random_graph_factory, small_ontology, seed=3
        )
        # A deterministic mutation schedule over the seeded graph.
        probe = factory()
        rng = random.Random(42)
        ops = []
        for _ in range(3):
            edges = sorted(probe.base_graph.edges())
            u, v = edges[rng.randrange(len(edges))]
            probe.delete_edge(u, v)
            ops.append(("delete", u, v))
        expectations = self._oracle_bytes(factory, ops)
        assert len(expectations) == len(ops) + 1

        service = make_service(factory(), ServerConfig())
        failures = []

        def worker(worker_id, port):
            wrng = random.Random(worker_id)
            with ServeClient("127.0.0.1", port) as client:
                for _ in range(6):
                    keywords = self.QUERIES[wrng.randrange(len(self.QUERIES))]
                    response = client.query(list(keywords))
                    if response.status != 200:
                        failures.append(f"HTTP {response.status}")
                        continue
                    epoch = tuple(response.payload["epoch"])
                    expected = expectations.get(epoch, {}).get(keywords)
                    actual = json.dumps(
                        canonical_payload(response.payload), sort_keys=True
                    )
                    if expected is None:
                        failures.append(f"unknown epoch {epoch}")
                    elif actual != expected:
                        failures.append(
                            f"epoch {epoch} Q={keywords}: {actual} != "
                            f"{expected}"
                        )

        with serve_in_thread(service) as server:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(worker, i, server.port) for i in range(4)
                ]
                for op, u, v in ops:
                    service.runtime.mutate({"op": op, "u": u, "v": v})
                for future in futures:
                    future.result()
        assert not failures, failures[:5]

    def test_concurrent_batches_identical_to_serial(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(),
        )
        _, serial, _ = post(
            service, "/batch", {"queries": [list(q) for q in self.QUERIES]}
        )
        serial_bytes = json.dumps(
            canonical_payload(serial), sort_keys=True
        )

        def one_batch(_):
            _, payload, _ = post(
                service,
                "/batch",
                {"queries": [list(q) for q in self.QUERIES]},
            )
            return json.dumps(canonical_payload(payload), sort_keys=True)

        with ThreadPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(one_batch, range(8)))
        assert all(outcome == serial_bytes for outcome in outcomes)

    def test_http_keepalive_across_requests(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology), ServerConfig()
        )
        with serve_in_thread(service) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                first = client.query(["A", "B"])
                sock = client._conn.sock
                second = client.query(["C", "D"])
                assert client._conn.sock is sock, "connection was not reused"
        assert first.status == 200 and second.status == 200


# ----------------------------------------------------------------------
# Copy-on-write runtime: pinning, retirement, non-blocking mutation
# ----------------------------------------------------------------------
class TestSnapshotLifecycle:
    def test_pinned_reader_survives_mutation(self, service):
        runtime = service.runtime
        with runtime.pin() as snapshot:
            digest = snapshot.index.state_digest()
            graph = snapshot.index.base_graph
            u, v = next(iter(sorted(graph.edges())))
            status, payload, _ = post(
                service, "/admin/mutate", {"op": "delete", "u": u, "v": v}
            )
            assert status == 200 and payload["applied"] is True
            # The writer published past this reader without touching
            # its pinned generation.
            assert runtime.current is not snapshot
            assert snapshot.index.state_digest() == digest
            assert snapshot.index.base_graph.has_edge(u, v)
            assert not runtime.current.index.base_graph.has_edge(u, v)
            assert runtime.pinned_snapshots() == 1
            assert runtime.stats.retired == 0
        # Last pin released: the superseded snapshot retires.
        assert runtime.pinned_snapshots() == 0
        assert runtime.stats.retired == 1

    def test_unpinned_snapshot_retires_at_publish(self, service):
        runtime = service.runtime
        runtime.reload(runtime.current.index.cow_clone())
        assert runtime.stats.retired == 1
        assert runtime.stats.reloads == 1

    def test_current_snapshot_release_does_not_retire(self, service):
        runtime = service.runtime
        with runtime.pin():
            pass
        assert runtime.stats.retired == 0

    def test_pin_does_not_wait_for_a_slow_writer(self, service, monkeypatch):
        import time as _time

        runtime = service.runtime
        entered = threading.Event()
        delete_edge = BiGIndex.delete_edge

        def slow_delete_edge(index, u, v):
            entered.set()
            _time.sleep(0.5)
            delete_edge(index, u, v)

        monkeypatch.setattr(BiGIndex, "delete_edge", slow_delete_edge)
        u, v = next(iter(sorted(runtime.current.index.base_graph.edges())))
        writer = threading.Thread(
            target=lambda: runtime.mutate({"op": "delete", "u": u, "v": v})
        )
        writer.start()
        try:
            assert entered.wait(2.0)
            started = _time.monotonic()
            with runtime.pin() as snapshot:
                elapsed = _time.monotonic() - started
                result = snapshot.evaluator.evaluate(
                    KeywordQuery(["A", "B"])
                )
            assert elapsed < 0.25, "pin blocked behind an in-flight writer"
            assert result.answers
        finally:
            writer.join()

    def test_mutation_failure_publishes_nothing(self, service):
        runtime = service.runtime
        before = runtime.current
        absent = before.index.base_graph.num_vertices

        with pytest.raises(GraphError):
            runtime.mutate({"op": "insert", "u": 0, "v": absent})
        assert runtime.current is before
        assert runtime.stats.publishes == 0


# ----------------------------------------------------------------------
# Drain discipline and graceful shutdown
# ----------------------------------------------------------------------
class TestDrain:
    def test_draining_sheds_everything_but_introspection(self, service):
        service.begin_drain()
        assert service.draining is True
        status, payload, extra = post(
            service, "/query", {"keywords": ["A", "B"]}
        )
        assert status == 503
        assert payload["reason"] == "draining"
        assert "Retry-After" in extra
        status, payload, _ = service.handle("GET", "/healthz", b"", {})
        assert status == 200
        assert payload["draining"] is True
        status, _, _ = service.handle("GET", "/metrics", b"", {})
        assert status == 200

    def test_drain_with_no_inflight_returns_quickly(self, service):
        assert service.drain(deadline_seconds=1.0) is True

    def test_healthz_reports_snapshot_accounting(self, service):
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        post(service, "/admin/mutate", {"op": "delete", "u": u, "v": v})
        _, payload, _ = service.handle("GET", "/healthz", b"", {})
        assert payload["retired_snapshots"] == 1
        assert payload["pinned_snapshots"] == 0
        assert payload["draining"] is False

    def test_shutdown_gracefully_drains_then_stops(
        self, random_graph_factory, small_ontology
    ):
        from repro.serve.server import shutdown_gracefully, start_server

        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(enable_admin=True),
        )
        server = start_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ServeClient("127.0.0.1", server.port) as client:
            assert client.healthz().ok
        assert shutdown_gracefully(server, thread, drain_deadline=2.0)
        assert service.draining is True
        assert not thread.is_alive()
        # The in-process contract after shutdown: still shedding.
        status, _, _ = post(service, "/query", {"keywords": ["A", "B"]})
        assert status == 503


# ----------------------------------------------------------------------
# /admin/digest
# ----------------------------------------------------------------------
class TestDigestEndpoint:
    def test_digest_matches_state(self, service):
        status, payload, _ = service.handle("GET", "/admin/digest", b"", {})
        assert status == 200
        snapshot = service.runtime.current
        assert payload["digest"] == snapshot.index.state_digest()
        assert payload["epoch"] == list(snapshot.epoch)
        assert payload["serial"] == snapshot.serial

    def test_digest_tracks_mutations(self, service):
        _, before, _ = service.handle("GET", "/admin/digest", b"", {})
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        post(service, "/admin/mutate", {"op": "delete", "u": u, "v": v})
        _, after, _ = service.handle("GET", "/admin/digest", b"", {})
        assert after["digest"] != before["digest"]

    def test_digest_requires_admin(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(enable_admin=False),
        )
        status, _, _ = service.handle("GET", "/admin/digest", b"", {})
        assert status == 403


# ----------------------------------------------------------------------
# Durable mutate: WAL-before-ack
# ----------------------------------------------------------------------
class TestDurableMutate:
    def _durable_service(
        self, tmp_path, random_graph_factory, small_ontology
    ):
        from repro.core.wal import MutationWAL
        from repro.core.plugins import boost as boost_factory

        index = build_index(random_graph_factory, small_ontology)
        wal = MutationWAL(str(tmp_path / "mutations.wal"))
        wal.open()

        def evaluator_factory(idx):
            return boost_factory(
                BackwardKeywordSearch(d_max=4, k=10),
                idx,
                allow_layer_zero=True,
            ).evaluator

        runtime = EngineRuntime(index, evaluator_factory, wal=wal)
        return QueryService(
            runtime, config=ServerConfig(enable_admin=True)
        ), wal

    def test_applied_mutation_is_logged_before_ack(
        self, tmp_path, random_graph_factory, small_ontology
    ):
        from repro.core.wal import read_wal

        service, wal = self._durable_service(
            tmp_path, random_graph_factory, small_ontology
        )
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        status, payload, _ = post(
            service, "/admin/mutate", {"op": "delete", "u": u, "v": v}
        )
        assert status == 200
        assert payload["applied"] is True
        assert payload["durable"] is True
        records = read_wal(wal.path).records
        assert [r.op for r in records] == [
            {"op": "delete", "u": u, "v": v}
        ]

    def test_noop_mutation_skips_the_log(
        self, tmp_path, random_graph_factory, small_ontology
    ):
        service, wal = self._durable_service(
            tmp_path, random_graph_factory, small_ontology
        )
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        status, payload, _ = post(
            service, "/admin/mutate", {"op": "insert", "u": u, "v": v}
        )
        assert status == 200
        assert payload["applied"] is False
        assert payload["durable"] is True
        assert wal.record_count == 0

    def test_without_wal_mutations_are_not_durable(self, service):
        graph = service.runtime.current.index.base_graph
        u, v = next(iter(sorted(graph.edges())))
        _, payload, _ = post(
            service, "/admin/mutate", {"op": "delete", "u": u, "v": v}
        )
        assert payload["durable"] is False


# ----------------------------------------------------------------------
# Client retry and backoff
# ----------------------------------------------------------------------
class _ScriptedHandler:
    """Builds a BaseHTTPRequestHandler that replays a status script."""

    @staticmethod
    def build(script, headers_per_status=None):
        import http.server

        state = {"hits": 0}
        extra_headers = headers_per_status or {}

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802
                index = min(state["hits"], len(script) - 1)
                state["hits"] += 1
                state.setdefault("ids", []).append(
                    self.headers.get("X-Request-Id")
                )
                status = script[index]
                body = json.dumps({"status": status}).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for key, value in extra_headers.get(status, {}).items():
                    self.send_header(key, value)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):  # noqa: A002
                pass

        return Handler, state


class TestClientRetry:
    def _serve_script(self, script, headers_per_status=None):
        import contextlib
        import http.server

        handler, state = _ScriptedHandler.build(script, headers_per_status)

        @contextlib.contextmanager
        def running():
            server = http.server.ThreadingHTTPServer(
                ("127.0.0.1", 0), handler
            )
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            try:
                yield server.server_address[1], state
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=5.0)

        return running()

    def test_shed_is_retried_until_success(self):
        with self._serve_script([503, 503, 200]) as (port, state):
            client = ServeClient(
                "127.0.0.1", port,
                max_retries=2, backoff_base=0.001, backoff_cap=0.002,
                rng=random.Random(0),
            )
            with client:
                response = client.request("GET", "/healthz")
        assert response.status == 200
        assert response.attempts == 3
        assert state["hits"] == 3

    def test_exhausted_retries_return_the_shed(self):
        with self._serve_script([503, 503, 503, 503]) as (port, state):
            client = ServeClient(
                "127.0.0.1", port,
                max_retries=2, backoff_base=0.001, backoff_cap=0.002,
                rng=random.Random(0),
            )
            with client:
                response = client.request("GET", "/healthz")
        assert response.status == 503
        assert response.attempts == 3

    def test_zero_retries_observes_raw_backpressure(self):
        with self._serve_script([503, 200]) as (port, state):
            with ServeClient("127.0.0.1", port, max_retries=0) as client:
                response = client.request("GET", "/healthz")
        assert response.status == 503
        assert response.attempts == 1
        assert state["hits"] == 1

    def test_degraded_retried_once_only_when_opted_in(self):
        with self._serve_script([429, 429, 429]) as (port, state):
            client = ServeClient(
                "127.0.0.1", port,
                max_retries=3, backoff_base=0.001, backoff_cap=0.002,
                retry_degraded=True, rng=random.Random(0),
            )
            with client:
                response = client.request("GET", "/healthz")
        assert response.status == 429
        assert response.attempts == 2  # exactly one extra attempt
        with self._serve_script([429, 200]) as (port, state):
            with ServeClient("127.0.0.1", port, max_retries=3) as client:
                response = client.request("GET", "/healthz")
        assert response.status == 429
        assert response.attempts == 1  # a degraded answer is an answer

    def test_backoff_growth_jitter_and_retry_after(self, monkeypatch):
        import repro.serve.client as client_module

        sleeps = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: sleeps.append(s)
        )
        client = ServeClient(
            "127.0.0.1", 1,
            backoff_base=0.1, backoff_cap=0.4, rng=random.Random(7),
        )
        for attempt in (1, 2, 3, 4):
            client._backoff(attempt, None)
        # Exponential up to the cap, scaled by jitter in [0.5, 1.0].
        for i, nominal in enumerate([0.1, 0.2, 0.4, 0.4]):
            assert 0.5 * nominal <= sleeps[i] <= nominal
        sleeps.clear()
        client._backoff(1, "0.3")  # server hint raises the wait
        assert sleeps[0] >= 0.3
        sleeps.clear()
        client._backoff(1, "99")  # ... but stays capped
        assert sleeps[0] <= 0.4
        sleeps.clear()
        client._backoff(1, "not-a-number")  # unparsable hint ignored
        assert sleeps[0] <= 0.1

    def test_reconnects_after_dropped_socket(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(),
        )
        with serve_in_thread(service) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.healthz().ok
                client._conn.sock.close()  # sever the keep-alive socket
                response = client.healthz()
                assert response.ok
                assert response.attempts == 2

    def test_retries_reuse_one_request_id(self):
        """Every attempt of a logical request carries the same ID."""
        with self._serve_script([503, 503, 200]) as (port, state):
            client = ServeClient(
                "127.0.0.1", port,
                max_retries=2, backoff_base=0.001, backoff_cap=0.002,
                rng=random.Random(0),
            )
            with client:
                response = client.request("GET", "/healthz")
        assert response.attempts == 3
        assert len(state["ids"]) == 3
        assert len(set(state["ids"])) == 1
        assert state["ids"][0] == response.request_id
        assert valid_request_id(response.request_id)

    def test_caller_supplied_id_survives_retries(self):
        with self._serve_script([503, 200]) as (port, state):
            client = ServeClient(
                "127.0.0.1", port,
                max_retries=1, backoff_base=0.001, backoff_cap=0.002,
                rng=random.Random(0),
            )
            with client:
                response = client.request(
                    "GET", "/healthz", headers={"X-Request-Id": "ride-along-7"}
                )
        assert state["ids"] == ["ride-along-7", "ride-along-7"]
        assert response.request_id == "ride-along-7"


# ----------------------------------------------------------------------
# Observability: correlation, access log, flight, metrics exposition
# ----------------------------------------------------------------------
class TestRequestCorrelation:
    def test_supplied_id_is_echoed(self, service):
        _, _, extra = post(
            service, "/query", {"keywords": ["A", "B"]},
            {"X-Request-Id": "caller-chose-this.1"},
        )
        assert extra["X-Request-Id"] == "caller-chose-this.1"
        assert service.metrics.counter("req.received") == 1

    def test_malformed_id_is_replaced(self, service):
        _, _, extra = post(
            service, "/query", {"keywords": ["A", "B"]},
            {"X-Request-Id": "has spaces and \"quotes\""},
        )
        minted = extra["X-Request-Id"]
        assert minted != "has spaces and \"quotes\""
        assert valid_request_id(minted)
        assert service.metrics.counter("req.minted") == 1

    def test_error_responses_still_carry_an_id(self, service):
        for path, body in (
            ("/query", b"{not json"),      # 400
            ("/nowhere", b"{}"),           # 404
        ):
            _, _, extra = post(service, path, body)
            assert valid_request_id(extra["X-Request-Id"])

    def test_minted_ids_unique_under_hammer(self, service):
        def one(_):
            _, _, extra = post(service, "/query", {"keywords": ["A", "B"]})
            return extra["X-Request-Id"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            ids = list(pool.map(one, range(64)))
        assert len(set(ids)) == 64

    def test_request_id_lands_on_the_trace_span(self, service):
        from repro.obs.runtime import instrumented
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with instrumented(tracer=tracer):
            post(
                service, "/query", {"keywords": ["A", "B"]},
                {"X-Request-Id": "traced-123"},
            )
        spans = [s for s in tracer.spans if s.name == "serve.request"]
        assert len(spans) == 1
        assert spans[0].attrs["request_id"] == "traced-123"
        assert spans[0].attrs["path"] == "/query"
        # The query work is nested under the request span.
        assert spans[0].children


class TestAccessLog:
    def _logged_service(
        self, random_graph_factory, small_ontology, tmp_path, **config
    ):
        access = RequestLog(str(tmp_path / "access.jsonl"))
        slow = RequestLog(str(tmp_path / "slow.jsonl"))
        index = build_index(random_graph_factory, small_ontology)

        def evaluator_factory(idx):
            return boost(
                BackwardKeywordSearch(d_max=4, k=10), idx,
                allow_layer_zero=True,
            ).evaluator

        service = QueryService(
            EngineRuntime(index, evaluator_factory),
            config=ServerConfig(enable_admin=True, **config),
            access_log=access,
            slow_log=slow,
        )
        return service, access, slow

    def test_every_response_logged_schema_valid_and_attributable(
        self, random_graph_factory, small_ontology, tmp_path
    ):
        from repro.obs.schema import validate_access_record

        service, access, slow = self._logged_service(
            random_graph_factory, small_ontology, tmp_path
        )
        expected = {}
        for path, body in (
            ("/query", {"keywords": ["A", "B"]}),   # 200
            ("/query", b"{not json"),               # 400
            ("/nowhere", b"{}"),                    # 404
        ):
            status, _, extra = post(service, path, body)
            expected[extra["X-Request-Id"]] = status
        access.close()
        slow.close()
        with open(access.path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 3
        for record in records:
            assert validate_access_record(record) == []
            assert expected.pop(record["request_id"]) == record["status"]
        assert not expected  # every response attributable to a line

    def test_slow_queries_flagged_and_mirrored(
        self, random_graph_factory, small_ontology, tmp_path
    ):
        # Threshold 0.0 ms: every request counts as slow.
        service, access, slow = self._logged_service(
            random_graph_factory, small_ontology, tmp_path,
            slow_query_ms=0.0,
        )
        _, _, extra = post(service, "/query", {"keywords": ["A", "B"]})
        access.close()
        slow.close()
        with open(slow.path, encoding="utf-8") as handle:
            mirrored = [json.loads(line) for line in handle]
        assert len(mirrored) == 1
        assert mirrored[0]["slow"] is True
        assert mirrored[0]["request_id"] == extra["X-Request-Id"]
        assert service.metrics.counter("log.slow_queries") == 1

    def test_dark_service_never_touches_a_log(self, service, tmp_path):
        # The fixture service has no access log: the hot path takes the
        # no-op branch and there is nothing to close or flush.
        assert service.access_log is None
        post(service, "/query", {"keywords": ["A", "B"]})


class TestFlightEndpoint:
    def test_ring_carries_recent_requests_in_order(self, service):
        post(service, "/query", {"keywords": ["A", "B"]})
        post(
            service, "/admin/mutate",
            {"op": "delete", "u": 0, "v": 1},
        )
        status, payload, _ = service.handle("GET", "/admin/flight", b"", {})
        assert status == 200
        assert payload["enabled"] is True
        records = payload["records"]
        # The /admin/flight read itself is not yet in its own dump.
        assert [r["path"] for r in records] == ["/query", "/admin/mutate"]
        assert [r["seq"] for r in records] == sorted(
            r["seq"] for r in records
        )
        for record in records:
            assert valid_request_id(record["request_id"])
        mutate = records[-1]
        assert mutate["op"] == "delete"
        assert {"u", "v", "applied"} <= set(mutate)
        assert mutate["digest"]          # admin traffic is fingerprinted
        assert "digest" not in records[0]  # query traffic is not

    def test_admin_gated(self, random_graph_factory, small_ontology):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(enable_admin=False),
        )
        status, payload, _ = service.handle("GET", "/admin/flight", b"", {})
        assert status == 403
        assert payload["status"] == "error"

    def test_zero_capacity_reports_disabled(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(enable_admin=True, flight_records=0),
        )
        post(service, "/query", {"keywords": ["A", "B"]})
        status, payload, _ = service.handle("GET", "/admin/flight", b"", {})
        assert status == 200
        assert payload["enabled"] is False
        assert payload["records"] == []


class TestMetricsExposition:
    def test_json_shape_unchanged_by_default(self, service):
        post(service, "/query", {"keywords": ["A", "B"]})
        status, payload, extra = service.handle("GET", "/metrics", b"", {})
        assert status == 200
        assert isinstance(payload, dict)
        assert set(payload) == {"counters", "gauges", "histograms"}
        assert payload["counters"]["serve.requests"] == 1

    def test_accept_text_plain_negotiates_prometheus(self, service):
        from repro.obs.promtext import parse_prometheus

        post(service, "/query", {"keywords": ["A", "B"]})
        status, payload, extra = service.handle(
            "GET", "/metrics", b"", {"Accept": "text/plain"}
        )
        assert status == 200
        assert isinstance(payload, str)
        assert extra["Content-Type"].startswith("text/plain; version=0.0.4")
        families = parse_prometheus(payload)
        latency = families["serve_latency_seconds"]
        assert latency.type == "histogram"
        buckets = [s for s in latency.samples if s[0].get("le")]
        assert buckets and buckets[-1][0]["le"] == "+Inf"
        # SLO gauges ride along on the same scrape.
        assert any(name.startswith("slo_query_") for name in families)

    def test_prometheus_over_a_real_socket(
        self, random_graph_factory, small_ontology
    ):
        from repro.obs.promtext import parse_prometheus

        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(),
        )
        with serve_in_thread(service) as server:
            with ServeClient("127.0.0.1", server.port) as client:
                assert client.query(["A", "B"]).status == 200
                scrape = client.metrics(prometheus=True)
                json_form = client.metrics()
        assert scrape.status == 200
        assert scrape.payload == {}  # body is text, not JSON
        families = parse_prometheus(scrape.text)
        assert "serve_latency_seconds" in families
        assert json_form.payload["counters"]["serve.requests"] >= 1

    def test_scrape_time_volume_gauges(
        self, random_graph_factory, small_ontology, tmp_path
    ):
        access = RequestLog(str(tmp_path / "access.jsonl"))
        service = QueryService(
            EngineRuntime(
                build_index(random_graph_factory, small_ontology),
                lambda idx: boost(
                    BackwardKeywordSearch(d_max=4, k=10), idx,
                    allow_layer_zero=True,
                ).evaluator,
            ),
            access_log=access,
        )
        post(service, "/query", {"keywords": ["A", "B"]})
        _, payload, _ = service.handle("GET", "/metrics", b"", {})
        access.close()
        assert payload["gauges"]["log.access_lines"] == 1
        assert payload["gauges"]["flight.records"] == 1


class TestHealthzObservability:
    def test_slo_section_tracks_traffic(self, service):
        for _ in range(3):
            post(service, "/query", {"keywords": ["A", "B"]})
        _, payload, _ = service.handle("GET", "/healthz", b"", {})
        slo = payload["slo"]["/query"]
        assert slo["count"] == 3
        assert 0.0 <= slo["p50_seconds"] <= slo["p99_seconds"]
        assert slo["error_rate"] == 0.0
        # ... and the same numbers are mirrored as slo.* gauges.
        assert service.metrics.gauges()["slo.query.count"] == 3.0

    def test_cache_and_lifecycle_counters_surfaced(self, service):
        post(service, "/query", {"keywords": ["A", "B"]})
        post(service, "/query", {"keywords": ["A", "B"]})  # cache hit
        post(service, "/admin/mutate", {"op": "delete", "u": 0, "v": 1})
        _, payload, _ = service.handle("GET", "/healthz", b"", {})
        cache = payload["cache"]
        assert set(cache) >= {"hits", "misses", "hit_rate"}
        counters = payload["counters"]
        assert counters["snapshot.published"] >= 1
        assert counters.get("snapshot.retired", 0) >= 1
        # Noise like per-status response counters stays out of /healthz.
        assert not any(k.startswith("serve.responses") for k in counters)

    def test_zero_width_window_omits_slo(
        self, random_graph_factory, small_ontology
    ):
        service = make_service(
            build_index(random_graph_factory, small_ontology),
            ServerConfig(slo_window_seconds=0.0),
        )
        post(service, "/query", {"keywords": ["A", "B"]})
        _, payload, _ = service.handle("GET", "/healthz", b"", {})
        assert "slo" not in payload


# ----------------------------------------------------------------------
# Transport: the wire itself, over raw sockets
# ----------------------------------------------------------------------
def _read_response(sock, buffered=b"", head_only=False):
    """One HTTP response off ``sock``: ``(status, headers, body, rest)``
    with header names lower-cased; ``status`` is None if the socket
    closed first.  ``head_only`` reads the answer to a HEAD request."""
    data = buffered
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            return None, {}, b"", data
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = 0 if head_only else int(headers.get("content-length", 0))
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        rest += chunk
    return status, headers, rest[:length], rest[length:]


def _request(method, path, body=b"", headers=(), version="HTTP/1.1"):
    lines = [f"{method} {path} {version}", "Host: 127.0.0.1"]
    lines += [f"{name}: {value}" for name, value in headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _query(keywords, request_id=None, headers=()):
    extra = list(headers)
    if request_id is not None:
        extra.append(("X-Request-Id", request_id))
    body = json.dumps({"keywords": keywords}).encode()
    return _request("POST", "/query", body, extra)


class TestTransport:
    """Framing, keep-alive and limits of ``repro.serve.server``."""

    @pytest.fixture
    def live(self, service):
        with serve_in_thread(service) as server:
            yield server

    @pytest.fixture
    def connect(self, live):
        import socket

        opened = []

        def connect():
            sock = socket.create_connection(("127.0.0.1", live.port), 5)
            opened.append(sock)
            return sock

        yield connect
        for sock in opened:
            sock.close()

    @staticmethod
    def assert_closed(sock, rest=b""):
        assert rest == b"" and sock.recv(1) == b""

    def assert_error(self, sock, data, status):
        sock.sendall(data)
        got, headers, body, rest = _read_response(sock)
        assert got == status
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "error" and payload["error"]
        self.assert_closed(sock, rest)
        return payload

    def test_pipelined_requests_answer_in_order(self, connect):
        sock = connect()
        sock.sendall(
            _query(["A", "B"], "pipe-1") + _query(["A", "C"], "pipe-2")
        )
        first, headers1, body1, rest = _read_response(sock)
        second, headers2, body2, rest = _read_response(sock, rest)
        assert (first, second) == (200, 200)
        assert headers1["x-request-id"] == "pipe-1"
        assert headers2["x-request-id"] == "pipe-2"
        assert json.loads(body1)["answers"][0]["keyword_nodes"].keys() == {
            "A", "B",
        }
        assert rest == b"" and "connection" not in headers2
        # Keep-alive: the connection still serves.
        sock.sendall(_request("GET", "/healthz"))
        assert _read_response(sock)[0] == 200

    @pytest.mark.parametrize(
        "version, headers",
        [("HTTP/1.0", ()), ("HTTP/1.1", (("Connection", "close"),))],
    )
    def test_close_after_response(self, connect, version, headers):
        sock = connect()
        sock.sendall(_request("GET", "/healthz", headers=headers,
                              version=version))
        status, response_headers, body, rest = _read_response(sock)
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert response_headers["connection"] == "close"
        self.assert_closed(sock, rest)

    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1.5", ""])
    def test_bad_content_length_is_400(self, connect, length):
        head = (
            "POST /query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        payload = self.assert_error(connect(), head, 400)
        assert "Content-Length" in payload["error"]

    def test_oversized_body_is_413_unread(self, connect):
        from repro.serve.server import MAX_BODY_BYTES

        # Only the head is sent: the answer must not wait on the body.
        head = (
            "POST /query HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode()
        self.assert_error(connect(), head, 413)

    def test_long_request_line_is_414(self, connect):
        line = b"GET /" + b"a" * (64 * 1024) + b" HTTP/1.1\r\n\r\n"
        self.assert_error(connect(), line, 414)

    def test_header_limits_are_431(self, connect):
        many = "".join(f"X-H{i}: v\r\n" for i in range(101))
        self.assert_error(
            connect(), f"GET /healthz HTTP/1.1\r\n{many}\r\n".encode(), 431
        )
        long_line = "X-Long: " + "v" * (64 * 1024)
        self.assert_error(
            connect(),
            f"GET /healthz HTTP/1.1\r\n{long_line}\r\n\r\n".encode(),
            431,
        )
        # 100 header lines are still fine.
        sock = connect()
        hundred = "".join(f"X-H{i}: v\r\n" for i in range(100))
        sock.sendall(f"GET /healthz HTTP/1.1\r\n{hundred}\r\n".encode())
        assert _read_response(sock)[0] == 200

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"HELLO\r\n", 400),
            (b"GET /healthz\r\n", 400),
            (b"GET /healthz HTTP/1.1 extra\r\n\r\n", 400),
            (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
        ],
    )
    def test_malformed_request_line_is_json(self, connect, line, status):
        self.assert_error(connect(), line, status)

    def test_malformed_header_line_is_400(self, connect):
        self.assert_error(
            connect(), b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n", 400
        )

    @pytest.mark.parametrize("name", ["Content-Length ", "Content-Length\t"])
    def test_whitespace_before_the_colon_is_400(self, connect, name):
        # Read as no length, the body would be parsed as the next request.
        body = json.dumps({"keywords": ["A", "B"]}).encode()
        head = (
            "POST /query HTTP/1.1\r\nHost: x\r\n"
            f"{name}: {len(body)}\r\n\r\n"
        ).encode()
        self.assert_error(connect(), head + body, 400)

    @pytest.mark.parametrize(
        "first, second",
        [("Content-Length", "content-length"),
         ("Content-Length", "Content-Length")],
    )
    def test_conflicting_content_lengths_are_400(self, connect, first, second):
        body = json.dumps({"keywords": ["A", "B"]}).encode()
        head = (
            f"POST /query HTTP/1.1\r\nHost: x\r\n{first}: 3\r\n"
            f"{second}: {len(body)}\r\n\r\n"
        ).encode()
        payload = self.assert_error(connect(), head + body, 400)
        assert "Content-Length" in payload["error"]

    def test_repeated_equal_content_lengths_are_one(self, connect):
        body = json.dumps({"keywords": ["A", "B"]}).encode()
        sock = connect()
        sock.sendall(
            (
                "POST /query HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"content-length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        status, headers, payload, _ = _read_response(sock)
        assert status == 200 and json.loads(payload)["status"] == "ok"
        assert "connection" not in headers

    def test_expect_100_continue(self, connect):
        sock = connect()
        body = json.dumps({"keywords": ["A", "B"]}).encode()
        sock.sendall(
            (
                "POST /query HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
        )
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            interim += sock.recv(1)
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        sock.sendall(body)
        status, _, payload, _ = _read_response(sock)
        assert status == 200 and json.loads(payload)["status"] == "ok"

    def test_chunked_body_is_501(self, connect):
        body = json.dumps({"keywords": ["A", "B"]}).encode()
        chunked = (
            b"POST /query HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n"
        )
        payload = self.assert_error(connect(), chunked, 501)
        assert "Transfer-Encoding" in payload["error"]

    def test_lowercase_budget_header_degrades(self, connect):
        sock = connect()
        sock.sendall(_query(["A", "B"], headers=[("x-budget-expansions", "1")]))
        status, _, body, _ = _read_response(sock)
        assert status == 429 and json.loads(body)["status"] == "degraded"

    def test_head_announces_length_without_body(self, connect):
        sock = connect()
        sock.sendall(_request("HEAD", "/healthz") + _request("GET", "/healthz"))
        status, headers, _, rest = _read_response(sock, head_only=True)
        assert status == 405 and int(headers["content-length"]) > 0
        # No body went out: the next bytes are the GET's response.
        status, _, body, _ = _read_response(sock, rest)
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_each_response_is_one_sendall(self, live, connect):
        calls = []

        class CountingSocket:
            def __init__(self, sock):
                self._sock = sock

            def sendall(self, data, *args):
                calls.append(len(data))
                return self._sock.sendall(data, *args)

            def __getattr__(self, name):
                return getattr(self._sock, name)

        accept = live.get_request
        live.get_request = lambda: (
            lambda pair: (CountingSocket(pair[0]), pair[1])
        )(accept())
        sock = connect()
        requests = [
            _query(["A", "B"]),
            _request("GET", "/healthz"),
            _request("GET", "/metrics"),
            _request("GET", "/nowhere"),
        ]
        sock.sendall(b"".join(requests))
        rest = b""
        for _ in requests:
            status, headers, body, rest = _read_response(sock, rest)
            assert status is not None
        assert len(calls) == len(requests)

    def test_bodies_equal_the_service_encoding(self, live, connect, service):
        answered = []
        handle = service.handle

        def recording(method, path, body, headers):
            response = handle(method, path, body, headers)
            answered.append(response)
            return response

        service.handle = recording
        sock = connect()
        requests = [
            _query(["A", "B"]),
            _query(["A", "B"]),  # a result-cache hit: spliced answers
            _request(
                "POST", "/query",
                json.dumps({"keywords": ["A", "B"], "k": 5}).encode(),
            ),
            _query(["A", "B"], headers=[("X-Budget-Expansions", "1")]),
            _request(
                "POST", "/batch",
                json.dumps({"queries": [["A", "B"], ["B", "C"]]}).encode(),
            ),
            _request(
                "POST", "/batch",
                json.dumps({"queries": [["A", "B"], ["A", "B"]]}).encode(),
            ),
            _request("GET", "/healthz"),
            _request("GET", "/metrics"),
            _request("PUT", "/query"),
            _request("GET", "/nowhere"),
        ]
        sock.sendall(b"".join(requests))
        rest = b""
        for index in range(len(requests)):
            status, headers, body, rest = _read_response(sock, rest)
            expected_status, payload, extra = answered[index]
            assert status == expected_status
            assert body == json.dumps(
                payload, sort_keys=True, allow_nan=False
            ).encode("utf-8")
            assert headers["x-request-id"] == extra["X-Request-Id"]
        # The hits served one encoding: the /query hit's and the repeated
        # /batch entries' answers are the same object.
        hit = answered[1][1]["answers"]
        assert hit and hit is not answered[0][1]["answers"]
        assert all(
            entry["answers"] is hit for entry in answered[5][1]["results"]
        )
