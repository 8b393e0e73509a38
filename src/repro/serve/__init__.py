"""`repro-bigindex serve`: a concurrent query server over the warm evaluator.

The package splits the server into the layers a production keyword-search
service grows (the app/runtime/engine shape):

* :mod:`repro.serve.lifecycle` — the **runtime**: copy-on-write snapshot
  isolation.  Queries pin immutable snapshots by refcount; mutations
  clone only the touched structures, optionally append to the durable
  mutation WAL (:mod:`repro.core.wal`), and publish with a pointer swap
  — readers never block on a mutation, and superseded snapshots retire
  when their last pin releases.
* :mod:`repro.serve.admission` — admission control: a global in-flight
  request cap and an in-flight *expansion reservation* ledger; requests
  the server cannot afford are shed before any work happens.
* :mod:`repro.serve.service` — the transport-independent **app**: JSON
  request/response contract for ``/query``, ``/batch``, ``/metrics``,
  ``/healthz`` and the admin endpoints, per-request
  :class:`~repro.utils.budget.Budget` from headers, the
  ``DegradedResult``/exit-3 contract mapped onto HTTP 429/503, and the
  drain discipline behind graceful shutdown.
* :mod:`repro.serve.server` — the HTTP/1.1 transport: a
  ``ThreadingTCPServer`` whose keep-alive loop parses each request head
  by hand and writes each response in one ``sendall``, helpers to run
  it on a background thread,
  and :func:`~repro.serve.server.shutdown_gracefully` (drain, stop,
  fsync the WAL) backing the CLI's SIGTERM/SIGINT path.
* :mod:`repro.serve.client` — a tiny stdlib client with capped
  exponential-backoff retry on sheds, used by the tests, the
  ``serve.qps`` bench entry, the fuzzer's ``--serve`` leg and CI.

See ``docs/SERVING.md`` for the wire contract and the snapshot
lifecycle; ``docs/ROBUSTNESS.md`` for durability and crash recovery.
"""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.admission": ("AdmissionController", "ShedError"),
    "repro.serve.client": ("ServeClient", "ServeResponse"),
    "repro.serve.lifecycle": ("EngineRuntime", "Snapshot"),
    "repro.serve.server": (
        "QueryServer", "serve_in_thread", "shutdown_gracefully", "start_server",
    ),
    "repro.serve.service": ("QueryService", "ServerConfig"),
})
