"""Observability: span tracing, metrics, and the EXPLAIN surface.

Zero-overhead-when-disabled instrumentation for the whole query and
build path.  See docs/OBSERVABILITY.md for the span taxonomy and metric
name reference.
"""

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.flight": ("FlightRecorder",),
    "repro.obs.metrics": ("MetricsRegistry", "NullMetrics", "NULL_METRICS"),
    "repro.obs.promtext": ("render_prometheus", "parse_prometheus"),
    "repro.obs.reqlog": ("RequestLog", "SloWindow", "mint_request_id"),
    "repro.obs.runtime": (
        "OBS", "Instrumentation", "instrumented", "charge_expansions",
    ),
    "repro.obs.tracer": (
        "Tracer", "NullTracer", "Span", "NULL_TRACER", "write_trace",
    ),
})
