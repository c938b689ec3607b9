"""Observability substrate: tracing, metrics, structured request logs.

The telemetry layer every serving component reports through:

* :mod:`repro.obs.tracing` — request-scoped spans (trace id, nested stack,
  wall/CPU time, attributes) with an ambient entry point
  (:func:`~repro.obs.tracing.span`, one ``ContextVar`` read without a
  trace) used by the service façade, the batch executor and the
  shared-lattice profiler.
* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket histograms
  in a :class:`~repro.obs.metrics.MetricsRegistry`, rendered in Prometheus
  text format by the serving layer's ``GET /metrics`` endpoint.
* :mod:`repro.obs.logs` — one schema-pinned JSON line per request with a
  slow-query threshold (``repro-dp serve --log-json --slow-ms``).

See ``docs/observability.md`` for the span taxonomy, metric catalogue and
log schema.
"""

from repro.obs.logs import LOG_SCHEMA, RequestLogger, validate_log_line
from repro.obs.metrics import (
    DEFAULT_IO_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer, current_span, span

__all__ = [
    "LOG_SCHEMA",
    "RequestLogger",
    "validate_log_line",
    "DEFAULT_IO_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_span",
    "span",
]
