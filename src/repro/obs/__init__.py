"""Observability: causal tracing, flight recording and exposition.

Dependency-free (stdlib only) and imported *by* the service/core layers,
never the other way round.  Four pieces:

* :mod:`repro.obs.spans` — :class:`Tracer` / :class:`Span` /
  :class:`SpanContext` causal spans with a thread-local active-span
  stack (:func:`child_span` / :func:`annotate`) and a zero-cost
  :data:`NOOP_TRACER` default;
* :mod:`repro.obs.recorder` — the :class:`FlightRecorder` bounded span
  ring that freezes JSON dumps on anomalies (shed, validation failure,
  torn store row, lock-order violation);
* :mod:`repro.obs.quantiles` — :class:`LatencyHistogram`, the one
  latency summary (log-linear buckets, streaming p50/p95/p99 at most
  1/16 above the exact sample quantile);
* :mod:`repro.obs.exposition` / :mod:`repro.obs.http` — Prometheus-text
  and JSON renderers plus the stdlib HTTP endpoint behind
  ``python -m repro serve --metrics-port N``.

``python -m repro trace`` (in :mod:`repro.obs.cli`) reads the trace
files the serve/demo paths write and renders per-trace waterfalls.
"""

from .exposition import phase_breakdown, render_metrics_json, render_prometheus
from .http import MetricsServer
from .quantiles import (
    BUCKET_BOUNDS,
    LatencyHistogram,
    summarize_samples,
)
from .recorder import ANOMALY_KINDS, FlightRecorder
from .spans import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanContext,
    Tracer,
    annotate,
    child_span,
    current_context,
    current_span,
    current_tracer,
    iter_traces,
    make_span_dict,
)

__all__ = [
    "ANOMALY_KINDS",
    "BUCKET_BOUNDS",
    "FlightRecorder",
    "LatencyHistogram",
    "MetricsServer",
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "annotate",
    "child_span",
    "current_context",
    "current_span",
    "current_tracer",
    "iter_traces",
    "make_span_dict",
    "phase_breakdown",
    "render_metrics_json",
    "render_prometheus",
    "summarize_samples",
]
