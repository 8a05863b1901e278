"""Exposition: Prometheus-text and JSON renderers over metrics snapshots.

Turns a :class:`~repro.service.metrics.MetricsSnapshot` (duck-typed — this
module deliberately imports nothing from :mod:`repro.service`, so the
dependency arrow stays service → obs) into the two formats operators
actually scrape:

* :func:`render_prometheus` — the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket{le=...}`` histogram rows at
  the octave bounds of :class:`~repro.obs.quantiles.LatencyHistogram`), one
  metric family per fleet counter **including** ``stale_served`` and the
  anomaly totals, plus per-network gauge/counter breakdowns;
* :func:`render_metrics_json` — the same data as sorted-key JSON for
  dashboards and tests.

:func:`phase_breakdown` is the aggregation half: fold finished span
dicts into per-phase latency summaries (count / mean / p50 / p95 / p99 /
max / total seconds), which is what the bench harnesses embed into
``BENCH_verify.json`` / ``BENCH_service.json`` so "where did the time
go?" has a recorded answer instead of a guess.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Mapping

from .quantiles import LatencyHistogram, summarize_samples

__all__ = [
    "phase_breakdown",
    "render_metrics_json",
    "render_prometheus",
]

_PREFIX = "repro"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(value)


class _Lines:
    """Accumulates exposition lines with one-shot TYPE headers."""

    def __init__(self) -> None:
        self.out: list[str] = []
        self._typed: set[str] = set()

    def add(
        self,
        name: str,
        kind: str,
        value: float,
        labels: Mapping[str, str] | None = None,
        help_text: str | None = None,
    ) -> None:
        if name not in self._typed:
            self._typed.add(name)
            if help_text:
                self.out.append(f"# HELP {name} {help_text}")
            self.out.append(f"# TYPE {name} {kind}")
        if labels:
            body = ",".join(
                f'{k}="{_escape_label(str(v))}"'
                for k, v in sorted(labels.items())
            )
            self.out.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.out.append(f"{name} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.out) + "\n"


def _histogram(
    lines: _Lines, name: str, hist: LatencyHistogram, labels=None
) -> None:
    """Emit ``_bucket``/``_sum``/``_count`` rows for a latency histogram."""
    for bound, cumulative in hist.bucket_rows():
        le = "+Inf" if bound == math.inf else repr(bound)
        merged = dict(labels or {})
        merged["le"] = le
        lines.add(f"{name}_bucket", "histogram", cumulative, merged)
    lines.add(f"{name}_sum", "histogram", hist.total, labels)
    lines.add(f"{name}_count", "histogram", hist.count, labels)


def render_prometheus(snapshot, *, anomalies: Mapping[str, int] | None = None) -> str:
    """The Prometheus text exposition of a metrics snapshot.

    *anomalies* (kind -> count) overrides ``snapshot.anomalies`` when
    given; both absent means no anomaly family is emitted.
    """
    lines = _Lines()
    totals = dict(snapshot.totals)
    for counter in sorted(totals):
        lines.add(
            f"{_PREFIX}_{counter}_total",
            "counter",
            totals[counter],
            help_text=f"Fleet-wide {counter.replace('_', ' ')} count.",
        )
    for net in snapshot.networks:
        labels = {"network": net.name}
        lines.add(f"{_PREFIX}_network_pending", "gauge", net.pending, labels)
        lines.add(f"{_PREFIX}_network_faults_now", "gauge", net.faults_now, labels)
        lines.add(
            f"{_PREFIX}_network_pipeline_length",
            "gauge",
            net.pipeline_length,
            labels,
        )
        lines.add(
            f"{_PREFIX}_network_paused", "gauge", int(net.paused), labels
        )
        for counter in sorted(net.counters):
            lines.add(
                f"{_PREFIX}_network_{counter}_total",
                "counter",
                net.counters[counter],
                labels,
            )
    cache = snapshot.cache
    for field in (
        "size",
        "capacity",
        "hits",
        "misses",
        "stores",
        "evictions",
        "invalid",
    ):
        kind = "gauge" if field in ("size", "capacity") else "counter"
        suffix = "" if kind == "gauge" else "_total"
        lines.add(
            f"{_PREFIX}_cache_{field}{suffix}", kind, getattr(cache, field)
        )
    store = getattr(snapshot, "store", None)
    if store is not None:
        lines.add(f"{_PREFIX}_store_rows", "gauge", store.rows)
        lines.add(
            f"{_PREFIX}_store_write_behind_depth",
            "gauge",
            store.write_behind_depth,
        )
        for field in (
            "persist_hits",
            "persist_misses",
            "warm_loaded",
            "writes",
            "write_errors",
            "validation_failures",
            "torn_rows",
            "encode_skips",
            "invalidated",
        ):
            lines.add(
                f"{_PREFIX}_store_{field}_total",
                "counter",
                getattr(store, field, 0),
            )
    merged_anomalies = anomalies
    if merged_anomalies is None:
        merged_anomalies = getattr(snapshot, "anomalies", None)
    if merged_anomalies is not None:
        for kind in sorted(merged_anomalies):
            lines.add(
                f"{_PREFIX}_anomalies_total",
                "counter",
                merged_anomalies[kind],
                {"kind": kind},
                help_text="Flight-recorder anomaly count by kind.",
            )
    _histogram(lines, f"{_PREFIX}_event_latency_seconds", snapshot.latency)
    for net in snapshot.networks:
        _histogram(
            lines,
            f"{_PREFIX}_network_event_latency_seconds",
            net.latency,
            {"network": net.name},
        )
    return lines.text()


def render_metrics_json(
    snapshot, *, anomalies: Mapping[str, int] | None = None, indent: int | None = 2
) -> str:
    """Sorted-key JSON rendering of a snapshot (plus anomaly totals)."""
    payload = snapshot.as_dict()
    merged = anomalies
    if merged is None:
        merged = getattr(snapshot, "anomalies", None)
    if merged is not None:
        payload["anomalies"] = dict(merged)
    return json.dumps(payload, indent=indent, sort_keys=True)


def phase_breakdown(spans: Iterable[Mapping]) -> dict[str, dict]:
    """Fold finished span dicts into per-phase latency summaries.

    Keys are span names; each value is the JSON summary of a
    :class:`~repro.obs.quantiles.LatencyHistogram` over the spans'
    durations, plus the raw total.  Sorted by name so serialized output
    is deterministic.
    """
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span.get("name", "?"), []).append(
            float(span.get("duration_s", 0.0))
        )
    out: dict[str, dict] = {}
    for name in sorted(durations):
        h = summarize_samples(durations[name])
        row = h.as_dict()
        row["total"] = h.total
        out[name] = row
    return out
