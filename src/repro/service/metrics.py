"""Observability for the control plane: per-event records and snapshots.

Every event the control plane processes — fault, repair, query — emits one
immutable :class:`EventRecord` carrying what an operator needs to explain
a latency spike after the fact: which solve path ran (``cache`` /
``full`` / ``fast`` / ``none``), whether the witness cache
hit, how much of the pipeline moved, and whether the answer was served
degraded.  Records land in a bounded ring (old traffic ages out; the
counters keep the totals).

:class:`MetricsSnapshot` is the health report: per-network gauges and
counters, witness-cache accounting, fleet and per-network latency as
:class:`~repro.obs.quantiles.LatencyHistogram` values (the same
histogram the Prometheus ``_bucket`` rows and the BENCH files read) and
the recent record ring, with a human-readable :meth:`~MetricsSnapshot.summary`
used by ``python -m repro serve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping

from ..obs.quantiles import LatencyHistogram
from .cache import CacheStats
from .store import StoreStats

Node = Hashable

#: Counter names tracked per managed network (and summed fleet-wide).
COUNTER_NAMES = (
    "faults",
    "repairs",
    "queries",
    "cache_hits",
    "cache_misses",
    "shed",
    "degraded_served",
    "stale_served",
    "fast_path",
    "errors",
)


@dataclass(frozen=True)
class EventRecord:
    """One processed control-plane event."""

    seq: int
    network: str
    kind: str                 # "fault" | "repair" | "query"
    node: Node | None
    latency: float            # seconds, admission to answer
    solver: str               # "cache" | "fast" | "full" | "none"
    cache_hit: bool
    degraded: bool
    moved: int
    kept: int
    pipeline_length: int
    healthy_processors: int

    @property
    def churn(self) -> float:
        total = self.moved + self.kept
        return self.moved / total if total else 0.0


@dataclass(frozen=True)
class NetworkStats:
    """Point-in-time view of one managed network."""

    name: str
    n: int
    k: int
    construction: str
    faults_now: int
    pending: int
    paused: bool
    pipeline_length: int
    counters: Mapping[str, int]
    latency: LatencyHistogram
    total_moved: int
    mean_churn: float


@dataclass(frozen=True)
class MetricsSnapshot:
    """The control plane's health/metrics report."""

    networks: tuple[NetworkStats, ...]
    cache: CacheStats
    totals: Mapping[str, int]
    latency: LatencyHistogram
    records: tuple[EventRecord, ...] = field(default=(), repr=False)
    #: persistent witness-tier accounting (``None`` without a store).
    store: StoreStats | None = None
    #: flight-recorder anomaly totals by kind (``None`` without a recorder).
    anomalies: Mapping[str, int] | None = None

    @property
    def events(self) -> int:
        return self.totals.get("faults", 0) + self.totals.get("repairs", 0)

    def as_dict(self) -> dict:
        """A JSON-friendly rendering (records elided to their count)."""
        return {
            "networks": {
                s.name: {
                    "n": s.n,
                    "k": s.k,
                    "construction": s.construction,
                    "faults_now": s.faults_now,
                    "pending": s.pending,
                    "paused": s.paused,
                    "pipeline_length": s.pipeline_length,
                    "counters": dict(s.counters),
                    "latency_mean": s.latency.mean,
                    "latency_max": s.latency.max,
                    "latency_p95": s.latency.p95,
                    "total_moved": s.total_moved,
                    "mean_churn": s.mean_churn,
                }
                for s in self.networks
            },
            "cache": {
                "size": self.cache.size,
                "capacity": self.cache.capacity,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "stores": self.cache.stores,
                "evictions": self.cache.evictions,
                "invalid": self.cache.invalid,
                "hit_rate": self.cache.hit_rate,
            },
            "store": (
                None
                if self.store is None
                else {
                    "path": self.store.path,
                    "rows": self.store.rows,
                    "persist_hits": self.store.persist_hits,
                    "persist_misses": self.store.persist_misses,
                    "warm_loaded": self.store.warm_loaded,
                    "writes": self.store.writes,
                    "write_errors": self.store.write_errors,
                    "write_behind_depth": self.store.write_behind_depth,
                    "validation_failures": self.store.validation_failures,
                    "torn_rows": self.store.torn_rows,
                    "encode_skips": self.store.encode_skips,
                    "invalidated": self.store.invalidated,
                    "hit_rate": self.store.hit_rate,
                }
            ),
            "totals": dict(self.totals),
            "latency": self.latency.as_dict(),
            "anomalies": (
                None if self.anomalies is None else dict(self.anomalies)
            ),
            "recent_records": len(self.records),
        }

    def summary(self) -> str:
        """Human-readable multi-line report."""
        t = self.totals
        lines = [
            "control plane snapshot",
            f"  networks: {len(self.networks)}   events: {self.events} "
            f"(faults {t.get('faults', 0)}, repairs {t.get('repairs', 0)}, "
            f"queries {t.get('queries', 0)})",
            f"  witness cache: {self.cache.hits} hits / {self.cache.misses} misses "
            f"(rate {self.cache.hit_rate:.0%}), {self.cache.size}/{self.cache.capacity} rows, "
            f"{self.cache.evictions} evicted, {self.cache.invalid} invalidated",
            f"  degradation: {t.get('shed', 0)} shed, "
            f"{t.get('degraded_served', 0)} degraded answers "
            f"({t.get('stale_served', 0)} with outstanding faults), "
            f"{t.get('fast_path', 0)} fast-path solves, {t.get('errors', 0)} errors",
            f"  latency: mean {self.latency.mean * 1e3:.2f} ms, "
            f"p95 {self.latency.p95 * 1e3:.2f} ms, "
            f"max {self.latency.max * 1e3:.2f} ms over {self.latency.count} events",
        ]
        if self.anomalies is not None:
            a = self.anomalies
            lines.append(
                f"  anomalies: {sum(a.values())} total "
                f"(shed {a.get('shed', 0)}, "
                f"validation failures {a.get('validation_failure', 0)}, "
                f"torn rows {a.get('torn_row', 0)}, "
                f"lock order {a.get('lock_order', 0)}, "
                f"errors {a.get('error', 0)})"
            )
        if self.store is not None:
            s = self.store
            lines.insert(
                3,
                f"  witness store: {s.rows} rows at {s.path}, "
                f"{s.persist_hits} hits / {s.persist_misses} misses, "
                f"{s.warm_loaded} warm-loaded, {s.writes} written "
                f"(depth {s.write_behind_depth}), "
                f"{s.validation_failures} validation failures, "
                f"{s.torn_rows} torn rows",
            )
        for s in self.networks:
            c = s.counters
            lines.append(
                f"  - {s.name}: G({s.n},{s.k}) [{s.construction}] "
                f"faults={s.faults_now} len={s.pipeline_length} "
                f"pend={s.pending}{' PAUSED' if s.paused else ''} | "
                f"f/r/q {c.get('faults', 0)}/{c.get('repairs', 0)}/{c.get('queries', 0)}, "
                f"hits {c.get('cache_hits', 0)}, churn {s.mean_churn:.2f}, "
                f"lat {s.latency.mean * 1e3:.2f}ms"
            )
        return "\n".join(lines)
