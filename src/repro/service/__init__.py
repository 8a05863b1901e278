"""Fleet reconfiguration control plane.

The paper proves a fault-tolerant pipeline network can always be
re-embedded after ``<= k`` faults; this subpackage is the *operational*
layer that does it at fleet scale: a long-running service managing many
networks concurrently, reacting to fault/repair streams, memoizing
witnesses, shedding load deliberately and reporting what it did.

* :mod:`repro.service.control` — the :class:`ControlPlane` itself:
  registry, worker pool with per-network serialization, admission control
  and deadline-driven fast-path degradation;
* :mod:`repro.service.cache` — the witness cache's accounting;
* :mod:`repro.service.canonical` — structural fingerprints, fault-set
  keys and the store's row serialization;
* :mod:`repro.service.metrics` — per-event records and the
  health/metrics snapshot;
* :mod:`repro.service.store` — the persistent (SQLite) witness tier;
* :mod:`repro.service.tiering` — the witness cache: an LRU of validated
  pipelines keyed by fault set, writing behind to the store and warm
  starting from it;
* :mod:`repro.service.mailbox` — the per-network actor mailbox and the
  atomic counters behind the plane's lock-free read paths;
* :mod:`repro.service.loadgen` — the open-loop load harness behind
  ``python -m repro bench --service`` (``BENCH_service.json``);
* :mod:`repro.service.trace` — scripted/randomized trace drivers and the
  ``python -m repro serve`` demo fleet.

One in-process :class:`ControlPlane` is the whole deployment: a
multi-process sharded plane measured slower than it on two CPUs, because
each event's work is smaller than a pickled pipe round trip
(``docs/service.md``).
"""

from ..obs.quantiles import LatencyHistogram
from .cache import CacheStats
from .canonical import Canonicalizer, network_fingerprint, plain_fault_key
from .control import (
    ControlPlane,
    ControlPlaneConfig,
    ManagedNetwork,
    PipelineAnswer,
)
from .loadgen import (
    format_service_table,
    run_service_bench,
    service_smoke_regressions,
)
from .mailbox import AtomicCounters, Mailbox
from .metrics import EventRecord, MetricsSnapshot, NetworkStats
from .store import StoreStats, WitnessStore
from .tiering import TieredWitnessCache, WriteBehindWriter
from .trace import (
    TraceEvent,
    TraceReport,
    demo_plane,
    demo_ring_network,
    random_trace,
    run_demo,
    run_trace,
    warmup_trace,
)

__all__ = [
    "ControlPlane",
    "ControlPlaneConfig",
    "ManagedNetwork",
    "Mailbox",
    "AtomicCounters",
    "PipelineAnswer",
    "CacheStats",
    "Canonicalizer",
    "network_fingerprint",
    "plain_fault_key",
    "EventRecord",
    "LatencyHistogram",
    "MetricsSnapshot",
    "NetworkStats",
    "WitnessStore",
    "StoreStats",
    "TieredWitnessCache",
    "WriteBehindWriter",
    "run_service_bench",
    "format_service_table",
    "service_smoke_regressions",
    "TraceEvent",
    "TraceReport",
    "demo_plane",
    "demo_ring_network",
    "random_trace",
    "run_demo",
    "run_trace",
    "warmup_trace",
]
