"""The fleet reconfiguration control plane.

One :class:`ControlPlane` manages many named
:class:`~repro.core.model.PipelineNetwork` instances, each wrapped in a
:class:`~repro.core.session.ReconfigurationSession`.  Fault and repair
events are ingested through ``submit_fault`` / ``submit_repair`` (returning
futures) and dispatched to a shared :class:`concurrent.futures`
worker pool; ``query_pipeline`` answers synchronously.

Design points:

**Per-network serialization, cross-network parallelism.**  Each managed
network owns a single-consumer actor :class:`~repro.service.mailbox.Mailbox`
drained by at most one worker at a time: events for one network apply
strictly in submission order, while different networks reconfigure
concurrently on the pool.  The mailbox's leaf lock is the only lock on
the event path; everything else a network owns (session, policies, EWMA,
latency history) belongs exclusively to the active drain worker, and
queries read immutable atomically-published snapshots without locking
(the ``*_published`` convention — see :mod:`repro.service.mailbox`).

**Witness caching.**  Before solving, the target fault set is
canonicalized (:mod:`repro.service.canonical`) and looked up in the
:class:`~repro.service.cache.WitnessCache`; a hit is mapped back and
handed to the session, whose one ``is_pipeline`` check decides whether it
is adopted without invoking any solver.  A row the session rejects is
dropped, flagged as a ``validation_failure`` anomaly and handled as a
miss.  Rows are keyed by structural fingerprint, so
replicas of the same deterministic build share entries, and — for
symmetric networks such as vertex-transitive circulants — whole
automorphism orbits of fault patterns collapse onto single rows.

**Admission control and graceful degradation.**  Each network's backlog is
bounded (``max_pending``); overflow events are shed with
:class:`~repro.errors.ServiceOverloadError` rather than buffered without
bound.  Queries are never shed: under backlog they answer immediately from
the last-known-good pipeline with ``degraded=True`` instead of blocking on
a fresh solve.  When a network's recent solve cost (EWMA) exceeds the
configured ``deadline``, subsequent solves run under the trimmed
:func:`~repro.core.reconfigure.fast_solve_policy` — the
construction-specific fast path with a capped portfolio fallback.

**Observability.**  Every event emits an
:class:`~repro.service.metrics.EventRecord`; :meth:`ControlPlane.snapshot`
reports per-network gauges, counters, cache accounting and latency stats.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Hashable, Iterator

from ..core.constructions import build
from ..core.hamilton import SolvePolicy
from ..core.model import PipelineNetwork
from ..core.pipeline import Pipeline
from ..core.reconfigure import fast_solve_policy
from ..core.session import ChurnRecord, ReconfigurationSession
from ..errors import ReproError, ServiceOverloadError
from ..obs.quantiles import LatencyHistogram
from ..obs.recorder import FlightRecorder
from ..obs.spans import NOOP_TRACER, Tracer
from .cache import WitnessCache
from .canonical import Canonicalizer, network_fingerprint
from .mailbox import AtomicCounters, Mailbox
from .metrics import (
    COUNTER_NAMES,
    EventRecord,
    MetricsSnapshot,
    NetworkStats,
)

Node = Hashable


#: recent event records kept for the snapshot (the counters keep totals).
RECORD_RING = 1024
#: weight of the newest solve in a network's solve-cost EWMA.
EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class ControlPlaneConfig:
    """Operational knobs for the control plane.

    ``deadline`` is the solve-latency budget in seconds: once a network's
    EWMA solve cost exceeds it, later solves use the trimmed fast-path
    policy (``None`` disables; ``0.0`` forces the fast path after the
    first measured solve).  Symmetry detection, the write-behind queue
    and warm start run with the defaults of
    :class:`~repro.service.canonical.Canonicalizer` and
    :class:`~repro.service.tiering.TieredWitnessCache`.
    """

    workers: int = 4
    max_pending: int = 64
    deadline: float | None = None
    cache_capacity: int = 256
    #: path of the persistent witness store (SQLite); ``None`` keeps the
    #: cache purely in-memory.  The plane owns (and closes) a store it
    #: opened itself.
    store_path: str | None = None
    store_max_rows: int | None = None
    #: enable causal tracing: every event/query gets a span tree and a
    #: flight recorder captures recent spans + anomaly dumps.  Off by
    #: default — the no-op tracer costs nothing on the event path.
    tracing: bool = False
    #: where the flight recorder writes anomaly dump files (``None`` =
    #: in-memory dumps only).
    trace_dump_dir: str | None = None
    #: bounded ring of finished spans kept by the tracer.
    trace_ring: int = 8192


@dataclass(frozen=True)
class PipelineAnswer:
    """A ``query_pipeline`` response.

    ``degraded=True`` means the answer is the last-known-good pipeline —
    valid for ``faults`` (the fault set it was solved under) but possibly
    stale with respect to events still queued behind it.  The explicit
    degradation metadata says *how* stale: ``faults_outstanding`` are
    nodes whose admitted fault events are not yet reflected in this
    answer (the served pipeline may still route through them), and
    ``omitted`` are processors believed healthy per the admitted event
    ledger that the served pipeline nevertheless leaves out (e.g. a
    repair still queued behind the answer).  Both are empty whenever the
    answer is fresh.
    """

    network: str
    pipeline: Pipeline
    faults: frozenset
    degraded: bool
    pending: int
    faults_outstanding: frozenset = frozenset()
    omitted: frozenset = frozenset()

    @property
    def stale(self) -> bool:
        """True when the answer does not yet reflect every admitted event."""
        return bool(self.faults_outstanding or self.omitted)


@dataclass
class _PendingEvent:
    kind: str                    # "fault" | "repair"
    node: Node
    future: Future
    enqueued_at: float
    #: the root causal span for this event (the shared no-op span when
    #: tracing is disabled); finished by the drain worker.
    span: object = None


@dataclass(frozen=True)
class PublishedState:
    """The atomically-published per-network answer snapshot.

    Rebound as one immutable value by the drain worker after every
    applied event, so lock-free readers (queries, :meth:`ControlPlane.
    snapshot`) always see a mutually consistent pipeline / fault set /
    churn-accounting tuple — never a pipeline from one event paired with
    churn totals from the next.
    """

    pipeline: Pipeline
    faults: frozenset
    total_moved: int = 0
    mean_churn: float = 0.0


class ManagedNetwork:
    """Registry entry: one network, its session, mailbox and accounting.

    The actor model's ownership rules:

    * ``mailbox`` — the only shared mutable structure (its own leaf lock);
    * ``counters`` — leaf-locked monotonic counters, bumped from any thread;
    * ``session`` / ``ewma`` — exclusive to the single active drain worker
      (the mailbox claim guarantees at most one);
    * ``answer_published`` / ``latency_published`` — immutable snapshots
      rebound by the drain worker, read lock-free by queries and metrics.
    """

    def __init__(
        self,
        name: str,
        network: PipelineNetwork,
        policy: SolvePolicy | None,
        config: ControlPlaneConfig,
    ) -> None:
        self.name = name
        self.network = network
        self.full_policy = policy or SolvePolicy()
        self.fast_policy = fast_solve_policy(network, self.full_policy)
        self.session = ReconfigurationSession(network, self.full_policy)
        self.fingerprint = network_fingerprint(network)
        self.canon = Canonicalizer(network)
        self.mailbox = Mailbox(config.max_pending)
        self.answer_published = PublishedState(
            self.session.pipeline, frozenset()
        )
        self.counters = AtomicCounters(COUNTER_NAMES)
        self.latency_published = LatencyHistogram()
        self.ewma: float | None = None

    @property
    def construction(self) -> str:
        return self.network.meta.get("construction", "custom")


class ControlPlane:
    """A concurrent fleet service for pipeline reconfiguration.

    >>> plane = ControlPlane()
    >>> _ = plane.register("edge-a", n=6, k=2)
    >>> record = plane.submit_fault("edge-a", "p1").result()
    >>> record.kind, record.pipeline_length
    ('fault', 7)
    >>> plane.query_pipeline("edge-a").degraded
    False
    >>> plane.close()
    """

    def __init__(
        self,
        config: ControlPlaneConfig | None = None,
        *,
        cache: WitnessCache | None = None,
        tracer: Tracer | None = None,
        recorder: FlightRecorder | None = None,
    ) -> None:
        self.config = config or ControlPlaneConfig()
        self._owns_cache = cache is None
        if tracer is not None:
            # caller-owned tracer: adopt its recorder unless one was given
            if recorder is None:
                recorder = tracer.recorder
        elif self.config.tracing or self.config.trace_dump_dir:
            if recorder is None:
                recorder = FlightRecorder(dump_dir=self.config.trace_dump_dir)
            tracer = Tracer(ring=self.config.trace_ring, recorder=recorder)
        else:
            tracer = NOOP_TRACER
        self.tracer = tracer
        self.recorder = recorder
        if cache is None:
            if self.config.store_path is not None:
                # lazy import: tiering pulls in sqlite3-backed storage
                # that pure in-memory planes never need
                from .store import WitnessStore
                from .tiering import TieredWitnessCache

                cache = TieredWitnessCache(
                    self.config.cache_capacity,
                    WitnessStore(
                        self.config.store_path,
                        max_rows=self.config.store_max_rows,
                    ),
                )
            else:
                cache = WitnessCache(self.config.cache_capacity)
        self.cache = cache
        if self.recorder is not None:
            store = getattr(cache, "persistent", None)
            if store is not None and hasattr(store, "set_torn_row_callback"):
                recorder_ref = self.recorder

                def _on_torn(fingerprint: str, encoded_key: str) -> None:
                    recorder_ref.note_anomaly(
                        "torn_row",
                        f"undecodable persisted row {encoded_key!r}",
                        extra={"fingerprint": fingerprint},
                    )

                store.set_torn_row_callback(_on_torn)
        self._managed: dict[str, ManagedNetwork] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-cp"
        )
        self._lock = threading.Lock()
        self._seq = 0
        self._records: deque[EventRecord] = deque(maxlen=RECORD_RING)
        self._latency = LatencyHistogram()
        self._closed = False

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        network: PipelineNetwork | None = None,
        *,
        n: int | None = None,
        k: int | None = None,
        policy: SolvePolicy | None = None,
    ) -> ManagedNetwork:
        """Add a network to the fleet, either an existing instance or a
        factory build for ``(n, k)``.  The initial (fault-free) pipeline is
        solved synchronously and seeded into the witness cache; when a
        persistent witness tier is attached, the newest stored rows for
        the network's structural fingerprint that survive live
        ``is_pipeline`` re-validation are batch-loaded into the in-memory
        LRU (warm start)."""
        if self._closed:
            raise ReproError("control plane is closed")
        if name in self._managed:
            raise ReproError(f"network {name!r} is already registered")
        if (network is None) == (n is None or k is None):
            raise ReproError("pass either a network instance or both n and k")
        if network is None:
            network = build(n, k)  # type: ignore[arg-type]
        managed = ManagedNetwork(name, network, policy, self.config)
        self.cache.warm_start(network, managed.fingerprint)
        key, sigma = managed.canon.canonical(frozenset())
        self.cache.store(
            managed.fingerprint,
            key,
            Canonicalizer.map_forward(managed.session.pipeline.nodes, sigma),
        )
        with self._lock:
            if name in self._managed:
                raise ReproError(f"network {name!r} is already registered")
            self._managed[name] = managed
        return managed

    def managed(self, name: str) -> ManagedNetwork:
        """The registry entry for *name* (raises ``KeyError`` if absent)."""
        return self._managed[name]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._managed)

    def __iter__(self) -> Iterator[ManagedNetwork]:
        return iter(self._managed.values())

    def __len__(self) -> int:
        return len(self._managed)

    # ------------------------------------------------------------------
    # event ingestion
    # ------------------------------------------------------------------
    def submit_fault(self, name: str, node: Node) -> "Future[EventRecord]":
        """Enqueue a fault event; resolves to its :class:`EventRecord`."""
        return self._submit(name, "fault", node)

    def submit_repair(self, name: str, node: Node) -> "Future[EventRecord]":
        """Enqueue a repair event; resolves to its :class:`EventRecord`."""
        return self._submit(name, "repair", node)

    def _submit(self, name: str, kind: str, node: Node) -> "Future[EventRecord]":
        with self._lock:
            if self._closed:
                raise ReproError("control plane is closed")
        m = self._managed[name]
        future: Future = Future()
        # the root causal span: admission to resolved future.  Created
        # with no parent so each event roots its own trace.
        root = self.tracer.start_span(
            "event", kind=kind, network=name, node=repr(node)
        )
        event = _PendingEvent(kind, node, future, time.perf_counter(), root)
        admitted, schedule = m.mailbox.offer(event)
        if not admitted:
            m.counters.bump("shed")
            # anomaly + span finish happen outside any mailbox lock, so
            # the recorder/tracer locks stay leaves in the order graph
            self.tracer.finish(root, status="shed")
            if self.recorder is not None:
                self.recorder.note_anomaly(
                    "shed",
                    f"pending queue full ({self.config.max_pending} events)",
                    network=name,
                    extra={"kind": kind, "node": repr(node)},
                )
            raise ServiceOverloadError(
                f"network {name!r}: pending queue full "
                f"({self.config.max_pending} events); event shed"
            )
        if schedule:
            try:
                self._executor.submit(self._drain, m)
            except RuntimeError:
                # the pool shut down between the closed check and here
                # (close raced the submit); un-admit the event instead of
                # leaving a future that can never resolve.  The intent
                # ledger is rebuilt from the session's actual fault set
                # plus the queue — never restored from a pre-offer
                # snapshot, which would clobber admissions for the same
                # node that raced in between offer and here.  Holding
                # ``schedule=True`` means no drain was active, so the
                # session is quiescent and safe to read.
                m.mailbox.cancel(event, m.session.faults)
                self.tracer.finish(root, status="error")
                raise ReproError("control plane is closed") from None
        return future

    def query_pipeline(self, name: str) -> PipelineAnswer:
        """The current pipeline for *name* — never blocks on a solve.

        While any event is queued the answer is flagged ``degraded``: it
        is the last-known-good pipeline, valid for the fault set it was
        solved under, not for the still-queued events.
        """
        t0 = time.perf_counter()
        m = self._managed[name]
        with self.tracer.span("query", network=name) as qspan:
            backlog = m.mailbox.backlog()
            m.counters.bump("queries")
            degraded = backlog > 0
            if degraded:
                m.counters.bump("degraded_served")
            # lock-free reads of atomically-published immutable snapshots:
            # the pipeline/faults/churn tuple is internally consistent by
            # construction, and the intent ledger always *leads* the
            # answer (offers update it before the drain applies), so the
            # staleness metadata below never under-reports
            state = m.answer_published
            pipeline, faults = state.pipeline, state.faults
            intended = m.mailbox.intended_published
            # explicit graceful-degradation metadata: which admitted
            # faults the served answer does not reflect yet, and which
            # believed-healthy processors it leaves out (queued repairs)
            outstanding = frozenset(intended - faults)
            omitted = frozenset(
                m.network.processors - intended - set(pipeline.nodes)
            )
            if outstanding or omitted:
                m.counters.bump("stale_served")
            qspan.set(
                degraded=degraded,
                pending=backlog,
                stale=bool(outstanding or omitted),
            )
        self._record(
            m,
            EventRecord(
                seq=self._next_seq(),
                network=name,
                kind="query",
                node=None,
                latency=time.perf_counter() - t0,
                solver="none",
                cache_hit=False,
                degraded=degraded,
                moved=0,
                kept=pipeline.length,
                pipeline_length=pipeline.length,
                healthy_processors=len(m.network.processors - faults),
            ),
        )
        return PipelineAnswer(
            network=name,
            pipeline=pipeline,
            faults=faults,
            degraded=degraded,
            pending=backlog,
            faults_outstanding=outstanding,
            omitted=omitted,
        )

    # ------------------------------------------------------------------
    # maintenance / lifecycle
    # ------------------------------------------------------------------
    def pause(self, name: str) -> None:
        """Stop draining *name* (events keep queueing up to the admission
        bound; queries serve degraded answers).  For maintenance windows
        and deterministic tests."""
        self._managed[name].mailbox.pause()

    def resume(self, name: str) -> None:
        """Resume draining *name*."""
        m = self._managed[name]
        if m.mailbox.resume():
            self._executor.submit(self._drain, m)

    def wait(self, timeout: float = 30.0) -> None:
        """Block until every queue is drained (or raise ``TimeoutError``)."""
        end = time.monotonic() + timeout
        while True:
            busy = any(m.mailbox.busy() for m in self._managed.values())
            if not busy:
                return
            if time.monotonic() > end:
                raise TimeoutError("control plane did not drain in time")
            time.sleep(0.002)

    def close(self, wait: bool = True) -> None:
        """Shut the plane down: stop the worker pool, flush the witness
        tier's write-behind queue, and close a store the plane opened
        itself.  Idempotent — a second ``close`` is a no-op, and a closed
        plane rejects ``register``/``submit_*`` with ``ReproError``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._executor.shutdown(wait=wait)
        self.cache.flush()
        if self._owns_cache:
            self.cache.close()

    def __enter__(self) -> "ControlPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # event processing (drain worker)
    # ------------------------------------------------------------------
    def _drain(self, m: ManagedNetwork) -> None:
        while True:
            event = m.mailbox.next_event()
            if event is None:
                # claim released (queue empty or mailbox paused)
                return
            # queue wait: admission to dispatch, measured on raw
            # perf_counter readings (the tracer re-anchors them)
            self.tracer.record_span(
                "queue_wait",
                parent=event.span,
                start_s=event.enqueued_at,
                end_s=time.perf_counter(),
                network=m.name,
            )
            try:
                record = self._process(m, event)
            except BaseException as exc:  # noqa: BLE001 - forwarded to the future
                m.counters.bump("errors")
                # the event did not apply (e.g. fault beyond tolerance):
                # rebuild the admitted-event ledger from what actually
                # holds plus what is still queued, so staleness metadata
                # does not report a phantom fault forever
                m.mailbox.rebuild_intended(m.session.faults)
                self.tracer.finish(event.span, status="error")
                if self.recorder is not None:
                    self.recorder.note_anomaly(
                        "error", repr(exc), network=m.name
                    )
                event.future.set_exception(exc)
            else:
                self.tracer.finish(event.span)
                event.future.set_result(record)
            finally:
                m.mailbox.event_done()

    def _process(self, m: ManagedNetwork, event: _PendingEvent) -> EventRecord:
        session = m.session
        node = event.node
        if event.kind == "fault":
            target = frozenset(session.faults | {node})
        else:
            target = frozenset(session.faults - {node})
        # the session keeps its pipeline (no canonicalize, cache or solve)
        # exactly when that pipeline still serves the target fault set
        trivial = session.serves(target)

        solver = "none"
        cache_hit = False
        if trivial:
            rec = self._apply(session, event.kind, node, None)
        else:
            with self.tracer.span(
                "canonicalize", parent=event.span, network=m.name
            ):
                key, sigma = m.canon.canonical(target)
            with self.tracer.span(
                "cache_lookup", parent=event.span, network=m.name
            ):
                cached = self.cache.lookup_validated(m.fingerprint, key)
            fast = (
                self.config.deadline is not None
                and m.ewma is not None
                and m.ewma > self.config.deadline
            )
            # set before either path: a cached row the session rejects
            # falls through to a solve inside the same call
            session.policy = m.fast_policy if fast else m.full_policy
            t_apply = time.perf_counter()
            adopted = False
            try:
                if cached is not None:
                    # the session's is_pipeline check is the one
                    # validation a cached row gets
                    with self.tracer.span(
                        "adopt", parent=event.span, network=m.name
                    ) as aspan:
                        rec = self._apply(
                            session,
                            event.kind,
                            node,
                            Canonicalizer.map_back(cached, sigma),
                        )
                        adopted = rec.adopted
                        aspan.set(adopted=adopted)
                else:
                    # the solve span is *active* while the session works,
                    # so the session's own child_span() phases nest under it
                    with self.tracer.span(
                        "solve",
                        parent=event.span,
                        network=m.name,
                        solver="fast" if fast else "full",
                    ):
                        rec = self._apply(session, event.kind, node, None)
            finally:
                if cached is not None and not adopted:
                    # the session rejected the row: drop it from every tier
                    # (memory + disk), even when the solve it fell through
                    # to raised, since it can never become valid
                    self.cache.invalidate(m.fingerprint, key)
                    if self.recorder is not None:
                        self.recorder.note_anomaly(
                            "validation_failure",
                            "cached witness failed live is_pipeline "
                            "validation",
                            network=m.name,
                            extra={"kind": event.kind, "node": repr(node)},
                        )
            if adopted:
                solver = "cache"
                cache_hit = True
            else:
                solver = "fast" if fast else "full"
                solve_cost = time.perf_counter() - t_apply
                # drain-worker exclusive (the mailbox claim guarantees at
                # most one active worker per network) — no lock needed
                m.ewma = (
                    solve_cost
                    if m.ewma is None
                    else (1 - EWMA_ALPHA) * m.ewma + EWMA_ALPHA * solve_cost
                )
                with self.tracer.span(
                    "cache_store", parent=event.span, network=m.name
                ):
                    self.cache.store(
                        m.fingerprint,
                        key,
                        Canonicalizer.map_forward(
                            session.pipeline.nodes, sigma
                        ),
                    )

        # one atomic publication: pipeline, fault set and churn totals are
        # always mutually consistent for lock-free readers
        m.answer_published = PublishedState(
            session.pipeline,
            frozenset(session.faults),
            session.total_moved(),
            session.mean_churn(),
        )
        latency = time.perf_counter() - event.enqueued_at
        record = EventRecord(
            seq=self._next_seq(),
            network=m.name,
            kind=event.kind,
            node=node,
            latency=latency,
            solver=solver,
            cache_hit=cache_hit,
            degraded=False,
            moved=rec.moved,
            kept=rec.kept,
            pipeline_length=session.pipeline.length,
            healthy_processors=rec.healthy_processors,
        )
        m.counters.bump("faults" if event.kind == "fault" else "repairs")
        if cache_hit:
            m.counters.bump("cache_hits")
        elif not trivial:
            m.counters.bump("cache_misses")
        if solver == "fast":
            m.counters.bump("fast_path")
        # drain-worker exclusive rebind of an immutable value
        m.latency_published = m.latency_published.observe(latency)
        self._record(m, record)
        return record

    @staticmethod
    def _apply(
        session: ReconfigurationSession,
        kind: str,
        node: Node,
        pipeline: tuple[Node, ...] | None,
    ) -> ChurnRecord:
        if kind == "fault":
            return session.fail(node, pipeline=pipeline)
        return session.repair(node, pipeline=pipeline)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _next_seq(self) -> int:
        with self._lock:
            self._seq += 1
            return self._seq

    def _record(self, m: ManagedNetwork, record: EventRecord) -> None:
        with self._lock:
            self._records.append(record)
            self._latency = self._latency.observe(record.latency)

    def final_states(
        self,
    ) -> list[tuple[str, PipelineNetwork, Pipeline, frozenset]]:
        """Each network's ``(name, network, pipeline, faults)`` from its
        published snapshot — the ground truth a validator should check
        after :meth:`wait`.  Drivers use this instead of reaching into
        ``m.session``, which the drain worker may still be mutating."""
        out: list[tuple[str, PipelineNetwork, Pipeline, frozenset]] = []
        for m in self._managed.values():
            state = m.answer_published
            out.append((m.name, m.network, state.pipeline, state.faults))
        return out

    def snapshot(self) -> MetricsSnapshot:
        """The health/metrics report across the whole fleet."""
        networks = []
        totals: dict[str, int] = {c: 0 for c in COUNTER_NAMES}
        for m in self._managed.values():
            counters = m.counters.snapshot()
            pending = m.mailbox.backlog()
            paused = m.mailbox.paused
            latency = m.latency_published
            for c, v in counters.items():
                totals[c] += v
            # churn totals ride the same published snapshot as the
            # pipeline/fault pair — never read off the live session the
            # drain worker is mutating
            state = m.answer_published
            networks.append(
                NetworkStats(
                    name=m.name,
                    n=m.network.n,
                    k=m.network.k,
                    construction=m.construction,
                    faults_now=len(state.faults),
                    pending=pending,
                    paused=paused,
                    pipeline_length=state.pipeline.length,
                    counters=counters,
                    latency=latency,
                    total_moved=state.total_moved,
                    mean_churn=state.mean_churn,
                )
            )
        with self._lock:
            records = tuple(self._records)
            latency = self._latency
        store_stats = getattr(self.cache, "store_stats", None)
        return MetricsSnapshot(
            networks=tuple(networks),
            cache=self.cache.stats(),
            totals=totals,
            latency=latency,
            records=records,
            store=store_stats() if store_stats is not None else None,
            anomalies=(
                self.recorder.anomalies() if self.recorder is not None else None
            ),
        )
