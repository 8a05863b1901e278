"""Trace drivers: scripted and randomized event streams for the plane.

A *trace* is a flat list of :class:`TraceEvent` — fault / repair / query,
each addressed to a named network.  :func:`run_trace` feeds one through a
:class:`~repro.service.control.ControlPlane` (faults and repairs through
the worker pool, queries synchronously), waits for the futures, validates
what came back and folds the outcome into a :class:`TraceReport`.

:func:`random_trace` generates a reproducible workload that respects each
network's declared tolerance (never more than ``k`` simultaneous faults)
and deliberately draws victims from a small pool, so fault patterns
repeat and the witness cache has something to do — mirroring real fleets,
where the same marginal hardware fails again and again.

:func:`run_demo` is the ``python -m repro serve --demo`` payload: a
five-network fleet (including a replica pair that shares witness-cache
rows and a circulant ring that is not a factory build) under a
100+-event trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import networkx as nx

from .._util import as_rng
from ..core.model import PipelineNetwork
from ..core.pipeline import is_pipeline
from ..errors import ReproError, ServiceOverloadError
from ..graphs.circulant import circulant_graph
from .control import ControlPlane, ControlPlaneConfig, PipelineAnswer
from .metrics import EventRecord, MetricsSnapshot

Node = Hashable


@dataclass(frozen=True)
class TraceEvent:
    """One scripted control-plane event."""

    network: str
    kind: str                  # "fault" | "repair" | "query"
    node: Node | None = None


@dataclass(frozen=True)
class TraceReport:
    """Outcome of driving one trace through a control plane."""

    records: tuple[EventRecord, ...]
    answers: tuple[PipelineAnswer, ...]
    shed: int
    errors: tuple[str, ...]

    @property
    def events(self) -> int:
        return len(self.records) + len(self.answers) + self.shed + len(self.errors)

    @property
    def ok(self) -> bool:
        return not self.errors


def demo_ring_network(m: int = 8, offsets: Iterable[int] = (1, 2)) -> PipelineNetwork:
    """A vertex-transitive circulant fleet member (not from the paper).

    Every circulant node ``c{j}`` is a processor carrying its own input
    terminal ``ti{j}`` and output terminal ``to{j}``, so every rotation
    and reflection of the ring extends to a kind-preserving automorphism
    of the whole network.
    """
    if m < 6:
        raise ReproError("demo ring needs m >= 6")
    core = circulant_graph(m, offsets)
    g = nx.Graph()
    for a, b in core.edges:
        g.add_edge(f"c{a}", f"c{b}")
    inputs, outputs = [], []
    for j in range(m):
        g.add_edge(f"ti{j}", f"c{j}")
        g.add_edge(f"c{j}", f"to{j}")
        inputs.append(f"ti{j}")
        outputs.append(f"to{j}")
    return PipelineNetwork(
        g, inputs, outputs, n=m - 2, k=2, meta={"construction": "demo-ring"}
    )


def random_trace(
    plane: ControlPlane,
    events: int = 120,
    *,
    seed: int = 0,
    query_ratio: float = 0.2,
    pool_size: int | None = None,
) -> list[TraceEvent]:
    """A reproducible fault/repair/query stream over the registered fleet.

    Victims are drawn from a small per-network pool (default ``k + 3``
    nodes) so fault sets recur; each network is kept within its declared
    tolerance ``k``, with repairs freeing slots.
    """
    rng = as_rng(seed)
    names = list(plane.names)
    if not names:
        raise ReproError("register networks before generating a trace")
    pools: dict[str, list[Node]] = {}
    failed: dict[str, set] = {}
    limit: dict[str, int] = {}
    for m in plane:
        size = pool_size if pool_size is not None else m.network.k + 3
        procs = sorted(m.network.processors, key=repr)
        pool = procs[: max(2, size)]
        pool.append(sorted(m.network.inputs, key=repr)[0])
        pools[m.name] = pool
        failed[m.name] = set()
        limit[m.name] = m.network.k
    trace: list[TraceEvent] = []
    for _ in range(events):
        name = rng.choice(names)
        down = failed[name]
        if rng.random() < query_ratio:
            trace.append(TraceEvent(name, "query"))
            continue
        available = [v for v in pools[name] if v not in down]
        can_fault = available and len(down) < limit[name]
        if down and (not can_fault or rng.random() < 0.45):
            victim = rng.choice(sorted(down, key=repr))
            down.discard(victim)
            trace.append(TraceEvent(name, "repair", victim))
        elif can_fault:
            victim = rng.choice(available)
            down.add(victim)
            trace.append(TraceEvent(name, "fault", victim))
        else:
            trace.append(TraceEvent(name, "query"))
    return trace


def run_trace(
    plane: ControlPlane,
    trace: Sequence[TraceEvent],
    *,
    validate: bool = True,
    timeout: float = 60.0,
) -> TraceReport:
    """Drive *trace* through *plane*, wait for completion, and report.

    With ``validate=True`` every query answer is checked against the
    ground-truth pipeline predicate, and after the queues drain every
    network's final pipeline is re-validated against its live fault set.
    """
    futures = []
    answers: list[PipelineAnswer] = []
    errors: list[str] = []
    shed = 0
    for ev in trace:
        if ev.kind == "query":
            answer = plane.query_pipeline(ev.network)
            if validate and not is_pipeline(
                plane.managed(ev.network).network,
                answer.pipeline.nodes,
                answer.faults,
            ):
                errors.append(f"query answer for {ev.network!r} failed validation")
            answers.append(answer)
            continue
        try:
            if ev.kind == "fault":
                futures.append(plane.submit_fault(ev.network, ev.node))
            elif ev.kind == "repair":
                futures.append(plane.submit_repair(ev.network, ev.node))
            else:
                raise ReproError(f"unknown trace event kind {ev.kind!r}")
        except ServiceOverloadError:
            shed += 1
    records: list[EventRecord] = []
    for fut in futures:
        try:
            records.append(fut.result(timeout=timeout))
        except ReproError as exc:
            errors.append(str(exc))
    plane.wait(timeout=timeout)
    if validate:
        for name, network, pipeline, faults in plane.final_states():
            if not is_pipeline(network, pipeline.nodes, faults):
                errors.append(f"final pipeline for {name!r} failed validation")
    return TraceReport(
        records=tuple(records),
        answers=tuple(answers),
        shed=shed,
        errors=tuple(errors),
    )


def demo_plane(
    *,
    workers: int = 4,
    cache_capacity: int = 256,
    deadline: float | None = None,
    max_pending: int = 64,
    tracing: bool = False,
    trace_dump_dir: str | None = None,
) -> ControlPlane:
    """A five-network demo fleet: two ``G(9,2)`` replicas (structural
    witness sharing), ``G(13,2)`` and ``G(6,2)`` builds, and a circulant
    ring."""
    plane = ControlPlane(
        ControlPlaneConfig(
            workers=workers,
            cache_capacity=cache_capacity,
            deadline=deadline,
            max_pending=max_pending,
            tracing=tracing,
            trace_dump_dir=trace_dump_dir,
        )
    )
    plane.register("video-a", n=9, k=2)
    plane.register("video-b", n=9, k=2)
    plane.register("ct", n=13, k=2)
    plane.register("lz", n=6, k=2)
    plane.register("ring", demo_ring_network(8))
    return plane


def warmup_trace(plane: ControlPlane) -> list[TraceEvent]:
    """A deterministic prefix guaranteeing witness-cache traffic: the same
    fault pattern solved on one replica and replayed on its sibling, a
    repeat of an already-seen fault set, and a fault and repair on the
    circulant ring (the repair hits the fault-free row)."""
    events = [
        TraceEvent("video-a", "fault", "p3"),
        TraceEvent("video-b", "fault", "p3"),   # structural replica hit
        TraceEvent("video-a", "repair", "p3"),
        TraceEvent("video-a", "fault", "p3"),   # repeated-fault-set hit
        TraceEvent("video-a", "query"),
        TraceEvent("video-a", "repair", "p3"),  # leave the fleet fault-free
        TraceEvent("video-b", "repair", "p3"),
    ]
    if "ring" in plane.names:
        events += [
            TraceEvent("ring", "fault", "c1"),
            TraceEvent("ring", "repair", "c1"),  # fault-free row hit
        ]
    return events


def run_demo(
    *,
    events: int = 150,
    seed: int = 0,
    workers: int = 4,
    cache_capacity: int = 256,
    deadline: float | None = None,
    query_ratio: float = 0.2,
    tracing: bool = False,
    trace_out: str | None = None,
    trace_dump_dir: str | None = None,
    metrics_port: int | None = None,
    instrument=None,
) -> tuple[TraceReport, MetricsSnapshot]:
    """The ``repro serve --demo`` payload.

    Runs the deterministic warmup plus a randomized trace of at least
    *events* total events across the demo fleet, returning the trace
    report and the final metrics snapshot.  ``trace_out`` implies
    ``tracing`` and dumps the finished spans to a trace file readable by
    ``python -m repro trace``; ``metrics_port`` serves Prometheus/JSON
    exposition over HTTP for the duration of the run.  ``instrument``,
    when given, is called with the idle, fully-registered plane before
    any traffic — the hook the sanitizers (lock-order monitor, race
    detector) attach through.
    """
    with demo_plane(
        workers=workers,
        cache_capacity=cache_capacity,
        deadline=deadline,
        tracing=tracing or trace_out is not None,
        trace_dump_dir=trace_dump_dir,
    ) as plane:
        if instrument is not None:
            instrument(plane)
        server = None
        if metrics_port is not None:
            from ..obs.http import MetricsServer

            server = MetricsServer(plane, port=metrics_port)
        try:
            trace = warmup_trace(plane)
            remaining = max(0, events - len(trace))
            trace += random_trace(
                plane, remaining, seed=seed, query_ratio=query_ratio
            )
            report = run_trace(plane, trace)
            snapshot = plane.snapshot()
            if trace_out is not None:
                from ..obs.cli import write_trace_file

                write_trace_file(
                    trace_out,
                    plane.tracer.spans(),
                    meta={"source": "serve-demo", "events": len(trace),
                          "seed": seed},
                )
        finally:
            if server is not None:
                server.close()
    return report, snapshot
