"""Service-plane load harness (``python -m repro bench --service``).

BENCH_verify.json measures the *solver*; nothing measured the *service*
— the thing the whole control plane exists to be.  This module replays
large synthetic fault/repair/query traces against a live
:class:`~repro.service.control.ControlPlane` under **open-loop**
arrivals (the submission clock is driven by the scheduled arrival times,
never by completions — exactly how real load hits a service, and the
only discipline that surfaces queueing collapse) and reports the
latency distribution an operator would see.

Two workload profiles, both reusing existing generators:

* ``pool`` (default) — the tolerance-respecting, repeat-heavy stream of
  :func:`repro.service.trace.random_trace`, with exponential
  (Poisson-process) inter-arrival gaps at the requested rate;
* ``poisson`` — per-network Poisson fault schedules from
  :mod:`repro.simulator.faults` merged by
  :func:`repro.simulator.fleet.timed_fleet_trace` with automatic repairs
  and periodic queries, replayed on its own simulated timeline.

Every run is performed twice against the same persistent witness store:
a **cold** phase starting from an empty store, then a **warm** phase in
a fresh control plane pointed at the store the cold phase filled —
the restart scenario the tiered store exists for.  The
``BENCH_service.json`` payload records, per phase, p50/p95/p99 query and
solve latency, shed rate, degraded- and stale-answer rates, witness
cache hit rate, and the persistent-tier counters (``warm_loaded``,
``persist_hits``, ``validation_failures``).  Every latency figure,
``phases`` included, is a :class:`~repro.obs.quantiles.LatencyHistogram`
summary: a percentile reads at most 1/16 above the exact sample
quantile, which is what the smoke gate below compares.

The CI smoke gate (:func:`service_smoke_regressions`) fails on any
``validation_failures``, on a warm phase that loaded nothing from the
store, and on warm p95 query latency more than 10% (plus a small
absolute noise floor — queries are sub-millisecond) behind cold.  The
smoke replays :data:`SMOKE_EVENTS` events per phase, so that p95 has at
least 10 query samples beyond it: over fewer, one host blip moves it.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Sequence

from .._util import as_rng, host_meta
from ..errors import ReproError, ServiceOverloadError
from ..obs.exposition import phase_breakdown
from ..obs.quantiles import LatencyHistogram, summarize_samples
from .control import ControlPlane, ControlPlaneConfig
from .trace import TraceEvent, demo_ring_network, random_trace

#: (name, registration) rows for the bench fleets; replicas of one build
#: share structural cache rows, the ring exercises symmetric sharing.
_FULL_FLEET = (
    ("video-a", dict(n=9, k=2)),
    ("video-b", dict(n=9, k=2)),
    ("ct", dict(n=13, k=2)),
    ("lz", dict(n=6, k=2)),
)
_SMOKE_FLEET = (
    ("lz-a", dict(n=6, k=2)),
    ("lz-b", dict(n=6, k=2)),
)

#: trace events per phase by default: half are queries at the default
#: query ratio, so the smoke's ~250 queries leave 12 beyond p95
FULL_EVENTS = 600
SMOKE_EVENTS = 500


def register_fleet(plane: ControlPlane, *, smoke: bool = False) -> list[str]:
    """Register the bench fleet on *plane*; returns the network names."""
    rows = _SMOKE_FLEET if smoke else _FULL_FLEET
    for name, spec in rows:
        plane.register(name, **spec)
    plane.register("ring", demo_ring_network(6 if smoke else 8))
    return [name for name, _ in rows] + ["ring"]


def build_workload(
    plane: ControlPlane,
    *,
    events: int,
    rate: float,
    seed: int = 0,
    query_ratio: float = 0.5,
    profile: str = "pool",
) -> list[tuple[float, TraceEvent]]:
    """A timed ``(arrival_time, event)`` workload over *plane*'s fleet."""
    if rate <= 0:
        raise ReproError("arrival rate must be > 0")
    if profile == "pool":
        trace = random_trace(
            plane, events, seed=seed, query_ratio=query_ratio
        )
        rng = as_rng(seed + 1)
        timed: list[tuple[float, TraceEvent]] = []
        at = 0.0
        for ev in trace:
            at += rng.expovariate(rate)
            timed.append((at, ev))
        return timed
    if profile == "poisson":
        # imported here: the simulator loads numpy, which nothing else a
        # serving process runs needs
        from ..simulator.faults import poisson_fault_schedule
        from ..simulator.fleet import timed_fleet_trace

        names = list(plane.names)
        horizon = events / rate
        # split the requested event budget: roughly a third faults (each
        # bringing one automatic repair), the rest periodic queries
        fault_share = max(1.0, events / (3 * max(1, len(names))))
        schedules = {}
        for i, name in enumerate(names):
            m = plane.managed(name)
            pool = sorted(m.network.processors, key=repr)[: m.network.k + 3]
            schedules[name] = poisson_fault_schedule(
                pool,
                rate=fault_share / horizon,
                horizon=horizon,
                rng=seed + i,
                max_faults=m.network.k,
            )
        query_every = horizon / max(1.0, events / (3 * max(1, len(names))))
        return timed_fleet_trace(
            schedules,
            repair_after=horizon / 10,
            query_every=query_every,
            horizon=horizon,
        )
    raise ReproError(f"unknown workload profile {profile!r}")


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one open-loop replay."""

    wall_time_s: float
    submitted: int
    applied: int
    queries: int
    shed: int
    errors: int
    degraded: int
    stale: int
    query_latency: LatencyHistogram
    solve_latency: LatencyHistogram


def run_load(
    plane: ControlPlane,
    workload: Sequence[tuple[float, TraceEvent]],
    *,
    speed: float = 1.0,
    timeout: float = 120.0,
) -> LoadReport:
    """Replay *workload* open-loop: each event is submitted at its
    scheduled arrival time (divided by *speed*); a replay running behind
    schedule submits immediately and never waits for completions.

    Query latency is the synchronous ``query_pipeline`` wall time; solve
    latency is each applied event's admission-to-answer latency
    (queue wait included — the number a client would see).
    """
    if speed <= 0:
        raise ReproError("replay speed must be > 0")
    shed = errors = degraded = stale = 0
    query_lat: list[float] = []
    solve_lat: list[float] = []
    futures: list[Future] = []
    t_start = time.perf_counter()
    for at, ev in workload:
        target = t_start + at / speed
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if ev.kind == "query":
            t0 = time.perf_counter()
            answer = plane.query_pipeline(ev.network)
            query_lat.append(time.perf_counter() - t0)
            degraded += answer.degraded
            stale += answer.stale
            continue
        try:
            if ev.kind == "fault":
                futures.append(plane.submit_fault(ev.network, ev.node))
            else:
                futures.append(plane.submit_repair(ev.network, ev.node))
        except ServiceOverloadError:
            shed += 1
    for fut in futures:
        try:
            solve_lat.append(fut.result(timeout=timeout).latency)
        except ReproError:
            errors += 1
    plane.wait(timeout=timeout)
    return LoadReport(
        wall_time_s=time.perf_counter() - t_start,
        submitted=len(workload),
        applied=len(solve_lat),
        queries=len(query_lat),
        shed=shed,
        errors=errors,
        degraded=degraded,
        stale=stale,
        query_latency=summarize_samples(query_lat),
        solve_latency=summarize_samples(solve_lat),
    )


def _phase_row(
    phase: str, report: LoadReport, snapshot, phases: dict | None = None
) -> dict:
    cache = snapshot.cache
    store = snapshot.store
    attempted = report.applied + report.shed + report.errors
    return {
        "phase": phase,
        "events_submitted": report.submitted,
        "events_applied": report.applied,
        "queries": report.queries,
        "wall_time_s": round(report.wall_time_s, 6),
        "shed": report.shed,
        "shed_rate": report.shed / attempted if attempted else 0.0,
        "errors": report.errors,
        "degraded_served": report.degraded,
        "degraded_rate": (
            report.degraded / report.queries if report.queries else 0.0
        ),
        "stale_served": report.stale,
        "query_latency_s": report.query_latency.as_dict(),
        "solve_latency_s": report.solve_latency.as_dict(),
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_hit_rate": cache.hit_rate,
        "store_rows": store.rows if store else 0,
        "warm_loaded": store.warm_loaded if store else 0,
        "persist_hits": store.persist_hits if store else 0,
        "write_behind_depth": store.write_behind_depth if store else 0,
        "validation_failures": store.validation_failures if store else 0,
        "torn_rows": store.torn_rows if store else 0,
        "anomalies": (
            dict(snapshot.anomalies) if snapshot.anomalies is not None else {}
        ),
        # per-phase latency breakdown (span name -> histogram summary):
        # where each event's wall time actually went — queue wait, cache
        # lookup, solve, cache store
        "phases": phases or {},
    }


def run_service_bench(
    *,
    smoke: bool = False,
    events: int | None = None,
    rate: float | None = None,
    seed: int = 0,
    workers: int = 4,
    query_ratio: float = 0.5,
    profile: str = "pool",
    store_path: str | None = None,
    tracing: bool = True,
    dump_dir: str | None = None,
    instrument=None,
) -> dict:
    """The ``BENCH_service.json`` payload: a cold-store phase followed by
    a warm-store phase (fresh plane, same store) over identical
    workloads.

    *store_path* defaults to a temporary file removed afterwards; an
    explicit path is kept (and its pre-existing content removed first so
    the cold phase really is cold).  ``instrument``, when given, is
    called with each phase's idle, fully-registered plane before load —
    the sanitizer attachment point.
    """
    n_events = events if events is not None else (
        SMOKE_EVENTS if smoke else FULL_EVENTS
    )
    arrival = rate if rate is not None else (200.0 if smoke else 300.0)
    tmp = None
    if store_path is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-loadgen-")
        store_path = os.path.join(tmp.name, "witness.db")
    try:
        for suffix in ("", "-wal", "-shm"):
            leftover = store_path + suffix
            if os.path.exists(leftover):
                os.remove(leftover)
        rows = []
        for phase in ("cold", "warm"):
            config = ControlPlaneConfig(
                workers=workers,
                store_path=store_path,
                tracing=tracing,
                trace_ring=1 << 15,
                trace_dump_dir=dump_dir,
            )
            with ControlPlane(config) as plane:
                register_fleet(plane, smoke=smoke)
                if instrument is not None:
                    instrument(plane)
                workload = build_workload(
                    plane,
                    events=n_events,
                    rate=arrival,
                    seed=seed,
                    query_ratio=query_ratio,
                    profile=profile,
                )
                report = run_load(plane, workload)
                plane.cache.flush()
                phases = phase_breakdown(plane.tracer.drain())
                rows.append(
                    _phase_row(phase, report, plane.snapshot(), phases)
                )
        return {
            "meta": {
                "benchmark": "service",
                **host_meta(),
                "smoke": smoke,
                "events": n_events,
                "rate": arrival,
                "seed": seed,
                "workers": workers,
                "query_ratio": query_ratio,
                "profile": profile,
                "tracing": tracing,
            },
            "rows": rows,
        }
    finally:
        if tmp is not None:
            tmp.cleanup()


def format_service_table(payload: dict) -> str:
    """Human-readable rendering of a service bench payload."""
    lines = [
        f"{'phase':<8} {'events':>7} {'queries':>8} {'shed':>5} "
        f"{'hit%':>6} {'warm':>5} {'q-p50':>9} {'q-p95':>9} {'q-p99':>9} "
        f"{'s-p95':>9} {'degr%':>6}"
    ]
    for row in payload["rows"]:
        q = row["query_latency_s"]
        s = row["solve_latency_s"]
        lines.append(
            f"{row['phase']:<8} {row['events_applied']:>7} "
            f"{row['queries']:>8} {row['shed']:>5} "
            f"{row['cache_hit_rate'] * 100:>5.1f}% {row['warm_loaded']:>5} "
            f"{q['p50'] * 1e3:>8.3f}m {q['p95'] * 1e3:>8.3f}m "
            f"{q['p99'] * 1e3:>8.3f}m {s['p95'] * 1e3:>8.3f}m "
            f"{row['degraded_rate'] * 100:>5.1f}%"
        )
    return "\n".join(lines)


def service_smoke_regressions(
    payload: dict,
    tolerance: float = 0.10,
    noise_floor_s: float = 0.0005,
) -> list[str]:
    """The CI gate over a service bench payload.

    Flags: any ``validation_failures`` (a persisted row failed live
    re-validation — never acceptable), a warm phase that loaded nothing
    from the store (warm start silently broken), and warm p95 query
    latency more than *tolerance* behind cold once the difference
    exceeds *noise_floor_s* (sub-millisecond populations jitter more
    than 10% run to run; the floor keeps the gate honest without making
    it flaky).
    """
    bad: list[str] = []
    by_phase = {row["phase"]: row for row in payload["rows"]}
    for phase, row in by_phase.items():
        if row["validation_failures"]:
            bad.append(
                f"{phase}: {row['validation_failures']} persisted rows "
                f"failed live re-validation"
            )
    warm = by_phase.get("warm")
    cold = by_phase.get("cold")
    if warm is not None and not warm["warm_loaded"]:
        bad.append("warm: no rows warm-loaded from the persistent store")
    if warm is not None and cold is not None:
        cold_p95 = cold["query_latency_s"]["p95"]
        warm_p95 = warm["query_latency_s"]["p95"]
        if (
            warm_p95 > cold_p95 * (1 + tolerance)
            and warm_p95 - cold_p95 > noise_floor_s
        ):
            bad.append(
                f"warm p95 query latency {warm_p95 * 1e3:.3f} ms vs "
                f"cold {cold_p95 * 1e3:.3f} ms (> {tolerance:.0%} regression)"
            )
    return bad
