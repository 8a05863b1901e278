"""The benchmark's own seeded load generator for the control plane.

One thread generates all load.  Requests are fault/repair events
(asynchronous, resolved through futures) and pipeline queries
(synchronous).  The generator keeps an *admitted-event model*: per
network, the fault set that every admitted event implies.  It follows
admission outcomes — a shed fault never happened and a shed repair
leaves its node failed — so no network is ever pushed past its k, and
every query's staleness metadata can be predicted exactly.  Each answer
is gated as it arrives, so the generator holds no answers and no
resolved futures: its own heap stays flat and does not lengthen the
program's garbage-collection pauses.

Open loop: arrivals are a Poisson process at a fixed rate, and each
request is timed from its due time, so a stall also delays the requests
due after it.  Closed loop: a fixed number of events stay in flight,
the next request is sent as one completes, and each is timed from when
it was sent; with one event in flight it measures latency, with one per
plane worker capacity.
"""

from __future__ import annotations

import ctypes
import queue
import random
import threading
import time
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field, fields

import gates

#: the generator's victim and network choices, kind draws and arrival
#: gaps come from separate streams, so a shed changes as little of the
#: rest of the trace as possible
_STREAMS = ("arrival", "network", "kind", "victim")


def reduce_timer_slack() -> None:
    """Ask Linux for 1 ns timer slack on this thread, so a sleep until
    the next due time overshoots by microseconds instead of ~60 us."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(29, 1, 0, 0, 0)  # PR_SET_TIMERSLACK


@dataclass(eq=False)
class Member:
    name: str
    network: object
    k: int
    pool: list  # victims, sorted
    failed: frozenset = frozenset()

    def __post_init__(self) -> None:
        self.gate = gates.AnswerGate(self.network)


@dataclass
class PhaseStats:
    """Everything one phase measured."""

    name: str
    rate: float | None
    seconds: float
    requests: int = 0
    events: int = 0
    queries: int = 0
    shed: int = 0
    errors: int = 0
    undrained: int = 0
    bad_answers: int = 0
    answer_errors: list = field(default_factory=list)
    event_latency: list = field(default_factory=list)
    query_latency: list = field(default_factory=list)
    # when each request completed (seconds into the phase)
    completed_at: list = field(default_factory=list)
    submit_time: list = field(default_factory=list)
    query_time: list = field(default_factory=list)
    lag: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    completed: int = 0


def combine(name: str, parts: list[PhaseStats]) -> PhaseStats:
    """Slices of one phase as a single phase: counts, lists and times
    summed (``completed_at`` stays relative to each slice's start)."""
    out = PhaseStats(name, parts[0].rate, 0.0)
    for f in fields(PhaseStats):
        if f.name not in ("name", "rate"):
            setattr(out, f.name,
                    sum((getattr(p, f.name) for p in parts),
                        start=getattr(out, f.name)))
    return out


class _InFlight:
    """Events in flight.  The resolving drain thread records each
    completion, so a future is released as soon as it resolves."""

    def __init__(self, stats: PhaseStats, origin: float) -> None:
        self.stats = stats
        self.origin = origin
        self._lock = threading.Lock()
        self._futures: dict[int, object] = {}
        self._next = 0
        self.signal: queue.SimpleQueue = queue.SimpleQueue()

    def add(self, fut, start: float) -> None:
        with self._lock:
            key = self._next
            self._next += 1
            self._futures[key] = fut
        fut.add_done_callback(lambda f: self._resolved(key, start, f))

    def _resolved(self, key: int, start: float, fut) -> None:
        now = time.perf_counter()
        failed = fut.exception() is not None
        with self._lock:
            self._futures.pop(key, None)
            if failed:
                self.stats.errors += 1
            else:
                self.stats.event_latency.append(now - start)
                self.stats.completed_at.append(now - self.origin)
        self.signal.put(None)

    def drain(self, timeout: float) -> int:
        """Wait for every event in flight; returns how many did not
        resolve within *timeout*."""
        with self._lock:
            pending = list(self._futures.values())
        _, not_done = wait_futures(pending, timeout=timeout)
        return len(not_done)


class Generator:
    def __init__(self, plane, members: list[Member], seed: int,
                 query_ratio: float) -> None:
        self.plane = plane
        self.members = members
        self.query_ratio = query_ratio
        self.rng = {
            s: random.Random(f"{seed}:{s}") for s in _STREAMS
        }

    # -- the admitted-event model ------------------------------------------
    def _next_event(self, m: Member) -> tuple[str, object]:
        rng = self.rng["victim"]
        healthy = [v for v in m.pool if v not in m.failed]
        repair = m.failed and (
            len(m.failed) >= m.k or not healthy
            or self.rng["kind"].random() < 0.5
        )
        if repair:
            return "repair", rng.choice(sorted(m.failed))
        return "fault", rng.choice(healthy)

    def _submit(self, m: Member, stats: PhaseStats, inflight: _InFlight,
                start: float) -> bool:
        """Submit the model's next event for *m*; ``False`` when shed."""
        from repro.errors import ServiceOverloadError

        kind, node = self._next_event(m)
        submit = (self.plane.submit_fault if kind == "fault"
                  else self.plane.submit_repair)
        t0 = time.perf_counter()
        try:
            fut = submit(m.name, node)
        except ServiceOverloadError:
            stats.shed += 1
            return False
        stats.submit_time.append(time.perf_counter() - t0)
        m.failed = m.failed | {node} if kind == "fault" else m.failed - {node}
        stats.events += 1
        inflight.add(fut, start)
        return True

    def _query(self, m: Member, stats: PhaseStats, start: float,
               origin: float) -> None:
        t0 = time.perf_counter()
        answer = self.plane.query_pipeline(m.name)
        t1 = time.perf_counter()
        stats.query_time.append(t1 - t0)
        stats.query_latency.append(t1 - start)
        stats.completed_at.append(t1 - origin)
        stats.queries += 1
        errors = m.gate.errors(answer, m.failed)
        if errors:
            stats.bad_answers += 1
            if len(stats.answer_errors) < 20:
                stats.answer_errors.extend(errors)

    def _pick(self) -> tuple[bool, Member]:
        is_query = self.rng["kind"].random() < self.query_ratio
        return is_query, self.rng["network"].choice(self.members)

    # -- open loop ---------------------------------------------------------
    def open_loop(self, name: str, rate: float, seconds: float,
                  drain_deadline: float) -> PhaseStats:
        stats = PhaseStats(name, rate, seconds)
        gaps = self.rng["arrival"]
        cpu0 = time.process_time()
        start = time.perf_counter()
        inflight = _InFlight(stats, start)
        at = gaps.expovariate(rate)
        while at < seconds:
            due = start + at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            stats.lag.append(time.perf_counter() - due)
            is_query, m = self._pick()
            if is_query:
                self._query(m, stats, due, start)
            else:
                self._submit(m, stats, inflight, due)
            stats.requests += 1
            at += gaps.expovariate(rate)
        stats.undrained = inflight.drain(drain_deadline)
        stats.wall_s = time.perf_counter() - start
        stats.cpu_s = time.process_time() - cpu0
        stats.completed = stats.requests - stats.shed - stats.undrained
        return stats

    # -- closed loop -------------------------------------------------------
    def closed_loop(self, name: str, seconds: float, window: int,
                    drain_deadline: float) -> PhaseStats:
        stats = PhaseStats(name, None, seconds)
        outstanding = 0
        cpu0 = time.process_time()
        start = time.perf_counter()
        end = start + seconds
        inflight = _InFlight(stats, start)
        while time.perf_counter() < end:
            if outstanding >= window:
                inflight.signal.get()
                outstanding -= 1
                continue
            is_query, m = self._pick()
            sent = time.perf_counter()
            stats.requests += 1
            if is_query:
                self._query(m, stats, sent, start)
            elif self._submit(m, stats, inflight, sent):
                outstanding += 1
        stats.undrained = inflight.drain(drain_deadline)
        stats.wall_s = time.perf_counter() - start
        stats.cpu_s = time.process_time() - cpu0
        stats.completed = sum(1 for t in stats.completed_at if t <= seconds)
        return stats
