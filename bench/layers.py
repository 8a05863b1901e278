"""Layer-attributed tracing from benchmark code only.

``--trace 1`` installs wrappers around public callables of each layer
(the program is not edited).  A wrapper records a span — name, start,
end, thread, parent — and per-layer totals: call count, wall time,
self time (wall minus the time its child spans cover) and counters
such as kernel rows or expanded search nodes.  Spans stay in memory and
are written out when the run ends.

Attribution rules:

* a control-plane drain thread's calls between one ``Mailbox.next_event``
  return and the next belong to that event (an ``event`` span opened
  here, not by the program); queue wait is the return time minus
  ``event.enqueued_at``;
* verification pool workers inherit the wrappers through ``fork``; each
  worker appends its cumulative totals and new spans to the run's work
  directory at most every 50 ms and again when it closes, and a worker
  that never reports is counted as unmeasured rather than estimated.

Wrappers consult :attr:`Recorder.active` on every call, so the same
process can time a plain pass and a wrapped pass of identical work.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

from stats import median, quantile

FLUSH_SECONDS = 0.05


class Recorder:
    """Span store with one parent stack per thread."""

    def __init__(self) -> None:
        self.active = False
        self.worker_dir: Path | None = None
        self._is_worker = False
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        """Forget every span, total and sample recorded so far."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self.spans: list[tuple] = []
        self.totals: dict[str, dict] = {}
        self.samples: dict[str, list[float]] = {}
        self._last_flush = time.perf_counter()

    def _after_fork(self) -> None:
        # a pool worker starts from a copy of the parent's recorder
        self.reset()
        self._is_worker = True

    # -- frames ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [sid, name, time.perf_counter(), 0.0, parent]
        stack.append(frame)
        return frame

    def exit(self, frame: list, counters: dict | None = None) -> float:
        """Close *frame*; returns its self time."""
        end = time.perf_counter()
        stack = self._stack()
        while stack and stack[-1] is not frame:
            stack.pop()  # an inner frame left open by an exception
        if stack:
            stack.pop()
        sid, name, start, child, parent = frame
        dur = end - start
        self_s = dur - child
        if stack:
            stack[-1][3] += dur
        with self._lock:
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = {"count": 0, "wall_s": 0.0, "self_s": 0.0}
            tot["count"] += 1
            tot["wall_s"] += dur
            tot["self_s"] += self_s
            for key, val in (counters or {}).items():
                tot[key] = tot.get(key, 0) + val
            self.samples.setdefault(name, []).append(dur)
            self.spans.append(
                (sid, name, start, end, threading.get_ident(), parent)
            )
        if self._is_worker and not stack:
            self.maybe_flush()
        return self_s

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    # -- events owned by a drain thread -----------------------------------
    def close_event(self) -> None:
        ev = getattr(self._local, "event", None)
        if ev is not None:
            self._local.event = None
            self_s = self.exit(ev)
            self.sample("event.unattributed", self_s)

    def open_event(self, enqueued_at: float) -> None:
        now = time.perf_counter()
        self.sample("mailbox.queue_wait", now - enqueued_at)
        self._local.event = self.enter("event")

    # -- worker reporting ---------------------------------------------------
    def maybe_flush(self) -> None:
        if time.perf_counter() - self._last_flush >= FLUSH_SECONDS:
            self.flush()

    def flush(self) -> None:
        if not self._is_worker or self.worker_dir is None:
            return
        with self._lock:
            line = json.dumps({"pid": os.getpid(), "totals": self.totals,
                               "spans": self.spans})
            self.spans = []
        with open(self.worker_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self._last_flush = time.perf_counter()

    def worker_reports(self) -> dict[int, dict]:
        """pid -> last cumulative totals, plus every reported span."""
        reports: dict[int, dict] = {}
        if self.worker_dir is None:
            return reports
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            spans: list = []
            totals: dict = {}
            for line in path.read_text().splitlines():
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue  # a line cut short by a killed worker
                totals = rec["totals"]
                spans.extend(rec["spans"])
            reports[int(path.stem.split("-")[1])] = {"totals": totals,
                                                     "spans": spans}
        return reports


def _wrap(rec: Recorder, name: str, fn, counters=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        frame = rec.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            rec.exit(frame, counters(args, kwargs, result) if counters else None)

    return wrapper


def _patch(owner, attr: str, rec: Recorder, name: str, counters=None) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = _wrap(rec, name, raw.__func__, counters)
        setattr(owner, attr, classmethod(wrapped))
    else:
        setattr(owner, attr, _wrap(rec, name, raw, counters))


class _TimedWorkerBody:
    """Stands in for a pool's worker body so each chunk is one
    ``parallel.verify_chunk`` span in the worker."""

    def __init__(self, body, rec: Recorder) -> None:
        self.body = body
        self.rec = rec

    def init(self, wid, args):
        return self.body.init(wid, args)

    def run(self, state, task):
        frame = self.rec.enter("parallel.verify_chunk")
        try:
            return self.body.run(state, task)
        finally:
            self.rec.exit(frame)

    def close(self, state):
        try:
            self.body.close(state)
        finally:
            self.rec.flush()


def _install_exact(rec: Recorder) -> None:
    """Wrap the exact solvers, rebound where ``hamilton.solve`` looks
    them up."""
    from repro.core import hamilton

    def expanded(args, kwargs, result):
        return {"nodes_expanded": result.nodes_expanded} if result else None

    _patch(hamilton, "solve_held_karp", rec, "hamilton.exact", expanded)
    _patch(hamilton, "solve_backtracking", rec, "hamilton.exact", expanded)


def install_verify(rec: Recorder) -> None:
    """Wrap the verification layers: kernel, residue, exact solver, pool,
    shared memory and symmetry."""
    from repro.core.verify import parallel, shm
    from repro.core.verify.batch import WitnessKernel
    from repro.core.verify.warm import WitnessSweeper

    def batch_counts(args, kwargs, result):
        if result is None:
            return None
        return {"rows": len(args[1]), "accepted": int(sum(result))}

    _patch(WitnessKernel, "accept_batch", rec, "batch.accept", batch_counts)
    _patch(WitnessSweeper, "decide", rec, "warm.decide")
    _install_exact(rec)

    pool_cls = shm.ShmWorkerPool
    pool_init = pool_cls.__init__

    @functools.wraps(pool_init)
    def timed_pool_init(self, workers, worker_body, *args, **kwargs):
        if not rec.active:
            return pool_init(self, workers, worker_body, *args, **kwargs)
        frame = rec.enter("parallel.pool_start")
        try:
            pool_init(self, workers, _TimedWorkerBody(worker_body, rec),
                      *args, **kwargs)
        finally:
            rec.exit(frame, {"workers": workers})

    pool_cls.__init__ = timed_pool_init
    _patch(pool_cls, "submit", rec, "parallel.submit")
    _patch(pool_cls, "get", rec, "parallel.get")

    def nbytes(args, kwargs, result):
        return {"bytes": result.nbytes} if result is not None else None

    _patch(shm.SharedSweepContext, "create", rec, "shm.create", nbytes)
    _patch(shm.SharedSweepContext, "unlink", rec, "shm.unlink")
    attached_close = shm.AttachedSweepContext.close

    @functools.wraps(attached_close)
    def close_and_report(self):
        try:
            attached_close(self)
        finally:
            if rec.active:
                rec.flush()

    shm.AttachedSweepContext.close = close_and_report

    def reps(args, kwargs, result):
        return {"reps": len(result)} if result is not None else None

    # the names the sweep dispatcher calls, rebound where it looks them up
    _patch(parallel, "enumerate_group", rec, "symmetry.group")
    _patch(parallel, "orbit_representatives", rec, "symmetry.orbits", reps)


def install_service(rec: Recorder) -> None:
    """Wrap the control-plane layers: canonicalize, cache, store, warm
    start, session solve/adopt, the exact solver and the mailbox event
    boundary."""
    from repro.core.session import ReconfigurationSession
    from repro.service.canonical import Canonicalizer
    from repro.service.mailbox import Mailbox
    from repro.service.store import WitnessStore
    from repro.service.tiering import TieredWitnessCache

    def hit(args, kwargs, result):
        return {"hits": int(result is not None)}

    def written(args, kwargs, result):
        return {"rows": result or 0}

    def loaded(args, kwargs, result):
        return {"loaded": result or 0}

    _patch(Canonicalizer, "canonical", rec, "canonical")
    _patch(TieredWitnessCache, "lookup_validated", rec, "cache.lookup", hit)
    _patch(TieredWitnessCache, "store", rec, "cache.store")
    _patch(TieredWitnessCache, "warm_start", rec, "tiering.warm_start", loaded)
    _patch(WitnessStore, "get", rec, "store.get")
    _patch(WitnessStore, "put_many", rec, "store.put", written)
    _install_exact(rec)

    for method in ("fail", "repair"):
        raw = getattr(ReconfigurationSession, method)

        def session_call(self, node, *, pipeline=None, _raw=raw):
            if not rec.active:
                return _raw(self, node, pipeline=pipeline)
            frame = rec.enter(
                "session.adopt" if pipeline is not None else "session.solve"
            )
            try:
                return _raw(self, node, pipeline=pipeline)
            finally:
                rec.exit(frame)

        setattr(ReconfigurationSession, method,
                functools.wraps(raw)(session_call))

    next_event = Mailbox.next_event

    @functools.wraps(next_event)
    def event_boundary(self):
        if not rec.active:
            return next_event(self)
        rec.close_event()
        event = next_event(self)
        if event is not None:
            rec.open_event(event.enqueued_at)
        return event

    Mailbox.next_event = event_boundary


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _tot(totals: dict, name: str, key: str) -> float:
    return totals.get(name, {}).get(key, 0)


def _merge(into: dict, totals: dict) -> None:
    for name, tot in totals.items():
        dst = into.setdefault(name, {})
        for key, val in tot.items():
            dst[key] = dst.get(key, 0) + val


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def verify_layer_metrics(rec: Recorder, passes: int) -> dict:
    """The verification layers' metrics, per wrapped pass."""
    reports = rec.worker_reports()
    totals: dict = {}
    _merge(totals, rec.totals)
    for rep in reports.values():
        _merge(totals, rep["totals"])
    per = 1.0 / max(passes, 1)
    rows = _tot(totals, "batch.accept", "rows")
    batch_busy = _tot(totals, "batch.accept", "self_s")
    decides = _tot(totals, "warm.decide", "count")
    started = _tot(rec.totals, "parallel.pool_start", "workers")
    return {
        "parallel.pool_start_s": per * _tot(totals, "parallel.pool_start", "wall_s"),
        "parallel.get_wait_s": per * _tot(totals, "parallel.get", "wall_s"),
        "parallel.chunks": per * _tot(totals, "parallel.submit", "count"),
        "parallel.worker_busy_s": per * _tot(totals, "parallel.verify_chunk", "wall_s"),
        "parallel.items_path_sweeps": per * _tot(totals, "symmetry.orbits", "count"),
        "parallel.unmeasured_workers": max(0, started - len(reports)),
        "symmetry.busy_s": per * (_tot(totals, "symmetry.group", "self_s")
                                  + _tot(totals, "symmetry.orbits", "self_s")),
        "symmetry.orbit_reps": per * _tot(totals, "symmetry.orbits", "reps"),
        "shm.setup_s": per * _tot(totals, "shm.create", "wall_s"),
        "shm.bytes": per * _tot(totals, "shm.create", "bytes"),
        "batch.rows": per * rows,
        "batch.accept_ratio": _ratio(_tot(totals, "batch.accept", "accepted"), rows),
        "batch.busy_s": per * batch_busy,
        "batch.rows_per_s": _ratio(rows, batch_busy),
        "warm.decides": per * decides,
        "warm.busy_s": per * _tot(totals, "warm.decide", "self_s"),
        "warm.per_set_us": 1e6 * _ratio(_tot(totals, "warm.decide", "wall_s"), decides),
        "hamilton.solves": per * _tot(totals, "hamilton.exact", "count"),
        "hamilton.busy_s": per * _tot(totals, "hamilton.exact", "self_s"),
        "hamilton.nodes_expanded": per * _tot(totals, "hamilton.exact", "nodes_expanded"),
        "verify.unattributed_s": per * sum(rec.samples.get("verify.unattributed", [])),
    }


def service_layer_metrics(rec: Recorder) -> dict:
    """The control-plane layers' metrics over the wrapped phase."""
    t = rec.totals
    s = rec.samples
    lookups = _tot(t, "cache.lookup", "count")
    return {
        "mailbox.queue_wait_ms_p50": 1e3 * median(s.get("mailbox.queue_wait", [])),
        "mailbox.queue_wait_ms_p99": 1e3 * quantile(s.get("mailbox.queue_wait", []), 0.99),
        "canonical.calls": _tot(t, "canonical", "count"),
        "canonical.busy_s": _tot(t, "canonical", "self_s"),
        "canonical.p99_us": 1e6 * quantile(s.get("canonical", []), 0.99),
        "cache.lookups": lookups,
        "cache.hit_ratio": _ratio(_tot(t, "cache.lookup", "hits"), lookups),
        "cache.lookup_p99_us": 1e6 * quantile(s.get("cache.lookup", []), 0.99),
        "cache.stores": _tot(t, "cache.store", "count"),
        "store.gets": _tot(t, "store.get", "count"),
        "store.get_p99_us": 1e6 * quantile(s.get("store.get", []), 0.99),
        "store.rows_written": _tot(t, "store.put", "rows"),
        "store.put_busy_s": _tot(t, "store.put", "self_s"),
        "tiering.warm_start_s": _tot(t, "tiering.warm_start", "wall_s"),
        "tiering.warm_loaded": _tot(t, "tiering.warm_start", "loaded"),
        "session.solves": _tot(t, "session.solve", "count"),
        "session.solve_busy_s": _tot(t, "session.solve", "self_s"),
        "session.solve_p99_ms": 1e3 * quantile(s.get("session.solve", []), 0.99),
        "session.adopts": _tot(t, "session.adopt", "count"),
        "session.adopt_busy_s": _tot(t, "session.adopt", "self_s"),
        "hamilton.solves": _tot(t, "hamilton.exact", "count"),
        "hamilton.busy_s": _tot(t, "hamilton.exact", "self_s"),
        "hamilton.nodes_expanded": _tot(t, "hamilton.exact", "nodes_expanded"),
        "event.unattributed_ms_p50": 1e3 * median(s.get("event.unattributed", [])),
    }


def write_trace(path: Path, rec: Recorder) -> None:
    """Every span of the parent and its reporting workers, as JSON."""
    spans = [
        {"id": sid, "name": name, "start": start, "end": end,
         "thread": thread, "parent": parent, "pid": os.getpid()}
        for sid, name, start, end, thread, parent in rec.spans
    ]
    for pid, rep in rec.worker_reports().items():
        spans.extend(
            {"id": sid, "name": name, "start": start, "end": end,
             "thread": thread, "parent": parent, "pid": pid}
            for sid, name, start, end, thread, parent in rep["spans"]
        )
    path.write_text(json.dumps({"spans": spans}))
