"""Persistent shared-memory workers for the parallel sweep.

A pool sweep pays two kinds of overhead that are not verification
work: shipping the sweep's tables to each worker, and shipping each
chunk.  This module keeps both small with two pieces:

* :class:`SharedSweepContext` — a single ``multiprocessing.shared_memory``
  segment, packed once by the parent, holding the sweep's bulk read-only
  tables: the revolving-door index arrays per fault-set size (the
  address space of the chunk protocol), the network's flat adjacency
  bitmask rows (the input of the flat Held-Karp tables and the witness
  kernel's bridge chords), and the start/end attachment masks.  Workers
  attach once at startup and map numpy views straight onto the buffer —
  a chunk dispatch carries **no** per-task table data at all.  Where the
  platform has no usable shared memory the same payload travels once
  through the worker initializer as plain bytes: identical semantics,
  one copy per worker.

* :class:`ShmWorkerPool` — a deliberately small process pool: one task
  queue per worker (so in-flight work of a dead worker can be re-queued
  precisely), a shared result queue tagged with worker ids, and a
  liveness poll in the blocking result getter.  A worker that dies
  mid-chunk (OOM-kill, segfault, test-injected ``os._exit``) is detected
  by the poll; its un-acked chunks are resubmitted to surviving workers
  and the sweep completes without losing a single fault set — chunk
  results are idempotent (pure index ranges) and de-duplicated by
  sequence number, so a worker that dies *after* answering cannot
  double-count either.

Chunks themselves are Gray-rank ranges — see
:mod:`repro.core.verify.parallel` for the dispatcher, which runs the
same chunk worker in-process when a pool would not pay for itself, and
:func:`repro.core.verify.exhaustive.gray_unrank` for why any rank range
is addressable.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
from math import comb
from typing import Any, Hashable, Sequence

import numpy as np

from ...errors import VerificationError
from ..hamilton import IncrementalInstanceBuilder
from ..model import PipelineNetwork
from .batch import GRAY_ELEMENT_CAP, gray_index_array

try:
    from multiprocessing import shared_memory as _shared_memory

    HAVE_SHM = True
except ImportError:  # pragma: no cover - exotic platforms only
    _shared_memory = None  # type: ignore[assignment]
    HAVE_SHM = False

Node = Hashable

#: liveness-poll interval of the blocking result getter.
POLL_SECONDS = 0.2


class WorkerPoolError(VerificationError):
    """The pool lost every worker before the sweep finished."""


# ----------------------------------------------------------------------
# shared segment
# ----------------------------------------------------------------------
class SharedSweepContext:
    """Parent-side owner of the packed shared segment.

    ``segments`` maps a logical name (``"gray:2"``, ``"adj"``) to
    ``(offset, nbytes, meta)`` into one flat buffer.  The buffer lives
    in a :class:`multiprocessing.shared_memory.SharedMemory` segment
    when the platform provides one, else inline in the (picklable)
    spec — the worker-side :class:`AttachedSweepContext` reads both
    identically.
    """

    def __init__(
        self,
        segments: dict[str, tuple[int, int, tuple]],
        payload: bytes,
        shm: "Any | None",
    ) -> None:
        self.segments = segments
        self._payload = payload if shm is None else b""
        self._shm = shm

    @classmethod
    def create(
        cls,
        network: PipelineNetwork,
        universe: Sequence[Node],
        k: int,
        sizes: Sequence[int],
        *,
        use_shm: bool | None = None,
    ) -> "SharedSweepContext":
        """Pack the sweep's read-only tables for *network* over the
        repr-sorted *universe*: adjacency mask rows, start/end masks and
        the revolving-door index array for each swept size."""
        builder = IncrementalInstanceBuilder(network)
        nprocs = len(builder.procs)
        rowbytes = max(1, (nprocs + 7) // 8)
        parts: list[bytes] = []
        segments: dict[str, tuple[int, int, tuple]] = {}
        offset = 0

        def pack(name: str, blob: bytes, meta: tuple) -> None:
            nonlocal offset
            segments[name] = (offset, len(blob), meta)
            parts.append(blob)
            offset += len(blob)

        adj = b"".join(
            row.to_bytes(rowbytes, "little") for row in builder.base_adj
        )
        pack("adj", adj, (nprocs, rowbytes))
        pack(
            "ends",
            builder.base_start.to_bytes(rowbytes, "little")
            + builder.base_end.to_bytes(rowbytes, "little"),
            (rowbytes,),
        )
        n = len(universe)
        for j in sorted({s for s in sizes if s >= 1}):
            if j > n or comb(n, j) * j > GRAY_ELEMENT_CAP:
                continue  # above the element cap: workers unrank
            table = gray_index_array(n, j)
            pack(
                f"gray:{j}",
                table.tobytes(),
                (str(table.dtype), table.shape[0], table.shape[1]),
            )
        payload = b"".join(parts)
        shm = None
        if use_shm is None:
            use_shm = HAVE_SHM
        if use_shm and HAVE_SHM and payload:
            try:
                shm = _shared_memory.SharedMemory(
                    create=True, size=len(payload)
                )
                shm.buf[: len(payload)] = payload
            except OSError:
                shm = None  # /dev/shm unavailable: inline fallback
        return cls(segments, payload, shm)

    @property
    def shm_name(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    @property
    def nbytes(self) -> int:
        return sum(nb for _, nb, _ in self.segments.values())

    def spec(self) -> dict:
        """The small picklable handle workers attach from."""
        return {
            "shm_name": self.shm_name,
            "inline": self._payload if self._shm is None else None,
            "segments": self.segments,
        }

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()

    def unlink(self) -> None:
        """Release the segment (parent-side, exactly once, in a
        ``finally``) — after this, attaching by name must fail."""
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._shm = None


class AttachedSweepContext:
    """Worker-side read-only view of a :class:`SharedSweepContext`."""

    def __init__(self, spec: dict) -> None:
        self.segments = spec["segments"]
        self._shm = None
        if spec["shm_name"] is not None:
            # workers share the parent's resource tracker, so attaching
            # re-registers a name the tracker already holds; the parent's
            # unlink() is the one unregister.  Unregistering here too
            # would make that unlink a tracker KeyError traceback.
            self._shm = _shared_memory.SharedMemory(name=spec["shm_name"])
            self._buf = self._shm.buf
        else:
            self._buf = spec["inline"] or b""

    def raw(self, name: str) -> tuple[memoryview | bytes, tuple] | None:
        entry = self.segments.get(name)
        if entry is None:
            return None
        offset, nbytes, meta = entry
        return self._buf[offset : offset + nbytes], meta

    def adj_rows(self) -> list[int]:
        blob, (nprocs, rowbytes) = self.raw("adj")
        return [
            int.from_bytes(blob[i * rowbytes : (i + 1) * rowbytes], "little")
            for i in range(nprocs)
        ]

    def end_masks(self) -> tuple[int, int]:
        blob, (rowbytes,) = self.raw("ends")
        return (
            int.from_bytes(blob[:rowbytes], "little"),
            int.from_bytes(blob[rowbytes:], "little"),
        )

    def gray(self, j: int) -> np.ndarray | None:
        """The size-*j* revolving-door index array mapped straight onto
        the shared buffer (no copy), or ``None`` when it was not packed
        (size 0, or above the element cap)."""
        entry = self.raw(f"gray:{j}")
        if entry is None:
            return None
        blob, (dtype, rows, cols) = entry
        arr = np.frombuffer(blob, dtype=np.dtype(dtype), count=rows * cols)
        return arr.reshape(rows, cols)

    def close(self) -> None:
        self._buf = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------
def _pool_worker_main(
    wid: int,
    task_q,
    result_q,
    init_blob: bytes,
    worker_body,
    fault_spec: dict | None,
) -> None:  # pragma: no cover - runs in child processes
    """Generic worker loop: ``worker_body(state, task)`` per task.

    ``init_blob`` is unpickled once (the network, policy, shared-segment
    spec, …); ``fault_spec`` lets tests inject a hard mid-chunk death
    (``{"die_wid": 0, "die_seq": 3}``) to exercise crash recovery.
    """
    state = None
    init_exc: BaseException | None = None
    try:
        init_args = pickle.loads(init_blob)
        state = worker_body.init(wid, init_args)
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        init_exc = exc
    while True:
        task = task_q.get()
        if task is None or task[0] == "stop":
            break
        seq = task[1]
        if (
            fault_spec
            and fault_spec.get("die_wid") == wid
            and fault_spec.get("die_seq") == seq
        ):
            os._exit(3)  # simulated mid-chunk crash: no result, no cleanup
        try:
            if init_exc is not None:
                raise init_exc
            result = worker_body.run(state, task)
            result_q.put((wid, seq, "ok", result))
        except BaseException as exc:  # noqa: BLE001
            import traceback

            result_q.put((wid, seq, "exc", traceback.format_exc()))
            if not isinstance(exc, Exception):
                raise
    if state is not None:
        # a failing close crashes the (already exiting) worker visibly
        # rather than being swallowed here
        worker_body.close(state)


class ShmWorkerPool:
    """A small fork pool with precise crash recovery.

    Each worker owns a private task queue; the parent records every
    submitted task as in-flight until its result (or a duplicate) comes
    back.  :meth:`get` blocks with a liveness poll: when a worker
    process is found dead, its in-flight tasks are resubmitted to the
    surviving workers.  When *no* worker survives,
    :class:`WorkerPoolError` is raised rather than hanging.
    """

    def __init__(
        self,
        workers: int,
        worker_body,
        init_args: tuple,
        *,
        fault_spec: dict | None = None,
        mp_context=None,
    ) -> None:
        import multiprocessing

        ctx = mp_context
        if ctx is None:
            ctx = (
                multiprocessing.get_context("fork")
                if hasattr(multiprocessing, "get_context")
                else multiprocessing
            )
        self._result_q = ctx.Queue()
        init_blob = pickle.dumps(init_args)
        self._task_qs = []
        self._procs = []
        self._inflight: list[dict[int, tuple]] = []
        self._done: set[int] = set()
        self._rr = 0
        for wid in range(workers):
            tq = ctx.Queue()
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(wid, tq, self._result_q, init_blob, worker_body,
                      fault_spec),
                daemon=True,
            )
            proc.start()
            self._task_qs.append(tq)
            self._procs.append(proc)
            self._inflight.append({})

    # -- submission ----------------------------------------------------
    def _alive(self) -> list[int]:
        return [w for w, p in enumerate(self._procs) if p.is_alive()]

    def submit(self, task: tuple) -> None:
        """Dispatch *task* (``(kind, seq, ...)``) round-robin over the
        live workers."""
        alive = self._alive()
        if not alive:
            raise WorkerPoolError("no live workers to submit to")
        wid = alive[self._rr % len(alive)]
        self._rr += 1
        self._inflight[wid][task[1]] = task
        self._task_qs[wid].put(task)

    # -- results -------------------------------------------------------
    def _requeue_dead(self) -> None:
        alive = self._alive()
        for wid, proc in enumerate(self._procs):
            if proc.is_alive() or not self._inflight[wid]:
                continue
            orphans = self._inflight[wid]
            self._inflight[wid] = {}
            if not alive:
                raise WorkerPoolError(
                    f"all workers dead with {len(orphans)} chunks in flight"
                )
            for seq, task in orphans.items():
                if seq in self._done:
                    continue
                nwid = alive[self._rr % len(alive)]
                self._rr += 1
                self._inflight[nwid][seq] = task
                self._task_qs[nwid].put(task)

    def get(self):
        """Next ``(seq, result)``, blocking; resubmits the in-flight
        work of any worker found dead while waiting.  Duplicate results
        for an already-acked sequence number are silently dropped."""
        while True:
            try:
                wid, seq, kind, payload = self._result_q.get(
                    timeout=POLL_SECONDS
                )
            except _queue.Empty:
                self._requeue_dead()
                continue
            if seq in self._done:
                continue  # the sender died after answering; already acked
            self._done.add(seq)
            for flight in self._inflight:
                flight.pop(seq, None)
            if kind == "exc":
                raise VerificationError(f"worker {wid} failed:\n{payload}")
            return seq, payload

    # -- teardown ------------------------------------------------------
    def close(self, join_timeout: float = 5.0) -> None:
        """Orderly shutdown: stop sentinel per live worker, then join
        (terminating stragglers)."""
        for wid, tq in enumerate(self._task_qs):
            if self._procs[wid].is_alive():
                tq.put(("stop",))
        for proc in self._procs:
            proc.join(timeout=join_timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        self._drain_queues()

    def kill(self) -> None:
        """Hard stop (counterexample found: outstanding work is moot)."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=1.0)
        self._drain_queues()

    def _drain_queues(self) -> None:
        for q in (*self._task_qs, self._result_q):
            q.cancel_join_thread()
            q.close()

    def __enter__(self) -> "ShmWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
