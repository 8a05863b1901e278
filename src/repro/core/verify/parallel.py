"""Exhaustive verification on the witness kernel: one chunk worker, run
in-process or on a pool of shared-memory workers.

Every kernel sweep goes through :func:`verify_exhaustive_parallel`.  The
parent solves the fault-free instance once and diversifies its path
into a library of general witnesses (:mod:`repro.core.verify.batch`).
The sweep is then cut into **index-range chunks**: ``("range", seq,
size, start_rank, count, seed_witness)`` addresses a contiguous range
of the revolving-door sequence
(:func:`~repro.core.verify.exhaustive.gray_unrank` makes any rank
reachable), so no fault set and no instance is ever pickled.
:class:`_SweepWorker` decides a chunk: the vectorized witness kernel
accepts what it can prove, and a
:class:`~repro.core.verify.warm.WitnessSweeper` decides the residue
exactly, in rank order, growing the library as it solves.

Only the executor differs:

* **in-process** (:class:`_InProcessPool`): one worker state in the
  caller's process, slicing the cached revolving-door tables directly.
  ``workers=1`` runs here, and so does ``workers=None`` below
  :data:`POOL_MIN_SETS` fault sets or with one usable CPU.
* **pool** (:class:`~repro.core.verify.shm.ShmWorkerPool`): persistent
  forked workers that attach once to a
  :class:`~repro.core.verify.shm.SharedSweepContext` holding the tables,
  so a dispatch carries no table data.  A worker dying mid-chunk has
  its ranges requeued on the survivors, and the parent unlinks the
  segment exactly once in a ``finally``.

Both share one fold loop, one certificate and one description.  Two
options shape the chunks:

* **Adaptive chunking**: chunk sizes resize from an EWMA of measured
  per-set cost targeting ~100 ms per chunk; an explicit ``chunk_size``
  pins them.
* **Symmetry sharding** (opt-in, ``symmetry="auto"``): when the
  automorphism group is nontrivial, orbit representatives are sharded
  as explicit ``(fault_set, multiplicity)`` items (orbit reps are not
  contiguous in rank space) and verdicts are weighted so certificates
  match the full sweep.  It is off by default: the parent enumerates
  the group and the representatives before any chunk runs, and the
  item path never seeds the kernel.  On a 2-CPU x86_64 host
  ring-C16(1,2) k=3 took 1.06 s that way against 0.18 s for the default
  Gray-range sweep, and ring-C32(1,2,3) k=2 took 1.85 s against 0.08 s.

Results are identical to the serial sweep (asserted in the test suite),
modulo *which* counterexample is reported when several exist and pool
chunks finish out of rank order.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from math import comb
from typing import Callable, Hashable, Iterable

import numpy as np

from ..._util import usable_cpus
from ...errors import InvalidParameterError
from ...obs.spans import (
    annotate,
    current_context,
    current_tracer,
    make_span_dict,
)
from ..hamilton import SolvePolicy, Status
from ..model import PipelineNetwork
from .batch import WitnessKernel, gray_index_array
from .certificates import VerificationCertificate, VerificationMode
from .exhaustive import iter_gray_indices
from .shm import AttachedSweepContext, SharedSweepContext, ShmWorkerPool
from .symmetry import (
    DEFAULT_GROUP_CAP,
    CanonicalVerdictCache,
    enumerate_group,
    orbit_representatives,
)
from .warm import WitnessSweeper

Node = Hashable

#: sweeps smaller than this run in-process rather than paying
#: worker-pool startup (``workers=None`` only; an explicit ``workers``
#: count always gets its pool).
POOL_MIN_SETS = 4096
#: adaptive chunking aims for this much work per chunk: long enough to
#: amortize dispatch, short enough for load balance and prompt
#: counterexample cancellation.
CHUNK_TARGET_SECONDS = 0.1
CHUNK_MIN = 8
#: index-range chunks are four ints regardless of count, so the cap only
#: bounds cancellation latency, not pickling cost.
CHUNK_MAX = 65536
#: smoothing factor for the per-set cost estimate.
EWMA_ALPHA = 0.3


class _SweepWorker:
    """Chunk worker body for :class:`_InProcessPool` and
    :class:`~repro.core.verify.shm.ShmWorkerPool`.

    ``init`` runs once per executor: attach the shared segment (pool
    only), rebuild the witness kernel from the parent's general
    witnesses, and sanity-check the segment's adjacency rows against the
    network the kernel derived locally.  ``run`` decides one chunk — an
    index range (``"range"``) or a list of weighted orbit
    representatives (``"items"``) — and returns a flat counter tuple
    plus a finished per-chunk span dict.
    """

    class _State:
        __slots__ = (
            "trace_ctx", "universe", "n", "stop", "sweeper", "kernel",
            "attached", "witnesses", "verdicts",
        )

    @staticmethod
    def init(wid: int, args: tuple) -> "_SweepWorker._State":
        (network, policy, trace_ctx, spec, universe, kernel_k, witnesses,
         group, stop) = args
        st = _SweepWorker._State()
        st.trace_ctx = trace_ctx
        st.universe = universe
        st.n = len(universe)
        st.stop = stop
        st.attached = AttachedSweepContext(spec) if spec is not None else None
        st.witnesses = witnesses or []
        st.sweeper = WitnessSweeper(
            network,
            policy,
            seed_bits=st.witnesses[0] if st.witnesses else None,
        )
        st.verdicts = CanonicalVerdictCache(group) if group else None
        st.kernel = None
        if st.witnesses:
            kernel = WitnessKernel(network, universe, kernel_k)
            for bits in st.witnesses:
                kernel.add_witness(bits)
            if kernel.general:
                st.kernel = kernel
                if st.attached is not None and (
                    kernel.builder.base_adj != st.attached.adj_rows()
                ):
                    raise RuntimeError(
                        "shared segment adjacency rows disagree with the "
                        "worker's network — stale or foreign segment"
                    )
        return st

    @staticmethod
    def run(st: "_SweepWorker._State", task: tuple) -> tuple:
        if task[0] == "range":
            _, seq, j, start, count, seed_wid = task
            return _SweepWorker._run_range(st, seq, j, start, count, seed_wid)
        _, seq, items = task
        return _SweepWorker._run_items(st, seq, items)

    @staticmethod
    def _span(st, seq, elapsed, n_items, solver_calls, adapted):
        if st.trace_ctx is None:
            return None
        return make_span_dict(
            st.trace_ctx,
            str(seq),
            "verify_chunk",
            elapsed,
            {
                "n_items": n_items,
                "solver_calls": solver_calls,
                "adapted": adapted,
            },
        )

    @staticmethod
    def _rows(st, j, start, count) -> np.ndarray:
        """Ranks ``[start, start+count)`` of the size-*j* revolving-door
        sequence as universe-index rows: a slice of the shared segment's
        table in a pool worker, of the cached table in-process, unranked
        on the fly above the table's element cap."""
        table = st.attached.gray(j) if st.attached is not None else None
        if table is None and j:
            try:
                table = gray_index_array(st.n, j)
            except ValueError:
                pass  # above the element cap
        if table is None:
            rows = list(iter_gray_indices(st.n, j, start, count))
            return np.array(rows, dtype=np.int32).reshape(len(rows), j)
        return table[start : start + count]

    @staticmethod
    def _run_range(st, seq, j, start, count, seed_wid):
        """Decide ranks ``[start, start+count)`` of the size-*j*
        revolving-door sequence, kernel first, residue in rank order (so
        a stopping counterexample truncates at its exact rank)."""
        t0 = time.perf_counter()
        sweeper = st.sweeper
        base = (sweeper.solver_calls, sweeper.nodes_expanded, sweeper.adapted)
        if sweeper.prev_bits is None and seed_wid < len(st.witnesses):
            # warm-start the first residue solve from the chunk's
            # designated seed witness (normally already set at init)
            sweeper.prev_bits = list(st.witnesses[seed_wid])
        rows = _SweepWorker._rows(st, j, start, count)
        kernel = st.kernel if j > 0 else None
        if kernel is not None:
            acc = kernel.accept_batch(rows)
        else:
            acc = np.zeros(len(rows), dtype=bool)
        universe = st.universe
        checked = len(rows)
        found = 0
        counterexample = None
        undecided: list[tuple] = []
        for i in np.flatnonzero(~acc).tolist():
            fault_set = tuple(universe[x] for x in rows[i].tolist())
            status = sweeper.decide(fault_set)
            if kernel is not None and sweeper.prev_bits:
                kernel.add_witness(sweeper.prev_bits)
            if status is Status.FOUND:
                found += 1
            elif status is Status.UNDECIDED:
                undecided.append(fault_set)
            elif counterexample is None:
                counterexample = fault_set
                if st.stop:
                    checked = i + 1
                    break
        kernel_acc = int(acc[:checked].sum())
        solver_calls = sweeper.solver_calls - base[0]
        adapted = sweeper.adapted - base[2]
        elapsed = time.perf_counter() - t0
        span = _SweepWorker._span(
            st, seq, elapsed, len(rows), solver_calls, adapted
        )
        return (
            checked, kernel_acc + found, counterexample, undecided,
            solver_calls, sweeper.nodes_expanded - base[1], adapted,
            kernel_acc, elapsed, len(rows), span,
        )

    @staticmethod
    def _run_items(st, seq, items):
        """Decide explicit ``(fault_set, multiplicity)`` orbit
        representatives (the symmetry-sharded mode)."""
        t0 = time.perf_counter()
        sweeper = st.sweeper
        base = (sweeper.solver_calls, sweeper.nodes_expanded, sweeper.adapted)
        checked = tolerated = 0
        counterexample = None
        undecided: list[tuple] = []
        for fault_set, mult in items:
            checked += mult
            status = st.verdicts.get(fault_set)
            if status is None:
                status = sweeper.decide(fault_set)
                st.verdicts.put(fault_set, status)
            if status is Status.FOUND:
                tolerated += mult
            elif status is Status.UNDECIDED:
                undecided.extend([fault_set] * mult)
            elif counterexample is None:
                counterexample = fault_set
        solver_calls = sweeper.solver_calls - base[0]
        adapted = sweeper.adapted - base[2]
        elapsed = time.perf_counter() - t0
        span = _SweepWorker._span(
            st, seq, elapsed, len(items), solver_calls, adapted
        )
        return (
            checked, tolerated, counterexample, undecided,
            solver_calls, sweeper.nodes_expanded - base[1], adapted, 0,
            elapsed, len(items), span,
        )

    @staticmethod
    def close(st) -> None:
        if st.attached is not None:
            st.attached.close()


class _InProcessPool:
    """:class:`~repro.core.verify.shm.ShmWorkerPool`'s ``submit`` /
    ``get`` / ``close`` / ``kill`` over one worker state in the calling
    process: :meth:`get` runs the oldest submitted chunk."""

    def __init__(self, worker_body, init_args: tuple) -> None:
        self._body = worker_body
        self._state = worker_body.init(0, init_args)
        self._tasks: deque[tuple] = deque()

    def submit(self, task: tuple) -> None:
        self._tasks.append(task)

    def get(self) -> tuple:
        task = self._tasks.popleft()
        return task[1], self._body.run(self._state, task)

    def close(self) -> None:
        self._body.close(self._state)

    kill = close


def _clamp_chunk(size: float) -> int:
    return max(CHUNK_MIN, min(CHUNK_MAX, int(size)))


def verify_exhaustive_parallel(
    network: PipelineNetwork,
    k: int | None = None,
    policy: SolvePolicy | None = None,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    sizes: Iterable[int] | None = None,
    fault_universe: Iterable[Node] | None = None,
    symmetry: bool | str = False,
    group_cap: int = DEFAULT_GROUP_CAP,
    stop_on_counterexample: bool = True,
    progress: Callable[[int], None] | None = None,
    _fault_spec: dict | None = None,
) -> VerificationCertificate:
    """The exhaustive sweep on the witness kernel: the same fault sets
    and the same certificate as
    :func:`repro.core.verify.exhaustive.verify_exhaustive`.

    ``workers=None`` runs the chunks in-process below
    :data:`POOL_MIN_SETS` estimated fault sets or on one usable CPU, and
    on one shared-memory worker per usable CPU otherwise.  An explicit
    ``workers`` count is honored as given: ``1`` runs in-process, ``N >=
    2`` forks a pool even on one CPU.  ``chunk_size=None`` sizes
    index-range chunks adaptively from the measured per-set cost; an
    explicit integer pins the size.  ``symmetry=False`` (the default)
    sweeps Gray-code rank ranges through the kernel.
    ``symmetry="auto"`` instead shards automorphism-orbit
    representatives (weighted by multiplicity) when the group is small
    enough to enumerate and nontrivial, and ``True`` requires it
    (raising if the group exceeds *group_cap*); both pay the group and
    orbit enumeration in the parent first.  ``progress`` is invoked with
    the running multiplicity-weighted check count as chunks complete.

    ``_fault_spec`` is test-only: it is forwarded to
    :class:`~repro.core.verify.shm.ShmWorkerPool` to make a chosen
    worker die mid-chunk and exercise crash recovery.

    >>> from ...core.constructions import build
    >>> verify_exhaustive_parallel(build(3, 2), workers=1).is_proof
    True
    """
    k = network.k if k is None else k
    policy = policy or SolvePolicy()
    universe = sorted(
        network.graph.nodes if fault_universe is None else fault_universe,
        key=repr,
    )
    n = len(universe)
    size_order = [
        j for j in (list(sizes) if sizes is not None else range(k + 1))
        if j <= n
    ]
    # the kernel's run-length window and per-length tables must cover
    # the widest swept fault set, which *sizes* may put above k
    kernel_k = max([k, *size_order])
    if workers is None:
        est_sets = sum(comb(n, j) for j in size_order)
        workers = usable_cpus() if est_sets >= POOL_MIN_SETS else 1
    workers = max(workers, 1)

    t0 = time.perf_counter()

    # --- symmetry sharding: collapse the space to orbit representatives
    group = None
    if symmetry is True or (symmetry == "auto" and fault_universe is None):
        group = enumerate_group(network, group_cap)
        if group is None and symmetry is True:
            raise InvalidParameterError(
                f"automorphism group exceeds cap {group_cap}; "
                "pass symmetry='auto' or False"
            )
        if group is not None and len(group) <= 1:
            group = None  # trivial group: canonicalization is pure cost

    # --- parent-side seeding: one fault-free solve plus rotation
    # diversification gives every worker the same general library
    witnesses: list[list[int]] = []
    parent_solver_calls = parent_nodes = 0
    if group is None:
        seed_sweeper = WitnessSweeper(network, policy)
        if (
            seed_sweeper.decide(()) is Status.FOUND
            and seed_sweeper.prev_bits
        ):
            seed_kernel = WitnessKernel(network, universe, kernel_k)
            if seed_kernel.add_witness(list(seed_sweeper.prev_bits)):
                seed_kernel.diversify(policy)
                witnesses = [list(w.bits) for w in seed_kernel.general]
        parent_solver_calls = seed_sweeper.solver_calls
        parent_nodes = seed_sweeper.nodes_expanded

    # only pool workers read the tables through a shared segment; the
    # in-process executor slices the parent's cached tables directly
    shared: SharedSweepContext | None = None
    spec = None
    if group is None and workers > 1:
        shared = SharedSweepContext.create(network, universe, k, size_order)
        spec = shared.spec()

    # adaptive chunk sizing: the generator below reads the holder at
    # *emission* time, so completed-chunk timings steer upcoming splits
    next_size = [chunk_size if chunk_size is not None else CHUNK_MIN]
    ewma: float | None = None
    chunk_seq = [0]

    def range_chunks():
        for j in size_order:
            total = comb(n, j)
            pos = 0
            while pos < total:
                step = min(next_size[0], total - pos)
                task = ("range", chunk_seq[0], j, pos, step, 0)
                chunk_seq[0] += 1
                pos += step
                yield task

    def item_chunks(reps):
        it = iter(reps)
        while True:
            chunk = list(islice(it, next_size[0]))
            if not chunk:
                return
            task = ("items", chunk_seq[0], chunk)
            chunk_seq[0] += 1
            yield task

    if group is not None:
        reps = orbit_representatives(universe, k, group, sizes)
        n_reps = len(reps)
        chunk_iter = item_chunks(reps)
    else:
        n_reps = None
        chunk_iter = range_chunks()

    tracer = current_tracer()
    trace_ctx = current_context()

    checked = tolerated = solver_calls = nodes_expanded = adapted = 0
    kernel_accepted = 0
    counterexample: tuple | None = None
    undecided: list[tuple] = []
    outstanding = 0
    chunks_done = 0
    killed = False

    init_args = (network, policy, trace_ctx, spec, universe, kernel_k,
                 witnesses, group, stop_on_counterexample)
    if workers > 1:
        pool = ShmWorkerPool(
            workers, _SweepWorker, init_args, fault_spec=_fault_spec
        )
    else:
        pool = _InProcessPool(_SweepWorker, init_args)
    try:
        def submit() -> bool:
            nonlocal outstanding
            task = next(chunk_iter, None)
            if task is None:
                return False
            pool.submit(task)
            outstanding += 1
            return True

        # bounded submission window: enough chunks in flight to keep
        # every worker busy, few enough that adaptive resizing and
        # counterexample cancellation bite.
        exhausted = False
        for _ in range(2 * workers):
            if not submit():
                exhausted = True
                break
        while outstanding:
            _, res = pool.get()
            outstanding -= 1
            (c, t, cex, und, calls, nodes, adapt, kern,
             elapsed, n_items, span) = res
            checked += c
            tolerated += t
            solver_calls += calls
            nodes_expanded += nodes
            adapted += adapt
            kernel_accepted += kern
            undecided.extend(und)
            chunks_done += 1
            if span is not None and tracer is not None:
                tracer.record(span)
            if chunk_size is None and n_items:
                per_set = elapsed / n_items
                ewma = (
                    per_set
                    if ewma is None
                    else EWMA_ALPHA * per_set + (1 - EWMA_ALPHA) * ewma
                )
                next_size[0] = _clamp_chunk(
                    CHUNK_TARGET_SECONDS / max(ewma, 1e-9)
                )
            if progress is not None:
                progress(checked)
            if cex is not None and counterexample is None:
                counterexample = cex
                if stop_on_counterexample:
                    pool.kill()
                    killed = True
                    break
            if not exhausted and not submit():
                exhausted = True
    finally:
        if not killed:
            pool.close()
        if shared is not None:
            shared.unlink()

    solver_calls += parent_solver_calls
    nodes_expanded += parent_nodes
    shard = (
        f"{n_reps} orbit reps (|Aut| = {len(group)}) for"
        if group is not None
        else "gray ranges over"
    )
    # dispatch accounting on the caller's active span (if any): how many
    # chunks ran and how the adaptive sizing settled — the numbers needed
    # to explain parallel overhead vs. the serial warm sweep
    annotate(
        chunks=chunks_done,
        final_chunk_size=next_size[0],
        workers=workers,
        adapted=adapted,
        kernel_accepted=kernel_accepted,
        solver_calls=solver_calls,
    )
    return VerificationCertificate(
        mode=VerificationMode.EXHAUSTIVE,
        k=k,
        checked=checked,
        tolerated=tolerated,
        counterexample=counterexample,
        undecided=tuple(undecided),
        elapsed_seconds=time.perf_counter() - t0,
        network_description=(
            f"{network!r} [parallel x{workers}: {shard} "
            f"{checked} fault sets, {kernel_accepted} kernel + "
            f"{adapted} adapted + {solver_calls} solves]"
        ),
        solver_calls=solver_calls,
        nodes_expanded=nodes_expanded,
    )
