"""Process-parallel exhaustive verification over shared-memory workers.

The sweep's fault-set space shards cleanly, but the PR-7 pool shipped
every chunk as a pickled list of fault sets and was *slower* than the
serial warm sweep on every benchmarked instance — dispatch overhead,
not algorithm.  This rewrite removes the overhead at both ends:

* **Index-range chunks.**  A chunk is ``(size, start_rank, count,
  seed_witness)``: four integers addressing a contiguous range of the
  revolving-door sequence (:func:`~repro.core.verify.exhaustive.gray_unrank`
  makes any rank reachable in O(n)).  No fault sets, no
  ``SpanningPathInstance`` pickles ever cross the pipe.
* **Persistent shared-memory workers.**  The bulk read-only tables —
  revolving-door index arrays, adjacency bitmask rows, start/end
  attachment masks — are packed once into a
  :class:`~repro.core.verify.shm.SharedSweepContext`; workers attach at
  startup and map views straight onto the segment
  (:mod:`repro.core.verify.shm` also documents the no-shm fallback).
* **Batched bitmask kernel in every worker.**  Each worker accepts the
  bulk of its range with the vectorized witness kernel
  (:mod:`repro.core.verify.batch`) and runs the scalar warm path only
  on the residue, so one dispatch covers thousands of fault sets.

Three layers of work-avoidance still compose above that:

* **Dispatch thresholds**: sweeps under :data:`DISPATCH_THRESHOLD`
  fault sets auto-fall back to the serial warm path (``workers=None``),
  and sweeps under :data:`POOL_MIN_SETS` run the batch kernel
  in-process instead of paying pool startup — ``parallel`` never loses
  to ``warm`` by dispatch overhead again.  An *explicit* ``workers``
  count is always honored (the trace tests pin real worker spans).
* **Symmetry sharding** (opt-in, ``symmetry="auto"``): when the
  automorphism group is nontrivial, orbit representatives are sharded
  as explicit ``(fault_set, multiplicity)`` items (orbit reps are not
  contiguous in rank space) and verdicts are weighted so certificates
  match the full sweep.  It is off by default: the parent enumerates
  the group and the representatives before any worker starts, and the
  item path never seeds the batch kernel.  On a 2-CPU x86_64 host
  ring-C16(1,2) k=3 took 1.06 s that way against 0.18 s for the default
  Gray-range sweep, and ring-C32(1,2,3) k=2 took 1.85 s against 0.08 s.
* **Adaptive chunking**: chunk sizes resize from an EWMA of measured
  per-set cost targeting ~100 ms per chunk; an explicit ``chunk_size``
  pins them.

Worker crash recovery lives in
:class:`~repro.core.verify.shm.ShmWorkerPool`: a worker dying mid-chunk
has its in-flight ranges requeued on the survivors, and the parent
unlinks the shared segment exactly once in a ``finally``.  Results are
deterministic and identical to the serial sweep (asserted in the test
suite), modulo *which* counterexample is reported when several exist.
"""

from __future__ import annotations

import multiprocessing
import time
from itertools import islice
from math import comb
from typing import Callable, Hashable, Iterable

from ...errors import InvalidParameterError
from ...obs.spans import (
    SpanContext,
    annotate,
    current_context,
    current_tracer,
    make_span_dict,
)
from ..hamilton import SolvePolicy, SpanningPathInstance, Status, solve
from ..model import PipelineNetwork
from .batch import WitnessKernel, verify_exhaustive_batched
from .certificates import VerificationCertificate, VerificationMode
from .exhaustive import iter_fault_sets_gray, iter_gray_indices, verify_exhaustive
from .shm import AttachedSweepContext, SharedSweepContext, ShmWorkerPool
from .symmetry import (
    DEFAULT_GROUP_CAP,
    CanonicalVerdictCache,
    enumerate_group,
    orbit_representatives,
)
from .warm import WitnessSweeper, verify_exhaustive_warm

Node = Hashable

#: sweeps smaller than this auto-fall back to the serial warm path when
#: ``workers`` is left unset — below it, even in-process batching cannot
#: amortize its setup against the handful of fault sets.
DISPATCH_THRESHOLD = 256
#: sweeps smaller than this run the batch kernel in-process rather than
#: paying worker-pool startup (``workers=None`` only; an explicit
#: ``workers`` count always gets its pool).
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
    """Worker body for :class:`~repro.core.verify.shm.ShmWorkerPool`.

    ``init`` runs once per worker process: attach the shared segment,
    rebuild the witness kernel from the shipped general witnesses, and
    sanity-check the segment's adjacency rows against the network the
    kernel derived locally.  ``run`` decides one chunk — an index range
    (``"range"``) or a list of weighted orbit representatives
    (``"items"``) — and returns a flat counter tuple plus a finished
    per-chunk span dict.
    """

    class _State:
        __slots__ = (
            "network", "policy", "warm", "trace_ctx", "universe", "n",
            "sweeper", "kernel", "attached", "witnesses", "verdicts",
        )

    @staticmethod
    def init(wid: int, args: tuple) -> "_SweepWorker._State":
        (network, policy, warm, trace_ctx, spec, universe, k,
         witnesses, group) = args
        st = _SweepWorker._State()
        st.network = network
        st.policy = policy
        st.warm = warm
        st.trace_ctx = trace_ctx
        st.universe = universe
        st.n = len(universe)
        st.attached = AttachedSweepContext(spec) if spec is not None else None
        st.witnesses = witnesses or []
        st.sweeper = (
            WitnessSweeper(
                network,
                policy,
                seed_bits=st.witnesses[0] if st.witnesses else None,
            )
            if warm
            else None
        )
        st.verdicts = CanonicalVerdictCache(group) if group else None
        st.kernel = None
        if warm and st.witnesses:
            kernel = WitnessKernel(network, universe, k)
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
    def _decide_cold(st, fault_set):
        inst = SpanningPathInstance(st.network.surviving(fault_set))
        report = solve(inst, st.policy)
        return report.status, 1, report.nodes_expanded

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
    def _run_range(st, seq, j, start, count, seed_wid):
        """Decide ranks ``[start, start+count)`` of the size-*j*
        revolving-door sequence, kernel first, scalar residue in rank
        order (so a counterexample truncates at the exact rank)."""
        t0 = time.perf_counter()
        sweeper = st.sweeper
        base = (
            (sweeper.solver_calls, sweeper.nodes_expanded, sweeper.adapted)
            if sweeper is not None
            else (0, 0, 0)
        )
        if (
            sweeper is not None
            and sweeper.prev_bits is None
            and seed_wid < len(st.witnesses)
        ):
            # warm-start the first residue solve from the chunk's
            # designated seed witness (normally already set at init)
            sweeper.prev_bits = list(st.witnesses[seed_wid])
        table = st.attached.gray(j) if st.attached is not None else None
        if table is not None:
            rows = table[start : start + count]
        else:
            rows = list(iter_gray_indices(st.n, j, start, count))
        kernel = st.kernel if j > 0 else None
        if kernel is not None:
            acc = kernel.accept_batch(rows)
            acc_list = acc if isinstance(acc, list) else acc.tolist()
        else:
            acc_list = [False] * len(rows)
        universe = st.universe
        checked = tolerated = kernel_acc = solver_calls = nodes = 0
        counterexample = None
        undecided: list[tuple] = []
        for i, ok in enumerate(acc_list):
            checked += 1
            if ok:
                tolerated += 1
                kernel_acc += 1
                continue
            fault_set = tuple(universe[int(x)] for x in rows[i])
            if sweeper is not None:
                status = sweeper.decide(fault_set)
                if kernel is not None and sweeper.prev_bits:
                    kernel.add_witness(list(sweeper.prev_bits))
            else:
                status, calls, expanded = _SweepWorker._decide_cold(
                    st, fault_set
                )
                solver_calls += calls
                nodes += expanded
            if status is Status.FOUND:
                tolerated += 1
            elif status is Status.UNDECIDED:
                undecided.append(fault_set)
            else:
                counterexample = fault_set
                break
        if sweeper is not None:
            solver_calls = sweeper.solver_calls - base[0]
            nodes = sweeper.nodes_expanded - base[1]
            adapted = sweeper.adapted - base[2]
        else:
            adapted = 0
        elapsed = time.perf_counter() - t0
        span = _SweepWorker._span(
            st, seq, elapsed, len(rows), solver_calls, adapted
        )
        return (
            checked, tolerated, counterexample, undecided,
            solver_calls, nodes, adapted, kernel_acc,
            elapsed, len(rows), span,
        )

    @staticmethod
    def _run_items(st, seq, items):
        """Decide explicit ``(fault_set, multiplicity)`` orbit
        representatives (the symmetry-sharded mode)."""
        t0 = time.perf_counter()
        sweeper = st.sweeper
        base = (
            (sweeper.solver_calls, sweeper.nodes_expanded, sweeper.adapted)
            if sweeper is not None
            else (0, 0, 0)
        )
        checked = tolerated = solver_calls = nodes = 0
        counterexample = None
        undecided: list[tuple] = []
        for fault_set, mult in items:
            checked += mult
            cached = (
                st.verdicts.get(fault_set) if st.verdicts is not None else None
            )
            if cached is not None:
                status = cached
            elif sweeper is not None:
                status = sweeper.decide(fault_set)
            else:
                status, calls, expanded = _SweepWorker._decide_cold(
                    st, fault_set
                )
                solver_calls += calls
                nodes += expanded
            if st.verdicts is not None and cached is None:
                st.verdicts.put(fault_set, status)
            if status is Status.FOUND:
                tolerated += mult
            elif status is Status.UNDECIDED:
                undecided.extend([fault_set] * mult)
            elif counterexample is None:
                counterexample = fault_set
        if sweeper is not None:
            solver_calls = sweeper.solver_calls - base[0]
            nodes = sweeper.nodes_expanded - base[1]
            adapted = sweeper.adapted - base[2]
        else:
            adapted = 0
        elapsed = time.perf_counter() - t0
        span = _SweepWorker._span(
            st, seq, elapsed, len(items), solver_calls, adapted
        )
        return (
            checked, tolerated, counterexample, undecided,
            solver_calls, nodes, adapted, 0,
            elapsed, len(items), span,
        )

    @staticmethod
    def close(st) -> None:
        if st.attached is not None:
            st.attached.close()


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
    warm: bool = True,
    stop_on_counterexample: bool = True,
    progress: Callable[[int], None] | None = None,
    _fault_spec: dict | None = None,
) -> VerificationCertificate:
    """Parallel twin of
    :func:`repro.core.verify.exhaustive.verify_exhaustive`.

    ``workers=None`` picks an engine by estimated sweep size: below
    :data:`DISPATCH_THRESHOLD` the serial warm sweep (dispatch of any
    kind would dominate), below :data:`POOL_MIN_SETS` the in-process
    batch kernel, above it one shared-memory worker per CPU.  An
    explicit ``workers`` count is honored as given; ``workers=1`` with a
    small sweep uses the serial path directly.  ``chunk_size=None``
    sizes index-range chunks adaptively from the measured solve cost; an
    explicit integer pins the size.  ``symmetry=False`` (the default)
    sweeps Gray-code rank ranges through the batch kernel.
    ``symmetry="auto"`` instead shards automorphism-orbit
    representatives (weighted by multiplicity) when the group is small
    enough to enumerate and nontrivial, and ``True`` requires it
    (raising if the group exceeds *group_cap*); both pay the group and
    orbit enumeration in the parent first.  ``warm=False`` runs every
    fault set through the cold exact solver (no kernel, no witness
    reuse: ``solver_calls == checked``).  ``progress`` is invoked with
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
    est_sets = sum(comb(n, j) for j in size_order)

    def serial():
        engine = verify_exhaustive_warm if warm else verify_exhaustive
        return engine(
            network,
            k,
            policy,
            sizes=sizes,
            fault_universe=fault_universe,
            stop_on_counterexample=stop_on_counterexample,
            progress=progress,
        )

    def in_process_batched():
        return verify_exhaustive_batched(
            network,
            k,
            policy,
            sizes=sizes,
            fault_universe=fault_universe,
            stop_on_counterexample=stop_on_counterexample,
            progress=progress,
        )

    if workers is None:
        if est_sets < DISPATCH_THRESHOLD:
            return serial()  # dispatch overhead would dominate: stay warm
        if est_sets < POOL_MIN_SETS or multiprocessing.cpu_count() <= 1:
            if warm:
                return in_process_batched()
            workers = multiprocessing.cpu_count()
        else:
            workers = multiprocessing.cpu_count()
    if workers <= 1:
        if warm and est_sets >= DISPATCH_THRESHOLD:
            return in_process_batched()
        return serial()

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
    if warm and group is None:
        seed_sweeper = WitnessSweeper(network, policy)
        if (
            seed_sweeper.decide(()) is Status.FOUND
            and seed_sweeper.prev_bits
        ):
            seed_kernel = WitnessKernel(network, universe, k)
            if seed_kernel.add_witness(list(seed_sweeper.prev_bits)):
                seed_kernel.diversify(policy)
                witnesses = [list(w.bits) for w in seed_kernel.general]
        parent_solver_calls = seed_sweeper.solver_calls
        parent_nodes = seed_sweeper.nodes_expanded

    shared: SharedSweepContext | None = None
    spec = None
    if group is None:
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

    pool = ShmWorkerPool(
        workers,
        _SweepWorker,
        (network, policy, warm, trace_ctx, spec, universe, k,
         witnesses, group),
        fault_spec=_fault_spec,
    )
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
    mode = "warm" if warm else "cold"
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
            f"{network!r} [parallel x{workers} {mode}: {shard} "
            f"{checked} fault sets, {kernel_accepted} kernel + "
            f"{adapted} adapted + {solver_calls} solves]"
        ),
        solver_calls=solver_calls,
        nodes_expanded=nodes_expanded,
    )
