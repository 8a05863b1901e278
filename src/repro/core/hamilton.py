"""Spanning-path (pipeline-existence) solvers.

Deciding whether ``G \\ F`` contains a pipeline reduces to a constrained
Hamiltonian-path problem on the healthy processor subgraph: find a path
that covers *every* healthy processor, starts at a processor adjacent to a
healthy input terminal and ends at one adjacent to a healthy output
terminal.  This module provides:

* :class:`SpanningPathInstance` — a bitmask encoding of that problem built
  from a :class:`~repro.core.model.SurvivorView`;
* :class:`IncrementalInstanceBuilder` — instances for successive fault
  sets of one network in a shared, network-global bit space, patched by
  the delta between fault sets (the warm sweep and the online session);
* :func:`solve_backtracking` — exact DFS with connectivity / dead-end /
  forced-endpoint pruning and Warnsdorff ordering (complete: a ``NONE``
  answer is a proof, subject to the node budget);
* :func:`solve_held_karp` — exact subset DP for small instances, plus
  :func:`count_spanning_paths` (the number of distinct pipelines, a useful
  redundancy metric);
* :func:`solve_posa` — Pósa rotation–extension heuristic (fast on the
  dense, near-regular graphs the constructions produce; incomplete);
* :func:`solve` — the portfolio: Pósa first, exact fallback;
* :func:`find_pipeline` / :func:`has_pipeline` — network-level wrappers
  returning :class:`~repro.core.pipeline.Pipeline` objects.

All exact routines honor a node budget and report ``UNDECIDED`` rather
than silently lying when it runs out.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from .._util import as_rng, iter_bits
from ..errors import BudgetExceededError, InvalidParameterError
from .model import PipelineNetwork, SurvivorView
from .pipeline import Pipeline

Node = Hashable

#: Default exact-search node budget.  Chosen so that a single verification
#: query on the paper-sized instances (< ~60 processors) stays well under a
#: second in the common case while still letting hard queries finish.
DEFAULT_BUDGET = 4_000_000

#: Held-Karp is preferred below this many healthy processors: the DP is
#: O(2^h * h^2) but with tiny constants and no risk of pathological
#: backtracking behaviour.
HELD_KARP_LIMIT = 16

#: Use flat preallocated DP tables (indexed ``mask * B + last``) when the
#: instance's bitmask space spans at most this many bits; sparser
#: instances (warm-built over a large network's global index space) fall
#: back to dict tables, whose memory tracks the reachable states only.
FLAT_DP_BITS = 18

#: reusable flat-DP scratch tables, keyed by bit-space width.  An
#: exhaustive sweep calls the flat Held-Karp path thousands of times on
#: instances of identical width; reallocating the ``O(2^B)`` ``lasts``
#: list and ``O(B * 2^B)`` parent table per call costs more than the DP
#: itself on small widths.  Thread-local because the fleet service
#: solves from several threads; per-thread, per-width reuse is the
#: common case (one sweep = one width).  Invariant: ``lasts`` is
#: all-zero between calls — the DP zeroes each entry as it expands it,
#: and the epilogue zeroes the final layer.  Stale ``parent`` bytes are
#: harmless: reconstruction only follows states set during the current
#: call.
_FLAT_SCRATCH = threading.local()
_FLAT_SCRATCH_WIDTHS = 4


def _flat_scratch(B: int) -> tuple[list[int], bytearray]:
    cache: dict[int, tuple[list[int], bytearray]]
    cache = getattr(_FLAT_SCRATCH, "tables", None)
    if cache is None:
        cache = _FLAT_SCRATCH.tables = {}
    hit = cache.get(B)
    if hit is None:
        if len(cache) >= _FLAT_SCRATCH_WIDTHS:
            cache.clear()
        hit = cache[B] = ([0] * (1 << B), bytearray(B << B))
    return hit


class Status(enum.Enum):
    """Outcome of a solve attempt."""

    FOUND = "found"
    NONE = "none"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SolveReport:
    """Result of a spanning-path solve.

    ``path`` is the full pipeline node sequence (terminal, processors...,
    terminal) when ``status`` is ``FOUND``, else ``None``.
    """

    status: Status
    path: tuple[Node, ...] | None = None
    method: str = ""
    nodes_expanded: int = 0

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND


@dataclass
class SolvePolicy:
    """Knobs for the portfolio solver.

    ``posa_restarts = 0`` disables the heuristic (pure exact solving, used
    by tests that exercise the exact path).  ``allow_undecided = False``
    turns budget exhaustion into :class:`~repro.errors.BudgetExceededError`
    instead of an ``UNDECIDED`` report.
    """

    posa_restarts: int = 24
    posa_rotations: int = 400
    budget: int = DEFAULT_BUDGET
    held_karp_limit: int = HELD_KARP_LIMIT
    allow_undecided: bool = True
    seed: int = 0x5EED
    initial_order: Sequence[Node] | None = None


class SpanningPathInstance:
    """Bitmask form of the pipeline-existence problem on ``G \\ F``."""

    __slots__ = (
        "survivor",
        "procs",
        "index",
        "adj",
        "start_mask",
        "end_mask",
        "full",
        "h",
        "trivial",
    )

    def __init__(self, survivor: SurvivorView) -> None:
        self.survivor = survivor
        self.procs: list[Node] = sorted(survivor.processors, key=repr)
        self.index = {p: i for i, p in enumerate(self.procs)}
        self.h = len(self.procs)
        g = _neighbor_graph(survivor)
        self.adj = [0] * self.h
        for p in self.procs:
            i = self.index[p]
            m = 0
            for q in g.neighbors(p):
                j = self.index.get(q)
                if j is not None:
                    m |= 1 << j
            self.adj[i] = m
        self.start_mask = 0
        for p in survivor.input_attached():
            self.start_mask |= 1 << self.index[p]
        self.end_mask = 0
        for p in survivor.output_attached():
            self.end_mask |= 1 << self.index[p]
        self.full = (1 << self.h) - 1 if self.h else 0
        # trivial outcomes decided at build time
        self.trivial: SolveReport | None = self._resolve_trivial()

    # ------------------------------------------------------------------
    @classmethod
    def from_parts(
        cls,
        survivor: SurvivorView,
        procs: list[Node],
        index: dict[Node, int],
        adj: list[int],
        start_mask: int,
        end_mask: int,
        full: int,
    ) -> "SpanningPathInstance":
        """Assemble an instance from precomputed bitmask parts.

        Used by :class:`IncrementalInstanceBuilder`, which patches one
        network-wide set of adjacency masks incrementally instead of
        re-deriving them per fault set.  The bit space may be *sparse*:
        ``full`` is the mask of healthy processor bits within the
        network-global index space, and ``procs``/``adj`` cover every
        processor (rows outside ``full`` are never read by the
        solvers).  Requires at least two healthy
        processors — the caller handles smaller survivors through the
        plain constructor, whose trivial-case analysis assumes dense
        indexing.
        """
        inst = cls.__new__(cls)
        inst.survivor = survivor
        inst.procs = procs
        inst.index = index
        inst.adj = adj
        inst.start_mask = start_mask
        inst.end_mask = end_mask
        inst.full = full
        inst.h = full.bit_count()
        if inst.h < 2:
            raise InvalidParameterError(
                "from_parts requires >= 2 healthy processors"
            )
        if not survivor.inputs or not survivor.outputs or not start_mask or not end_mask:
            inst.trivial = SolveReport(Status.NONE, method="trivial")
        else:
            inst.trivial = None
        return inst

    # ------------------------------------------------------------------
    def _resolve_trivial(self) -> SolveReport | None:
        surv = self.survivor
        if not surv.inputs or not surv.outputs:
            return SolveReport(Status.NONE, method="trivial")
        if self.h == 0:
            # only a direct terminal-terminal edge could form a pipeline;
            # the model forbids terminal interiors so check edges directly
            g, outs = _neighbor_graph(surv), surv.outputs
            for t in surv.inputs:
                for u in g.neighbors(t):
                    if u in outs:
                        return SolveReport(Status.FOUND, (t, u), method="trivial")
            return SolveReport(Status.NONE, method="trivial")
        if self.start_mask == 0 or self.end_mask == 0:
            return SolveReport(Status.NONE, method="trivial")
        if self.h == 1:
            both = self.start_mask & self.end_mask
            if both:
                p = self.procs[0]
                return SolveReport(
                    Status.FOUND, tuple(self._attach_terminals([p])), method="trivial"
                )
            return SolveReport(Status.NONE, method="trivial")
        return None

    # ------------------------------------------------------------------
    def _attach_terminals(self, proc_path: Sequence[Node]) -> list[Node]:
        """Wrap a processor path with one healthy terminal at each end
        (the first in the graph's neighbor order)."""
        surv = self.survivor
        g = _neighbor_graph(surv)
        head, tail = proc_path[0], proc_path[-1]
        ins, outs = surv.inputs, surv.outputs
        t_in = next(t for t in g.neighbors(head) if t in ins)
        t_out = next(t for t in g.neighbors(tail) if t in outs)
        return [t_in, *proc_path, t_out]

    def report_from_bits(self, bit_path: Sequence[int], method: str, expanded: int) -> SolveReport:
        proc_path = [self.procs[i] for i in bit_path]
        return SolveReport(
            Status.FOUND, tuple(self._attach_terminals(proc_path)), method, expanded
        )


def _neighbor_graph(survivor: SurvivorView):
    """The graph whose neighbor lists an instance reads.

    A :class:`SurvivorView` reads the full network graph: every neighbor
    is then filtered through the healthy processor index or the healthy
    terminal sets, which is exact and builds no subgraph view.  Any other
    survivor (the edge-fault view of :mod:`repro.core.edge_faults`) reads
    its own ``graph``, since it prunes edges a fault set cannot express.
    """
    if isinstance(survivor, SurvivorView):
        return survivor.network.graph
    return survivor.graph


class IncrementalInstanceBuilder:
    """Builds :class:`SpanningPathInstance` objects for successive fault
    sets of one network by patching shared bitmask state.

    Processors get *network-global* bit indices (the ``repr``-sorted
    order every cold instance uses for its healthy survivors), so masks
    stay comparable across fault sets and a witness path propagates as a
    plain bit sequence.  Per fault set, only the adjacency rows touched
    by the delta against the previous fault set are recomputed, and the
    start/end attachment masks are refreshed from per-processor terminal
    tables — no subgraph views, no re-sorting, no dict rebuilds.  The
    network's structure is read once, at construction.

    Survivors with fewer than two healthy processors fall back to the
    plain constructor (whose trivial-case analysis assumes dense
    indexing); :meth:`instance` flags which space the instance lives in.
    """

    def __init__(self, network: PipelineNetwork) -> None:
        self.network = network
        g = network.graph
        self.procs: list[Node] = sorted(network.processors, key=repr)
        self.index: dict[Node, int] = {p: i for i, p in enumerate(self.procs)}
        nprocs = len(self.procs)
        self.all_mask = (1 << nprocs) - 1 if nprocs else 0
        inputs, outputs = network.inputs, network.outputs
        self.base_adj: list[int] = [0] * nprocs
        self.in_terms: list[tuple[Node, ...]] = [()] * nprocs
        self.out_terms: list[tuple[Node, ...]] = [()] * nprocs
        self.base_start = self.base_end = 0
        #: terminal -> bitmask of attached processors
        self.term_procs: dict[Node, int] = {}
        for p, i in self.index.items():
            m = 0
            ins: list[Node] = []
            outs: list[Node] = []
            for q in g.neighbors(p):
                j = self.index.get(q)
                if j is not None:
                    m |= 1 << j
                elif q in inputs:
                    ins.append(q)
                elif q in outputs:
                    outs.append(q)
            self.base_adj[i] = m
            self.in_terms[i] = tuple(ins)
            self.out_terms[i] = tuple(outs)
            if ins:
                self.base_start |= 1 << i
            if outs:
                self.base_end |= 1 << i
            for t in ins + outs:
                self.term_procs[t] = self.term_procs.get(t, 0) | (1 << i)
        # mutable per-sweep state: adjacency rows masked to current survivors
        self._adj: list[int] = list(self.base_adj)
        self._full = self.all_mask

    def _patch(self, full: int) -> None:
        """Re-mask the adjacency rows affected by the survivor delta."""
        changed = self._full ^ full
        if changed:
            rows = changed
            for b in iter_bits(changed):
                rows |= self.base_adj[b]
            base_adj = self.base_adj
            adj = self._adj
            for i in iter_bits(rows & full):
                adj[i] = base_adj[i] & full
            self._full = full

    def instance(
        self, fault_set: Iterable[Node]
    ) -> tuple[SpanningPathInstance, bool]:
        """The instance for *fault_set*, plus whether it lives in the
        builder's global bit space (``False`` = dense fallback; witness
        bits must not be propagated across the two spaces)."""
        faults = frozenset(fault_set)
        fmask = 0
        faulty_terms: list[Node] = []
        for v in faults:
            i = self.index.get(v)
            if i is not None:
                fmask |= 1 << i
            else:
                faulty_terms.append(v)
        full = self.all_mask & ~fmask
        self._patch(full)
        if full.bit_count() < 2:
            return SpanningPathInstance(self.network.surviving(faults)), False
        start = self.base_start & full
        end = self.base_end & full
        for t in faulty_terms:
            affected = self.term_procs.get(t, 0)
            for i in iter_bits(affected & start):
                if not any(u not in faults for u in self.in_terms[i]):
                    start &= ~(1 << i)
            for i in iter_bits(affected & end):
                if not any(u not in faults for u in self.out_terms[i]):
                    end &= ~(1 << i)
        inst = SpanningPathInstance.from_parts(
            self.network.surviving(faults),
            self.procs,
            self.index,
            list(self._adj),
            start,
            end,
            full,
        )
        return inst, True


# ----------------------------------------------------------------------
# exact backtracking
# ----------------------------------------------------------------------
def solve_backtracking(
    inst: SpanningPathInstance, budget: int = DEFAULT_BUDGET
) -> SolveReport:
    """Complete DFS with pruning.

    Prunings applied at every expansion:

    * *ends-alive*: some unvisited node must be an admissible final
      endpoint;
    * *dead-end / forced-final counting*: an unvisited node with no
      unvisited neighbor must be entered from the current node and be the
      final node; at most one unvisited node may have remaining degree 1
      while not being adjacent to the current node (it is forced to be the
      final endpoint, so it must also be in the end set);
    * *connectivity*: all unvisited nodes must be reachable from the
      current node through unvisited nodes (bitmask BFS);
    * *Warnsdorff ordering*: extend toward scarce-degree nodes first.
    """
    if inst.trivial is not None:
        return inst.trivial
    adj = inst.adj
    full = inst.full
    end_mask = inst.end_mask
    h = inst.h
    expanded = 0

    def bfs_covers(start_bit: int, allowed: int) -> bool:
        """Is every bit of `allowed` reachable from start_bit within allowed?"""
        reach = start_bit & allowed | start_bit
        frontier = reach
        while frontier:
            nxt = 0
            for j in iter_bits(frontier):
                nxt |= adj[j]
            nxt &= allowed & ~reach
            reach |= nxt
            frontier = nxt
        return allowed & ~reach == 0

    path: list[int] = []

    def dfs(i: int, mask: int) -> bool:
        nonlocal expanded
        expanded += 1
        if expanded > budget:
            raise BudgetExceededError(f"backtracking budget {budget} exhausted")
        rem = full & ~mask
        if rem == 0:
            return bool((1 << i) & end_mask)
        if rem & end_mask == 0:
            # the final node lies in rem; it must be an end-attached one
            return False
        ext = adj[i] & rem
        if ext == 0:
            return False
        cur_bit = 1 << i
        n_forced = 0
        for j in iter_bits(rem):
            dj = adj[j] & rem
            if dj == 0:
                # j only reachable (if at all) from the current node, and
                # then the path ends there immediately
                if not (adj[j] & cur_bit) or rem != (1 << j):
                    return False
            elif dj & (dj - 1) == 0 and not (adj[j] & cur_bit):
                # remaining degree exactly 1, not adjacent to current:
                # must be the final endpoint of the path
                n_forced += 1
                if n_forced > 1 or not ((1 << j) & end_mask):
                    return False
        # connectivity: the tail of the path is a Hamiltonian path of the
        # subgraph induced by rem, so rem must be connected
        if not bfs_covers(ext & -ext, rem):
            return False
        # candidate ordering (Warnsdorff)
        cand: list[tuple[int, int]] = []
        for j in iter_bits(ext):
            d = (adj[j] & rem & ~(1 << j)).bit_count()
            cand.append((d, j))
        cand.sort()
        for _, j in cand:
            path.append(j)
            if dfs(j, mask | (1 << j)):
                return True
            path.pop()
        return False

    starts = sorted(
        iter_bits(inst.start_mask), key=lambda i: (adj[i].bit_count(), i)
    )
    try:
        for s in starts:
            path.clear()
            path.append(s)
            if dfs(s, 1 << s):
                return inst.report_from_bits(path, "backtracking", expanded)
        return SolveReport(Status.NONE, method="backtracking", nodes_expanded=expanded)
    except BudgetExceededError:
        return SolveReport(Status.UNDECIDED, method="backtracking", nodes_expanded=expanded)
    finally:
        pass


# ----------------------------------------------------------------------
# exact Held-Karp subset DP
# ----------------------------------------------------------------------
def solve_held_karp(inst: SpanningPathInstance) -> SolveReport:
    """Subset dynamic program over (visited-set, last-node) states.

    Complete and budget-free, but memory is ``O(2^h)`` — use only for
    ``h <= ~20``.  Parent pointers are kept so a witness path can be
    reconstructed.

    The DP tables are flat preallocated arrays indexed ``mask * B +
    last`` (``B`` = bit-space width) — a measurable constant-factor win
    over dict tables on the small instances that dominate exhaustive
    sweeps.  Instances whose bit space exceeds :data:`FLAT_DP_BITS` use
    the dict fallback.
    """
    if inst.trivial is not None:
        return inst.trivial
    B = len(inst.adj)
    if B > FLAT_DP_BITS:
        return _solve_held_karp_sparse(inst)
    adj = inst.adj
    h = inst.h
    full = inst.full
    # lasts[mask] = bitmask of feasible last-nodes of partial paths
    # covering exactly `mask`.  Layers have distinct popcounts and each
    # entry is zeroed as it is expanded, so one flat table serves all
    # layers — and all *calls*: the tables come from the per-thread
    # scratch cache and the final layer is re-zeroed before returning.
    # parent[mask * B + j] stores previous-node + 2 (1 = root).
    lasts, parent = _flat_scratch(B)
    masks: list[int] = []
    for s in iter_bits(inst.start_mask):
        m = 1 << s
        lasts[m] = m
        parent[m * B + s] = 1
        masks.append(m)
    expanded = 0
    for _ in range(h - 1):
        nxt_masks: list[int] = []
        for mask in masks:
            ls = lasts[mask]
            lasts[mask] = 0
            for i in iter_bits(ls):
                ext = adj[i] & ~mask
                for j in iter_bits(ext):
                    bit = 1 << j
                    nm = mask | bit
                    prev = lasts[nm]
                    if not prev:
                        nxt_masks.append(nm)
                    if not prev & bit:
                        lasts[nm] = prev | bit
                        parent[nm * B + j] = i + 2
                    expanded += 1
        masks = nxt_masks
        if not masks:
            return SolveReport(Status.NONE, method="held-karp", nodes_expanded=expanded)
    lasts_full = lasts[full] & inst.end_mask
    for mask in masks:
        lasts[mask] = 0  # restore the all-zero scratch invariant
    if not lasts_full:
        return SolveReport(Status.NONE, method="held-karp", nodes_expanded=expanded)
    j = next(iter_bits(lasts_full))
    seq = [j]
    mask = full
    while True:
        p = parent[mask * B + j]
        if p == 1:
            break
        mask ^= 1 << j
        seq.append(p - 2)
        j = p - 2
    seq.reverse()
    return inst.report_from_bits(seq, "held-karp", expanded)


def _solve_held_karp_sparse(inst: SpanningPathInstance) -> SolveReport:
    """Dict-table Held–Karp for instances whose bit space is too wide for
    flat tables (sparse warm instances over large networks)."""
    adj = inst.adj
    h = inst.h
    full = inst.full
    # layer[mask] = bitmask of feasible last-nodes; parent[(mask, last)] = prev
    cur: dict[int, int] = {}
    parent: dict[tuple[int, int], int] = {}
    for s in iter_bits(inst.start_mask):
        cur[1 << s] = cur.get(1 << s, 0) | (1 << s)
        parent[(1 << s, s)] = -1
    expanded = 0
    for _ in range(h - 1):
        nxt: dict[int, int] = {}
        for mask, lasts in cur.items():
            for i in iter_bits(lasts):
                ext = adj[i] & ~mask
                for j in iter_bits(ext):
                    nm = mask | (1 << j)
                    prev = nxt.get(nm, 0)
                    if not prev & (1 << j):
                        nxt[nm] = prev | (1 << j)
                        parent[(nm, j)] = i
                    expanded += 1
        cur = nxt
        if not cur:
            return SolveReport(Status.NONE, method="held-karp", nodes_expanded=expanded)
    lasts = cur.get(full, 0) & inst.end_mask
    if not lasts:
        return SolveReport(Status.NONE, method="held-karp", nodes_expanded=expanded)
    j = next(iter_bits(lasts))
    seq = [j]
    mask = full
    while True:
        i = parent[(mask, j)]
        if i < 0:
            break
        mask ^= 1 << j
        seq.append(i)
        j = i
    seq.reverse()
    return inst.report_from_bits(seq, "held-karp", expanded)


def _count_paths_flat(
    adj: Sequence[int], start_mask: int, end_mask: int, full: int, h: int
) -> int:
    """Ordered spanning start→end path count via flat DP tables
    (``counts[mask * B + last]``; layers share the tables, zeroed as
    consumed — the same scheme as :func:`solve_held_karp`)."""
    B = len(adj)
    counts = [0] * (B << B)
    lasts = [0] * (1 << B)
    masks: list[int] = []
    for s in iter_bits(start_mask):
        m = 1 << s
        counts[m * B + s] += 1
        lasts[m] = m
        masks.append(m)
    for _ in range(h - 1):
        nxt_masks: list[int] = []
        for mask in masks:
            ls = lasts[mask]
            lasts[mask] = 0
            base = mask * B
            for i in iter_bits(ls):
                ways = counts[base + i]
                counts[base + i] = 0
                for j in iter_bits(adj[i] & ~mask):
                    bit = 1 << j
                    nm = mask | bit
                    if not lasts[nm]:
                        nxt_masks.append(nm)
                    lasts[nm] |= bit
                    counts[nm * B + j] += ways
        masks = nxt_masks
        if not masks:
            return 0
    base = full * B
    return sum(counts[base + i] for i in iter_bits(lasts[full] & end_mask))


def _count_paths_sparse(
    adj: Sequence[int], start_mask: int, end_mask: int, full: int, h: int
) -> int:
    """Dict-table twin of :func:`_count_paths_flat` for wide bit spaces."""
    cur: dict[tuple[int, int], int] = {}
    for s in iter_bits(start_mask):
        cur[(1 << s, s)] = cur.get((1 << s, s), 0) + 1
    for _ in range(h - 1):
        nxt: dict[tuple[int, int], int] = {}
        for (mask, i), ways in cur.items():
            for j in iter_bits(adj[i] & ~mask):
                key = (mask | (1 << j), j)
                nxt[key] = nxt.get(key, 0) + ways
        cur = nxt
    return sum(
        ways
        for (mask, i), ways in cur.items()
        if mask == full and (1 << i) & end_mask
    )


def count_spanning_paths(inst: SpanningPathInstance) -> int:
    """The number of distinct pipelines of ``G \\ F`` (processor-path
    count; start/end terminal choices are not multiplied in).

    A path and its reverse are counted once when both orientations are
    admissible: we count ordered start->end paths, then halve those
    whose reverse is also an ordered start->end path (possible only
    when both endpoints are start- *and* end-attached).  Exact subset
    DP — small instances only.
    """
    if inst.trivial is not None:
        if inst.trivial.status is Status.FOUND:
            return 1
        return 0
    count = (
        _count_paths_flat if len(inst.adj) <= FLAT_DP_BITS else _count_paths_sparse
    )
    total = count(inst.adj, inst.start_mask, inst.end_mask, inst.full, inst.h)
    se = inst.start_mask & inst.end_mask
    both_dir = count(inst.adj, se, se, inst.full, inst.h) if se else 0
    return total - both_dir // 2


# ----------------------------------------------------------------------
# Pósa rotation-extension heuristic
# ----------------------------------------------------------------------
def solve_posa(
    inst: SpanningPathInstance,
    restarts: int = 24,
    rotations: int = 400,
    seed: int = 0x5EED,
    initial_order: Sequence[int] | None = None,
) -> SolveReport:
    """Rotation–extension heuristic (Pósa 1976 style).

    Grows a path from a random start-attached processor; when the tail has
    no unvisited neighbor, performs a random rotation (reversing a suffix
    along a chord) to expose a new tail.  Once spanning, keeps rotating
    until the tail is end-attached.  Incomplete: only a ``FOUND`` answer is
    meaningful; failure returns ``UNDECIDED``.

    ``initial_order`` optionally seeds the first restart with a preferred
    processor order (the reconfiguration snake for asymptotic graphs).
    """
    if inst.trivial is not None:
        return inst.trivial
    rng = as_rng(seed)
    adj = inst.adj
    h = inst.h
    end_mask = inst.end_mask
    start_bits = list(iter_bits(inst.start_mask))
    expanded = 0

    def try_once(start: int, order_bias: dict[int, int] | None) -> list[int] | None:
        nonlocal expanded
        path = [start]
        pos = {start: 0}
        seen = 1 << start
        rot_left = rotations
        while rot_left > 0:
            expanded += 1
            tail = path[-1]
            unvis = adj[tail] & ~seen
            if unvis:
                choices = list(iter_bits(unvis))
                if order_bias is not None:
                    choices.sort(key=lambda j: order_bias.get(j, 1 << 30))
                    j = choices[0]
                else:
                    j = rng.choice(choices)
                pos[j] = len(path)
                path.append(j)
                seen |= 1 << j
                continue
            if len(path) == h and (1 << tail) & end_mask:
                return path
            # rotate: pick a chord (tail, path[idx]) and reverse the suffix
            nbrs = [j for j in iter_bits(adj[tail]) if j in pos and pos[j] < len(path) - 2]
            if not nbrs:
                return None
            piv = rng.choice(nbrs)
            idx = pos[piv]
            # reverse path[idx+1:]
            suffix = path[idx + 1:]
            suffix.reverse()
            path[idx + 1:] = suffix
            for off, node in enumerate(path[idx + 1:], start=idx + 1):
                pos[node] = off
            rot_left -= 1
        return None

    bias = None
    if initial_order is not None:
        bias = {j: r for r, j in enumerate(initial_order)}
    for attempt in range(max(restarts, 1)):
        start = start_bits[attempt % len(start_bits)] if bias is not None and attempt == 0 else rng.choice(start_bits)
        result = try_once(start, bias if attempt == 0 else None)
        if result is not None:
            return inst.report_from_bits(result, "posa", expanded)
    return SolveReport(Status.UNDECIDED, method="posa", nodes_expanded=expanded)


# ----------------------------------------------------------------------
# portfolio
# ----------------------------------------------------------------------
def solve(
    inst: SpanningPathInstance, policy: SolvePolicy | None = None
) -> SolveReport:
    """Portfolio solve: Pósa heuristic first (cheap, usually wins on the
    dense construction graphs), exact fallback (Held–Karp for small
    instances, pruned backtracking otherwise)."""
    policy = policy or SolvePolicy()
    if inst.trivial is not None:
        return inst.trivial
    initial_bits: list[int] | None = None
    if policy.initial_order is not None:
        initial_bits = [
            inst.index[p] for p in policy.initial_order if p in inst.index
        ]
    if policy.posa_restarts > 0 and inst.h > policy.held_karp_limit:
        rep = solve_posa(
            inst,
            restarts=policy.posa_restarts,
            rotations=policy.posa_rotations,
            seed=policy.seed,
            initial_order=initial_bits,
        )
        if rep.found:
            return rep
    if inst.h <= policy.held_karp_limit:
        return solve_held_karp(inst)
    rep = solve_backtracking(inst, budget=policy.budget)
    if rep.status is Status.UNDECIDED and not policy.allow_undecided:
        raise BudgetExceededError(
            f"spanning-path search undecided after {rep.nodes_expanded} "
            f"expansions; raise SolvePolicy.budget (currently {policy.budget})"
        )
    return rep


# ----------------------------------------------------------------------
# network-level wrappers
# ----------------------------------------------------------------------
def find_pipeline(
    network: PipelineNetwork,
    faults: Iterable[Node] = (),
    policy: SolvePolicy | None = None,
) -> Pipeline | None:
    """Find a pipeline of ``network \\ faults``, or prove there is none.

    Returns a :class:`~repro.core.pipeline.Pipeline` or ``None``.  Raises
    :class:`~repro.errors.BudgetExceededError` when the search was
    inconclusive and the policy forbids undecided outcomes — it never
    converts "don't know" into "no".
    """
    policy = policy or SolvePolicy()
    inst = SpanningPathInstance(network.surviving(faults))
    rep = solve(inst, policy)
    if rep.status is Status.FOUND:
        return Pipeline.oriented(rep.path, network)
    if rep.status is Status.UNDECIDED:
        raise BudgetExceededError(
            "pipeline existence undecided; raise the budget in SolvePolicy"
        )
    return None


def has_pipeline(
    network: PipelineNetwork,
    faults: Iterable[Node] = (),
    policy: SolvePolicy | None = None,
) -> bool:
    """Whether ``network \\ faults`` contains a pipeline (exact)."""
    return find_pipeline(network, faults, policy) is not None
