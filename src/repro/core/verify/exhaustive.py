"""Fault-set enumeration and the cold exhaustive sweep.

:func:`verify_exhaustive` iterates **every** fault set ``F`` with
``|F| <= k`` over all nodes (terminals included — the paper's model lets
terminals fail) and decides pipeline existence exactly for each, one
fresh solve per set.  A clean run is a machine proof of the k-GD
property for the instance, the same standard of evidence the paper's
"exhaustively verified by computer checking" specials rest on.

Its cost is ``sum_{j<=k} C(|V|, j)`` solver calls, so callers prove with
the engine, :func:`~repro.core.verify.parallel.verify_exhaustive_parallel`.
This sweep shares no code with it and stays as its oracle: the tests and
``repro bench`` compare the engine's certificates with it.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import comb
from typing import Callable, Hashable, Iterable

from ..hamilton import SolvePolicy, SpanningPathInstance, Status, solve
from ..model import PipelineNetwork
from .certificates import VerificationCertificate, VerificationMode

Node = Hashable


def iter_fault_sets(
    nodes: Iterable[Node], k: int, sizes: Iterable[int] | None = None
):
    """All fault subsets of size ``<= k`` (or of the given sizes),
    smallest first — small sets fail fastest when a construction is
    broken, which makes disproofs cheap."""
    nodes = sorted(nodes, key=repr)
    for size in sizes if sizes is not None else range(k + 1):
        yield from combinations(nodes, size)


# ----------------------------------------------------------------------
# revolving-door (Gray-code) enumeration
# ----------------------------------------------------------------------
def _revolving(n: int, j: int):
    """Index ``j``-subsets of ``range(n)`` in revolving-door order
    (Nijenhuis–Wilf): consecutive subsets differ by one swapped element.

    First subset is ``(0, .., j-1)``, last is ``(0, .., j-2, n-1)``.
    Tuples are emitted in ascending index order.
    """
    if j == 0:
        yield ()
        return
    if j == n:
        yield tuple(range(n))
        return
    yield from _revolving(n - 1, j)
    for s in _revolving_rev(n - 1, j - 1):
        yield s + (n - 1,)


def _revolving_rev(n: int, j: int):
    """:func:`_revolving` in reverse order, without materializing."""
    if j == 0:
        yield ()
        return
    if j == n:
        yield tuple(range(n))
        return
    for s in _revolving(n - 1, j - 1):
        yield s + (n - 1,)
    yield from _revolving_rev(n - 1, j)


def gray_unrank(n: int, j: int, rank: int) -> tuple[int, ...]:
    """The *rank*-th ``j``-subset of ``range(n)`` in revolving-door
    order — the subset :func:`_revolving` would emit at that position,
    computed in ``O(n)`` without enumerating the prefix.

    This is what lets parallel workers receive chunks as plain
    ``(size, start_rank, count)`` index ranges instead of pickled fault
    sets: any point of the revolving-door sequence is addressable.

    >>> [gray_unrank(4, 2, r) for r in range(comb(4, 2))] == list(_revolving(4, 2))
    True
    """
    if not 0 <= rank < comb(n, j):
        raise ValueError(f"rank {rank} out of range for C({n}, {j})")
    out: list[int] = []
    while j:
        if j == n:
            out.extend(range(n))
            break
        # R(n,j) = R(n-1,j) ++ [s + (n-1,) for s in reversed(R(n-1,j-1))]
        # — a rank in the tail maps to rank C(n,j)-1-rank of R(n-1,j-1).
        if rank >= comb(n - 1, j):
            out.append(n - 1)
            rank = comb(n, j) - 1 - rank
            j -= 1
        n -= 1
    return tuple(sorted(out))


def iter_gray_indices(n: int, j: int, start: int = 0, count: int | None = None):
    """Resume the revolving-door sequence of ``j``-subsets of
    ``range(n)`` at *start*, yielding *count* subsets (default: through
    the end of the sequence).

    Equivalent to ``islice(_revolving(n, j), start, start + count)`` but
    without burning through the skipped prefix — the chunk protocol of
    the parallel verifier leans on this being O(count), not O(start).
    """
    total = comb(n, j)
    if count is None:
        count = total - start
    for rank in range(start, min(start + count, total)):
        yield gray_unrank(n, j, rank)


def iter_fault_sets_gray(
    nodes: Iterable[Node], k: int, sizes: Iterable[int] | None = None
):
    """The same fault sets as :func:`iter_fault_sets` (smallest sizes
    first, exactly ``C(n, j)`` sets per size ``j``), but traversed within
    each size in *revolving-door* order: consecutive sets of one size
    differ by a single swapped node.

    Adjacent fault sets are near-identical problem instances, which is
    what makes witness propagation (:mod:`repro.core.verify.warm`)
    effective: the previous solve's pipeline usually adapts to the next
    fault set by a local splice instead of a fresh solver call.
    """
    nodes = sorted(nodes, key=repr)
    n = len(nodes)
    for size in sizes if sizes is not None else range(k + 1):
        if size > n:
            continue
        for idxs in _revolving(n, size):
            yield tuple(nodes[i] for i in idxs)


def swept_budget(k: int, sizes: Iterable[int] | None, n: int) -> int:
    """The fault budget a sweep of *sizes* over *n* nodes proves: the
    largest ``j`` such that every size ``0..j`` was swept, up to
    ``max(k, *sizes)``.  Sizes above *n* hold no fault sets and count as
    swept; a sweep that skipped size 0 proves no budget (``-1``).

    >>> swept_budget(4, [0, 1, 2], 28), swept_budget(2, [2], 10)
    (2, -1)
    >>> swept_budget(3, None, 2)
    3
    """
    if sizes is None:
        return k
    swept = set(sizes)
    top = max([k, *swept])
    j = -1
    while j < top and (j + 1 in swept or j + 1 > n):
        j += 1
    return j


def verify_exhaustive(
    network: PipelineNetwork,
    k: int | None = None,
    policy: SolvePolicy | None = None,
    *,
    sizes: Iterable[int] | None = None,
    fault_universe: Iterable[Node] | None = None,
    stop_on_counterexample: bool = True,
    progress: Callable[[int], None] | None = None,
) -> VerificationCertificate:
    """Prove (or disprove) that *network* is ``k``-gracefully-degradable.

    Parameters
    ----------
    k:
        fault budget; defaults to the network's declared ``k``.
    sizes:
        restrict to specific fault-set sizes (default ``0..k``); the
        certificate's ``k`` is then :func:`swept_budget`.
    fault_universe:
        restrict which nodes may fail (e.g. processors only, for the
        merged fault-free-terminal model).
    stop_on_counterexample:
        return at the first intolerable fault set (default) or keep
        scanning to count them all.
    progress:
        optional callback invoked with the running check count.

    >>> from ..constructions import build
    >>> verify_exhaustive(build(3, 2)).is_proof
    True
    """
    k = network.k if k is None else k
    policy = policy or SolvePolicy()
    universe = (
        list(network.graph.nodes)
        if fault_universe is None
        else list(fault_universe)
    )
    sizes = None if sizes is None else list(sizes)
    t0 = time.perf_counter()
    checked = tolerated = expanded = 0
    counterexample: tuple[Node, ...] | None = None
    undecided: list[tuple[Node, ...]] = []
    for fault_set in iter_fault_sets(universe, k, sizes):
        checked += 1
        inst = SpanningPathInstance(network.surviving(fault_set))
        report = solve(inst, policy)
        expanded += report.nodes_expanded
        if report.status is Status.FOUND:
            tolerated += 1
        elif report.status is Status.UNDECIDED:
            undecided.append(fault_set)
        else:
            if counterexample is None:
                counterexample = fault_set
            if stop_on_counterexample:
                break
        if progress is not None and checked % 1000 == 0:
            progress(checked)
    return VerificationCertificate(
        mode=VerificationMode.EXHAUSTIVE,
        k=swept_budget(k, sizes, len(universe)),
        checked=checked,
        tolerated=tolerated,
        counterexample=counterexample,
        undecided=tuple(undecided),
        elapsed_seconds=time.perf_counter() - t0,
        network_description=repr(network),
        solver_calls=checked,
        nodes_expanded=expanded,
    )
