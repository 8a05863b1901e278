"""Guided topology repair and witness adaptation.

Two kinds of "repair" live here.  The first operates on *witnesses*:
:func:`adapt_witness` splices a previously solved pipeline path onto a
neighboring fault set (cut the newly dead nodes out, bridge or 2-opt the
halves back together, splice the newly healthy nodes in).  It is the
workhorse of the exhaustive engine's residue decider
(:mod:`repro.core.verify.warm`), where consecutive revolving-door fault
sets differ by one swapped node and the previous witness almost always
adapts in microseconds instead of costing a solver call.

The second operates on *topologies*.  Given a network that fails k-GD
verification, propose edge additions that fix it.  The loop is
counterexample-driven:

1. find an intolerable fault set (lemma witnesses first — they're
   cheap — then exhaustive search);
2. for that fault set, try candidate edges between healthy nodes and
   keep one whose addition restores a pipeline for it (preferring edges
   that least increase the maximum processor degree);
3. repeat until verification passes or the edge budget runs out.

This inverts the paper's workflow (it *designs* optimal graphs; this
tool patches broken ones toward feasibility) — the result is generally
*not* degree-optimal, but the tool reports how far above the bound the
patched network lands, so users know what they paid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Hashable, Sequence

from .._util import iter_bits
from ..errors import InvalidParameterError
from .bounds import degree_lower_bound
from .hamilton import SolvePolicy, SpanningPathInstance, Status, solve
from .model import PipelineNetwork
from .witnesses import find_fatal_witness

Node = Hashable


# ----------------------------------------------------------------------
# witness adaptation (bitmask splice / 2-opt repair)
# ----------------------------------------------------------------------
def splice_out_bit(
    path: list[int], position: int, adj: Sequence[int]
) -> list[int] | None:
    """Remove the node at *position* from a bit path, re-joining the two
    halves with the cheapest local repair that works.

    Tried in order: direct bridge (the facing ends are adjacent), 2-opt
    on the right half (reverse a prefix so a chord re-joins), 2-opt on
    the left half.  *adj* must be the adjacency masks of the *target*
    survivor, so every tested edge is automatically fault-free.  Returns
    the repaired path or ``None`` when no local repair applies.
    """
    left = path[:position]
    right = path[position + 1:]
    if not left or not right:
        return left or right
    a, b = left[-1], right[0]
    if adj[a] >> b & 1:
        return left + right
    # 2-opt on the right half: ... a -- right[j] .. right[0] -- right[j+1] ...
    am = adj[a]
    for j in range(1, len(right)):
        if am >> right[j] & 1 and (
            j + 1 >= len(right) or adj[b] >> right[j + 1] & 1
        ):
            return left + right[j::-1] + right[j + 1:]
    # symmetric 2-opt on the left half
    bm = adj[b]
    for j in range(len(left) - 1):
        if bm >> left[j] & 1 and (
            j == 0 or adj[left[j - 1]] >> left[-1] & 1
        ):
            return left[:j] + left[j:][::-1] + right
    return None


def splice_in_bit(
    path: list[int], bit: int, adj: Sequence[int]
) -> list[int] | None:
    """Insert node *bit* into a bit path: between an adjacent consecutive
    pair when possible (endpoints stay put), else at either end."""
    m = adj[bit]
    for i in range(len(path) - 1):
        if m >> path[i] & 1 and m >> path[i + 1] & 1:
            return path[: i + 1] + [bit] + path[i + 1:]
    if path and m >> path[0] & 1:
        return [bit] + path
    if path and m >> path[-1] & 1:
        return path + [bit]
    return None


def adapt_witness(
    prev_path: Sequence[int],
    adj: Sequence[int],
    full: int,
    start_mask: int,
    end_mask: int,
) -> list[int] | None:
    """Adapt a neighboring fault set's witness to the survivor described
    by ``(adj, full, start_mask, end_mask)``.

    Stale nodes (on the previous witness but faulty now) are spliced
    out, newly healthy nodes are spliced in, and the result is accepted
    only if it is a spanning start→end path of the new survivor (either
    orientation; the returned path is start→end).  ``None`` means the
    local repair failed and the caller should fall back to a solver —
    adaptation can only ever save work, never change an answer.
    """
    path = list(prev_path)
    present = 0
    for b in path:
        present |= 1 << b
    stale = present & ~full
    # cut newly faulty nodes out, one local repair at a time
    while stale:
        for pos, b in enumerate(path):
            if stale >> b & 1:
                repaired = splice_out_bit(path, pos, adj)
                if repaired is None:
                    return None
                path = repaired
                stale &= ~(1 << b)
                break
    if not path:
        return None
    # splice newly healthy nodes in
    missing = full & ~(present & full)
    for b in iter_bits(missing):
        grown = splice_in_bit(path, b, adj)
        if grown is None:
            return None
        path = grown
    if len(path) != full.bit_count():
        return None
    head, tail = 1 << path[0], 1 << path[-1]
    if head & start_mask and tail & end_mask:
        return path
    if head & end_mask and tail & start_mask:
        return path[::-1]
    return None


@dataclass(frozen=True)
class RepairStep:
    """One accepted reinforcement edge."""

    edge: tuple[Node, Node]
    fixed_fault_set: tuple[Node, ...]


@dataclass
class RepairReport:
    """Outcome of a repair attempt."""

    success: bool
    steps: list[RepairStep] = field(default_factory=list)
    final_max_degree: int = 0
    degree_bound: int = 0
    remaining_counterexample: tuple[Node, ...] | None = None

    @property
    def edges_added(self) -> int:
        return len(self.steps)

    @property
    def degree_overhead(self) -> int:
        return self.final_max_degree - self.degree_bound


def _find_counterexample(
    network: PipelineNetwork, policy: SolvePolicy
) -> tuple[Node, ...] | None:
    wit = find_fatal_witness(network, policy)
    if wit is not None:
        return tuple(sorted(wit.faults, key=repr))
    return _sweep(network, policy).counterexample


def _sweep(network: PipelineNetwork, policy: SolvePolicy):
    """The exhaustive engine, in-process: a stopping sweep then reports
    the first intolerable fault set in revolving-door order, so the
    edge picked for it does not depend on pool scheduling."""
    # lazy: the engine imports this module for adapt_witness
    from .verify.parallel import verify_exhaustive_parallel

    return verify_exhaustive_parallel(network, policy=policy, workers=1)


def _candidate_edges(network: PipelineNetwork, fault_set: tuple):
    """Candidate reinforcements for one counterexample: processor-
    processor non-edges among the survivors, lowest combined degree
    first (so the repair disturbs the degree profile least)."""
    faults = set(fault_set)
    procs = sorted(network.processors - faults, key=repr)
    g = network.graph
    pairs = [
        (u, v)
        for u, v in combinations(procs, 2)
        if not g.has_edge(u, v)
    ]
    pairs.sort(key=lambda e: (g.degree(e[0]) + g.degree(e[1]), repr(e)))
    return pairs


def repair_network(
    network: PipelineNetwork,
    max_edges: int = 10,
    policy: SolvePolicy | None = None,
) -> tuple[PipelineNetwork, RepairReport]:
    """Reinforce *network* toward k-graceful-degradability.

    Works on a copy; returns ``(patched_network, report)``.  The report's
    ``success`` is backed by a full exhaustive verification of the final
    graph.  Raises when the network is too large to verify exhaustively
    in reasonable time (> 24 nodes) — repair is a small-instance design
    aid.

    >>> import networkx as nx
    >>> from .model import PipelineNetwork
    >>> g = nx.Graph([("i0", "p0"), ("i1", "p1"), ("p0", "p1"),
    ...               ("p1", "p2"), ("p2", "o0"), ("p0", "o1")])
    >>> net = PipelineNetwork(g, ["i0", "i1"], ["o0", "o1"], n=2, k=1)
    >>> patched, report = repair_network(net)
    >>> report.success
    True
    """
    if len(network.graph) > 24:
        raise InvalidParameterError(
            "repair relies on exhaustive verification; limited to 24 nodes"
        )
    policy = policy or SolvePolicy()
    patched = network.copy()
    patched.meta.pop("construction", None)  # constructive shortcuts now invalid
    report = RepairReport(
        success=False,
        degree_bound=degree_lower_bound(network.n, network.k),
    )
    for _ in range(max_edges):
        counterexample = _find_counterexample(patched, policy)
        if counterexample is None:
            report.success = True
            break
        fixed = False
        for u, v in _candidate_edges(patched, counterexample):
            patched.graph.add_edge(u, v)
            inst = SpanningPathInstance(patched.surviving(counterexample))
            if solve(inst, policy).status is Status.FOUND:
                report.steps.append(RepairStep((u, v), counterexample))
                fixed = True
                break
            patched.graph.remove_edge(u, v)
        if not fixed:
            report.remaining_counterexample = counterexample
            break
    else:
        report.remaining_counterexample = _find_counterexample(patched, policy)
        report.success = report.remaining_counterexample is None
    if not report.steps and report.remaining_counterexample is None:
        report.success = True
    if report.success:
        # back the claim with a full exhaustive sweep
        cert = _sweep(patched, policy)
        report.success = cert.is_proof
        if not report.success:
            report.remaining_counterexample = cert.counterexample
    report.final_max_degree = patched.max_processor_degree()
    return patched, report
