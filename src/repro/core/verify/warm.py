"""Witness-propagating (warm-started) exhaustive verification.

The cold sweep (:mod:`repro.core.verify.exhaustive`) treats every fault
set as a fresh problem: rebuild the :class:`SpanningPathInstance` from a
networkx subgraph view, run the solver from scratch.  But adjacent fault
sets are *near-identical* instances — and the revolving-door order of
:func:`~repro.core.verify.exhaustive.iter_fault_sets_gray` guarantees
consecutive sets of one size differ by a single swapped node.  This
module exploits that structure twice:

* **Incremental instance construction.**  One network-global set of
  adjacency bitmasks is built once; each fault set patches only the rows
  its delta touches
  (:class:`~repro.core.hamilton.IncrementalInstanceBuilder`, shared with
  the online session), skipping the per-set ``O(V + E)`` rebuild
  entirely.
* **Witness propagation.**  The previous fault set's pipeline witness is
  adapted to the next set by local splice repairs
  (:func:`repro.core.repair.adapt_witness`): cut the newly dead node
  out, bridge or 2-opt the halves, splice the newly healthy node in.
  When the splice succeeds — the common case on the dense construction
  graphs — the fault set is decided **without any solver call**.  When
  it fails, the solver runs cold-exact (seeded with the previous
  witness's order), so answers are identical to the cold sweep's by
  construction: an adapted witness is a genuine spanning path (edges,
  coverage and terminal attachment are all checked in bitmask space),
  and everything else falls through to the same exact solver.

The result: order-of-magnitude faster machine proofs for the paper's
"exhaustively verified by computer checking" specials, with certificates
that agree with the cold sweep on verdict, ``checked`` and ``tolerated``
counts (asserted in the test suite).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable, Hashable, Iterable, Sequence

from ...obs.spans import child_span
from ..hamilton import (
    IncrementalInstanceBuilder,
    SolvePolicy,
    Status,
    solve,
    solve_posa,
)
from ..model import PipelineNetwork
from ..repair import adapt_witness
from .certificates import VerificationCertificate, VerificationMode
from .exhaustive import iter_fault_sets_gray

Node = Hashable


class WitnessSweeper:
    """Decides fault sets one at a time, propagating the last witness.

    Shared by the serial warm sweep below and by the parallel workers in
    :mod:`repro.core.verify.parallel` (each worker owns one sweeper and
    warm-starts within its shard).  Counters: ``adapted`` fault sets
    were decided by splicing the previous witness (no solver call);
    ``solver_calls`` fell through to the exact portfolio.
    """

    def __init__(
        self,
        network: PipelineNetwork,
        policy: SolvePolicy | None = None,
        *,
        seed_bits: Sequence[int] | None = None,
    ) -> None:
        self.network = network
        self.policy = policy or SolvePolicy()
        self.builder = IncrementalInstanceBuilder(network)
        # seed_bits warm-starts the very first decide() from a witness
        # found elsewhere (the parallel workers ship the parent's seed
        # witness this way instead of each solving the fault-free
        # instance cold).  Purely a splice hint: adapt_witness validates
        # it in full before it can decide anything.
        self.prev_bits: list[int] | None = (
            list(seed_bits) if seed_bits else None
        )
        self.adapted = 0
        self.warm_heuristic = 0
        self.solver_calls = 0
        self.nodes_expanded = 0

    def decide(self, fault_set: tuple[Node, ...]) -> Status:
        """The exact tolerance verdict for *fault_set*."""
        inst, in_global_space = self.builder.instance(fault_set)
        if inst.trivial is not None:
            return inst.trivial.status
        if in_global_space and self.prev_bits is not None:
            adapted = adapt_witness(
                self.prev_bits,
                inst.adj,
                inst.full,
                inst.start_mask,
                inst.end_mask,
            )
            if adapted is not None:
                self.adapted += 1
                self.prev_bits = adapted
                return Status.FOUND
            if self.policy.posa_restarts > 0:
                # cheap incomplete middle tier: a couple of rotation-
                # extension attempts seeded with the stale witness order
                # resolve most splice failures for a fraction of the
                # exact solver's cost; only FOUND answers are trusted.
                with child_span("warm_rotate", h=inst.h):
                    report = solve_posa(
                        inst,
                        restarts=2,
                        rotations=4 * inst.h,
                        seed=self.policy.seed,
                        initial_order=self.prev_bits,
                    )
                self.nodes_expanded += report.nodes_expanded
                if report.status is Status.FOUND:
                    self.warm_heuristic += 1
                    index = self.builder.index
                    self.prev_bits = [index[p] for p in report.path[1:-1]]
                    return Status.FOUND
        policy = self.policy
        if in_global_space and self.prev_bits is not None:
            procs = self.builder.procs
            policy = replace(
                policy, initial_order=[procs[b] for b in self.prev_bits]
            )
        with child_span("exact_solve", h=inst.h):
            report = solve(inst, policy)
        self.solver_calls += 1
        self.nodes_expanded += report.nodes_expanded
        if report.status is Status.FOUND and in_global_space:
            index = self.builder.index
            self.prev_bits = [index[p] for p in report.path[1:-1]]
        return report.status


def verify_exhaustive_warm(
    network: PipelineNetwork,
    k: int | None = None,
    policy: SolvePolicy | None = None,
    *,
    sizes: Iterable[int] | None = None,
    fault_universe: Iterable[Node] | None = None,
    stop_on_counterexample: bool = True,
    progress: Callable[[int], None] | None = None,
) -> VerificationCertificate:
    """Warm-started twin of
    :func:`repro.core.verify.exhaustive.verify_exhaustive`.

    Checks the same fault sets (revolving-door order within each size)
    and returns an equivalent certificate — same verdict, same
    ``checked``/``tolerated`` totals — typically an order of magnitude
    faster.  ``solver_calls`` on the certificate records how few fault
    sets actually reached a solver.

    >>> from ..constructions import build
    >>> verify_exhaustive_warm(build(3, 2)).is_proof
    True
    """
    k = network.k if k is None else k
    policy = policy or SolvePolicy()
    universe = (
        list(network.graph.nodes)
        if fault_universe is None
        else list(fault_universe)
    )
    t0 = time.perf_counter()
    sweeper = WitnessSweeper(network, policy)
    checked = tolerated = 0
    counterexample: tuple[Node, ...] | None = None
    undecided: list[tuple[Node, ...]] = []
    for fault_set in iter_fault_sets_gray(universe, k, sizes):
        checked += 1
        status = sweeper.decide(fault_set)
        if status is Status.FOUND:
            tolerated += 1
        elif status is Status.UNDECIDED:
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
        k=k,
        checked=checked,
        tolerated=tolerated,
        counterexample=counterexample,
        undecided=tuple(undecided),
        elapsed_seconds=time.perf_counter() - t0,
        network_description=(
            f"{network!r} [warm: {sweeper.adapted} adapted + "
            f"{sweeper.warm_heuristic} rotated + "
            f"{sweeper.solver_calls} solves for {checked} fault sets]"
        ),
        solver_calls=sweeper.solver_calls,
        nodes_expanded=sweeper.nodes_expanded,
    )
