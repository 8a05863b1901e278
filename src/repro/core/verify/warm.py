"""The residue decider of the exhaustive engine: witness propagation.

:func:`~repro.core.verify.parallel.verify_exhaustive_parallel` accepts
most fault sets with its vectorized witness kernel; every set the
kernel rejects goes to a :class:`WitnessSweeper`, in revolving-door rank
order.  Adjacent fault sets are *near-identical* instances — the order
of :func:`~repro.core.verify.exhaustive.iter_fault_sets_gray` makes
consecutive sets of one size differ by a single swapped node — and the
sweeper exploits that twice:

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
  When the splice succeeds the fault set is decided **without any
  solver call**.  When it fails, a short Pósa rotation seeded with the
  stale order runs, and then the exact solver (seeded with the previous
  witness's order), so verdicts equal the cold sweep's by construction:
  an adapted witness is a genuine spanning path (edges, coverage and
  terminal attachment are all checked in bitmask space), and everything
  else falls through to the same exact solver.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Hashable, Sequence

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

Node = Hashable


class WitnessSweeper:
    """Decides fault sets one at a time, propagating the last witness.

    Each chunk worker of :mod:`repro.core.verify.parallel` owns one
    sweeper and warm-starts within its shard.  Counters: ``adapted``
    fault sets were decided by splicing the previous witness (no solver
    call); ``solver_calls`` fell through to the exact portfolio.
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
