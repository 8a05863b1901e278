"""Online reconfiguration sessions.

A real system does not receive its fault set in one batch: nodes die one
at a time, and after each death the runtime must re-embed the pipeline.
:class:`ReconfigurationSession` maintains that evolving state and
measures **embedding stability** — how much of the pipeline survives each
re-embedding in place.  Stability matters operationally: a stage that
keeps its position keeps its caches, channel setup and in-flight state,
while a moved stage pays a migration cost.

Churn metrics per fault event:

* ``moved`` — processors whose *successor* in the pipeline changed
  (their outbound channel must be re-established);
* ``kept`` — processors whose local neighborhood is unchanged;
* churn ratio — ``moved / healthy``.

The session prefers minimally-disruptive embeddings.  Both :meth:`~
ReconfigurationSession.fail` and :meth:`~ReconfigurationSession.repair`
re-embed through one routine in the verifier's bit space: the current
stages are adapted to the new survivor with
:func:`~repro.core.repair.adapt_witness` (splice the dead node out, or the
revived one in), then a Pósa solve seeded with the previous order runs on
the same patched instance, and only then does the construction's own
reconfiguration algorithm run.

Untrusted candidates (a caller's pipeline or a cached row) and the
trivial one-processor path are checked with :func:`is_pipeline`, once,
where they are adopted.  The bit-space re-embeds are not: they are
spanning start→end paths of the survivor's masked adjacency by
construction (``adapt_witness`` checks coverage and the attachment
masks; Pósa only walks masked edges and stops on an end-attached tail),
and :func:`reconfigure` checks its own results.  Churn totals are
running sums, so the session keeps no per-event history and :meth:`~
ReconfigurationSession.total_moved` and :meth:`~ReconfigurationSession.
mean_churn` cost O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Sequence

from ..errors import ReconfigurationError
from ..obs.spans import annotate, child_span
from .hamilton import (
    IncrementalInstanceBuilder,
    SolvePolicy,
    Status,
    solve_posa,
)
from .model import PipelineNetwork
from .pipeline import Pipeline, is_pipeline
from .reconfigure import reconfigure
from .repair import adapt_witness

Node = Hashable


@dataclass(frozen=True)
class ChurnRecord:
    """Stability accounting for one fault event."""

    fault: Node
    fault_index: int
    healthy_processors: int
    moved: int
    kept: int
    was_on_pipeline: bool
    #: the event adopted the caller's candidate pipeline (no solve ran).
    adopted: bool = False

    @property
    def churn(self) -> float:
        total = self.moved + self.kept
        return self.moved / total if total else 0.0


def pipeline_churn(old: Pipeline, new: Pipeline) -> tuple[int, int]:
    """``(moved, kept)`` between two pipelines: a surviving processor is
    *kept* when its successor node in the new pipeline equals its old
    successor (or it stayed the terminal-adjacent endpoint)."""
    old_next: dict[Node, Node] = {}
    for a, b in zip(old.nodes, old.nodes[1:]):
        old_next[a] = b
    new_next: dict[Node, Node] = {}
    for a, b in zip(new.nodes, new.nodes[1:]):
        new_next[a] = b
    moved = kept = 0
    for p in new.stages:
        if p in old_next and old_next[p] == new_next.get(p):
            kept += 1
        else:
            moved += 1
    return moved, kept


class ReconfigurationSession:
    """Incrementally degraded network with churn tracking.

    A session snapshots its network's structure at construction — the
    processor set and the bit-space index its re-embeds run in — as the
    control plane's fingerprint and canonicalizer do; mutating the
    network's graph afterwards is not supported.

    >>> from .constructions import build
    >>> s = ReconfigurationSession(build(9, 2))
    >>> rec = s.fail("p3")
    >>> s.pipeline.length == len(s.network.processors) - 1
    True
    >>> rec.churn <= 1.0
    True
    """

    def __init__(
        self,
        network: PipelineNetwork,
        policy: SolvePolicy | None = None,
        *,
        minimize_churn: bool = True,
    ) -> None:
        self.network = network
        self.policy = policy or SolvePolicy()
        self.minimize_churn = minimize_churn
        self.faults: set[Node] = set()
        self.pipeline: Pipeline = reconfigure(network, (), self.policy)
        self._processors = network.processors
        self._builder = IncrementalInstanceBuilder(network)
        # running churn totals: the events applied so far, the stages they
        # moved, and the churn ratios of the events that re-embedded
        self._events = 0
        self._moved = 0
        self._churn_sum = 0.0
        self._reembeds = 0

    @property
    def healthy_processors(self) -> frozenset:
        return self._processors - self.faults

    def _healthy_count(self, faults: AbstractSet[Node]) -> int:
        # set intersection iterates the smaller operand: O(|faults|)
        return len(self._processors) - len(self._processors & faults)

    def serves(self, faults: AbstractSet[Node]) -> bool:
        """True when the current pipeline is a pipeline of the network
        under *faults*: it avoids every fault and has one stage per healthy
        processor.

        The pipeline's path was validated when it was built, so two set
        operations decide this where a full :func:`is_pipeline` would
        walk every edge.  :meth:`fail`, :meth:`repair` and the control
        plane keep the pipeline without re-embedding only when it holds:
        a re-embed that raised leaves a pipeline through the dead node
        (or without the revived processor), which no later event may
        serve as current.
        """
        return faults.isdisjoint(
            self.pipeline.nodes
        ) and self.pipeline.length == self._healthy_count(faults)

    def _valid(
        self, candidate: Pipeline | Sequence[Node] | None
    ) -> Pipeline | None:
        """*candidate* as a :class:`Pipeline` when it is one of the network
        under the current faults, else ``None`` — the one check of every
        untrusted candidate (a caller's pipeline or a cached row) and of
        the trivial path.

        A bare node sequence (a cached row) is untrusted: it is checked
        before a :class:`Pipeline` is built from it, so a malformed one is
        rejected rather than raised on.
        """
        if candidate is None or not is_pipeline(
            self.network, candidate, self.faults
        ):
            return None
        if isinstance(candidate, Pipeline):
            return candidate
        return Pipeline.oriented(candidate, self.network)

    def _reembed(self) -> Pipeline | None:
        """Minimal-churn re-embedding under the current faults, in the
        verifier's bit space: adapt the current stages (splice dead
        nodes out, revived ones in), else a Pósa solve seeded with their
        order on the same instance.  Returns a pipeline or ``None``."""
        # an instance outside the bit space has fewer than two healthy
        # processors, so it is always trivial
        inst, _ = self._builder.instance(self.faults)
        if inst.trivial is not None:
            if inst.trivial.status is Status.FOUND:
                annotate(path="trivial")
                return self._valid(
                    Pipeline.oriented(inst.trivial.path, self.network)
                )
            return None
        index = self._builder.index
        order = [index[p] for p in self.pipeline.stages]
        adapted = adapt_witness(
            order, inst.adj, inst.full, inst.start_mask, inst.end_mask
        )
        if adapted is not None:
            annotate(path="local_repair")
            return Pipeline(inst.report_from_bits(adapted, "splice", 0).path)
        with child_span("seeded_solve"):
            report = solve_posa(
                inst,
                restarts=8,
                rotations=max(200, 4 * inst.h),
                seed=self.policy.seed,
                initial_order=order,
            )
        if report.status is Status.FOUND:
            annotate(path="seeded_solve")
            return Pipeline(report.path)
        return None

    def _record(
        self, node: Node, old: Pipeline | None, *, adopted: bool = False
    ) -> ChurnRecord:
        """Account one applied event against the running totals.  *old* is
        the pipeline the event replaced (``None`` when it was kept)."""
        if old is None:
            moved, kept = 0, self.pipeline.length
        else:
            moved, kept = pipeline_churn(old, self.pipeline)
        record = ChurnRecord(
            fault=node,
            fault_index=self._events,
            healthy_processors=self._healthy_count(self.faults),
            moved=moved,
            kept=kept,
            was_on_pipeline=old is not None,
            adopted=adopted,
        )
        self._events += 1
        self._moved += moved
        if old is not None:
            self._churn_sum += record.churn
            self._reembeds += 1
        return record

    def fail(
        self, node: Node, *, pipeline: Pipeline | Sequence[Node] | None = None
    ) -> ChurnRecord:
        """Inject one fault and re-embed if needed.

        When *pipeline* is given (e.g. a witness cache's node sequence) and
        it is a valid pipeline of ``network \\ (faults | {node})``, it is
        adopted without invoking any solver and the record says
        ``adopted``; an invalid candidate is ignored and the normal
        re-embedding runs.

        The current pipeline is kept as is when it still :meth:`serves`
        the enlarged fault set.

        Raises :class:`~repro.errors.ReconfigurationError` when the
        accumulated faults exceed what the network tolerates.
        """
        if node not in self.network.graph:
            raise ReconfigurationError(f"{node!r} is not a node of the network")
        self.faults.add(node)
        if self.serves(self.faults):
            return self._record(node, None)
        old = self.pipeline
        new = self._valid(pipeline)
        adopted = new is not None
        if adopted:
            annotate(path="witness_adopted")
        if new is None and self.minimize_churn:
            with child_span("stable_reembed", node=repr(node)) as rspan:
                new = self._reembed()
                rspan.set(found=new is not None)
            if new is not None:
                annotate(path="stable_reembed")
        if new is None:
            with child_span("reconfigure_full", node=repr(node)):
                new = reconfigure(self.network, self.faults, self.policy)
            annotate(path="reconfigure_full")
        self.pipeline = new
        return self._record(node, old, adopted=adopted)

    def fail_many(self, nodes: Iterable[Node]) -> list[ChurnRecord]:
        """Inject faults one at a time, in order."""
        return [self.fail(v) for v in nodes]

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def repair(
        self, node: Node, *, pipeline: Pipeline | Sequence[Node] | None = None
    ) -> ChurnRecord:
        """Revive a previously failed node and re-embed if needed.

        Reviving a *terminal* leaves a valid pipeline valid (the interior —
        all healthy processors — is unchanged), so it is kept whenever it
        :meth:`serves` the reduced fault set.  Reviving a *processor*
        invalidates the pipeline, because graceful degradation requires
        every healthy processor to be in use; the session splices the node
        back in locally when possible, otherwise re-embeds (seeded with the
        current order, falling back to full reconfiguration).

        As with :meth:`fail`, a valid *pipeline* candidate (e.g. from a
        witness cache) is adopted without solving.

        Raises :class:`~repro.errors.ReconfigurationError` when *node* is
        not currently failed.
        """
        if node not in self.faults:
            raise ReconfigurationError(f"{node!r} is not currently failed")
        self.faults.discard(node)
        if self.serves(self.faults):
            return self._record(node, None)
        old = self.pipeline
        new = self._valid(pipeline)
        adopted = new is not None
        if adopted:
            annotate(path="witness_adopted")
        if new is None and self.minimize_churn:
            with child_span("splice_repair", node=repr(node)) as rspan:
                new = self._reembed()
                rspan.set(found=new is not None)
            if new is not None:
                annotate(path="splice_repair")
        if new is None:
            with child_span("reconfigure_full", node=repr(node)):
                new = reconfigure(self.network, self.faults, self.policy)
            annotate(path="reconfigure_full")
        self.pipeline = new
        return self._record(node, old, adopted=adopted)

    def total_moved(self) -> int:
        """Stages moved over every event so far."""
        return self._moved

    def mean_churn(self) -> float:
        """Mean churn ratio over the events that re-embedded."""
        return self._churn_sum / self._reembeds if self._reembeds else 0.0
