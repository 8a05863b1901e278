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

The session prefers minimally-disruptive embeddings by seeding the
solver with the previous pipeline's order, then falls back to the
construction's own reconfiguration algorithm.

Every pipeline the session adopts is checked with :func:`is_pipeline`
exactly once, where it is produced: a caller's candidate, a local
repair, a splice or a seeded solve.  Churn totals are running sums, so
the session keeps no per-event history and :meth:`~ReconfigurationSession.
total_moved` and :meth:`~ReconfigurationSession.mean_churn` cost O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Hashable, Iterable, Sequence

from ..errors import ReconfigurationError
from ..obs.spans import annotate, child_span
from .hamilton import SolvePolicy, SpanningPathInstance, Status, solve_posa
from .model import PipelineNetwork
from .pipeline import Pipeline, is_pipeline
from .reconfigure import reconfigure

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
        # running churn totals: the events applied so far, the stages they
        # moved, and the churn ratios of the events that re-embedded
        self._events = 0
        self._moved = 0
        self._churn_sum = 0.0
        self._reembeds = 0

    @property
    def healthy_processors(self) -> frozenset:
        return self.network.processors - self.faults

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
        return faults.isdisjoint(self.pipeline.nodes) and (
            self.pipeline.length
            == len(self._processors) - len(self._processors & faults)
        )

    def _healthy_terminal_for(self, stage: Node, kind: str) -> Node | None:
        terms = self.network.inputs if kind == "input" else self.network.outputs
        for t in self.network.graph.neighbors(stage):
            if t in terms and t not in self.faults:
                return t
        return None

    def _local_repair(self, dead: Node) -> Pipeline | None:
        """Splice the dead node out of the current pipeline with a
        minimal-churn local repair.

        After removing the dead stage the path is broken into a left and
        a right half.  Repairs tried, cheapest first:

        1. direct bridge: the halves' facing ends are adjacent;
        2. 2-opt: reverse a prefix of the right half (or a suffix of the
           left half) so a chord re-joins the halves — moves only the
           reversed segment.

        Dead terminals are handled by re-attaching the end stage to
        another healthy terminal.  Returns ``None`` when no local repair
        applies (caller falls back to heuristics / full reconfigure).
        """
        g = self.network.graph
        nodes = list(self.pipeline.nodes)
        if dead not in nodes:
            return None
        if dead == nodes[0] or dead == nodes[-1]:
            # a terminal endpoint died: keep the stage order, swap the terminal
            stages = list(self.pipeline.stages)
            t_in = self._healthy_terminal_for(stages[0], "input")
            t_out = self._healthy_terminal_for(stages[-1], "output")
            if t_in is None or t_out is None:
                return None
            return Pipeline([t_in, *stages, t_out])
        stages = [v for v in self.pipeline.stages if v != dead]
        idx = self.pipeline.stages.index(dead)
        left = list(self.pipeline.stages[:idx])
        right = list(self.pipeline.stages[idx + 1:])

        def finish(order: list[Node]) -> Pipeline | None:
            if not order:
                return None
            t_in = self._healthy_terminal_for(order[0], "input")
            t_out = self._healthy_terminal_for(order[-1], "output")
            if t_in is None or t_out is None:
                return None
            if any(
                not g.has_edge(a, b) for a, b in zip(order, order[1:])
            ):
                return None
            return Pipeline([t_in, *order, t_out])

        candidates: list[list[Node]] = []
        if not left or not right:
            candidates.append(stages)
        elif g.has_edge(left[-1], right[0]):
            candidates.append(left + right)
        else:
            # 2-opt on the right half: left ... left[-1] -- right[j] ...
            # right[0] -- right[j+1] ... (reverse right[:j+1])
            for j in range(1, len(right)):
                if g.has_edge(left[-1], right[j]) and (
                    j + 1 >= len(right) or g.has_edge(right[0], right[j + 1])
                ):
                    candidates.append(
                        left + right[j::-1] + right[j + 1:]
                    )
                    break
            # symmetric 2-opt on the left half
            for j in range(len(left) - 1):
                if g.has_edge(right[0], left[j]) and (
                    j == 0 or g.has_edge(left[j - 1], left[-1])
                ):
                    candidates.append(
                        left[:j] + left[:j-1:-1] + right
                        if j > 0
                        else left[::-1] + right
                    )
                    break
        for order in candidates:
            repaired = finish(order)
            if repaired is not None:
                return repaired
        return None

    def _valid(
        self, candidate: Pipeline | Sequence[Node] | None
    ) -> Pipeline | None:
        """*candidate* as a :class:`Pipeline` when it is one of the network
        under the current faults, else ``None`` — the session's one check.

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

    def _stable_reembed(self, dead: Node) -> Pipeline | None:
        """Minimal-churn re-embedding: local repair first, then a
        previous-order-seeded heuristic.  Returns a validated pipeline or
        ``None``."""
        repaired = self._valid(self._local_repair(dead))
        if repaired is not None:
            annotate(path="local_repair")
            return repaired
        inst = SpanningPathInstance(self.network.surviving(self.faults))
        if inst.trivial is not None:
            if inst.trivial.status is Status.FOUND:
                annotate(path="trivial")
                return self._valid(
                    Pipeline.oriented(inst.trivial.path, self.network)
                )
            return None
        order = [
            inst.index[p] for p in self.pipeline.stages if p in inst.index
        ]
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
            return self._valid(Pipeline.oriented(report.path, self.network))
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
            healthy_processors=len(self.healthy_processors),
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
                new = self._stable_reembed(node)
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
    def _splice_in(self, node: Node) -> Pipeline | None:
        """Insert a revived processor into the current pipeline with
        minimal churn: find consecutive pipeline nodes ``(a, b)`` such that
        ``a -- node -- b`` are edges and splice *node* between them."""
        g = self.network.graph
        nodes = list(self.pipeline.nodes)
        for i in range(len(nodes) - 1):
            a, b = nodes[i], nodes[i + 1]
            if g.has_edge(a, node) and g.has_edge(node, b):
                return Pipeline(nodes[: i + 1] + [node] + nodes[i + 1:])
        return None

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
                new = self._valid(self._splice_in(node))
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
