"""The node-labeled graph model of Section 3.

A :class:`PipelineNetwork` is a simple graph ``G = (V, E)`` together with a
set of *input terminals* ``Ti`` and a set of *output terminals* ``To``
(disjoint); all remaining nodes are *processor* nodes.  The paper's
key definitions, realized here:

standard
    node-optimal (exactly ``k+1`` input terminals, ``k+1`` output
    terminals, and ``n+k`` processors) **and** every terminal has degree 1.

``I`` / ``O``
    for a standard graph, the processor nodes adjacent to input / output
    terminals.

The class is deliberately thin: it wraps a :class:`networkx.Graph` plus the
two terminal sets, stores the declared parameters ``(n, k)`` and
construction metadata, and offers the survivor view ``G \\ F`` used by
every verification and reconfiguration routine.
"""

from __future__ import annotations

import enum
from typing import Hashable, Iterable, Iterator, Mapping

import networkx as nx

from .._util import check_nk
from ..errors import InvalidParameterError, NotStandardError

Node = Hashable


class NodeKind(str, enum.Enum):
    """The three node labels of the model."""

    INPUT = "input"
    OUTPUT = "output"
    PROCESSOR = "processor"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PipelineNetwork:
    """A node-labeled graph ``(G, Ti, To)`` with declared parameters.

    Parameters
    ----------
    graph:
        the underlying simple graph.  A defensive copy is **not** taken;
        callers who need isolation should pass ``graph.copy()``.
    inputs, outputs:
        the input/output terminal node sets.  Must be disjoint subsets of
        the graph's nodes.
    n, k:
        the declared parameters: the network is *intended* to be a
        ``k``-gracefully-degradable graph for ``n`` nodes.  These are
        claims recorded by the constructions — verification lives in
        :mod:`repro.core.verify`.
    meta:
        free-form construction metadata (construction name, label maps,
        extension lineage, ...) consumed by
        :mod:`repro.core.reconfigure` to pick fast constructive
        algorithms.
    """

    __slots__ = ("graph", "inputs", "outputs", "n", "k", "meta")

    def __init__(
        self,
        graph: nx.Graph,
        inputs: Iterable[Node],
        outputs: Iterable[Node],
        *,
        n: int,
        k: int,
        meta: Mapping | None = None,
    ) -> None:
        check_nk(n, k)
        self.graph = graph
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        self.n = n
        self.k = k
        self.meta: dict = dict(meta or {})
        self._validate_basic()

    # ------------------------------------------------------------------
    # construction & validation
    # ------------------------------------------------------------------
    def _validate_basic(self) -> None:
        if self.inputs & self.outputs:
            raise InvalidParameterError("input and output terminal sets overlap")
        missing = (self.inputs | self.outputs) - set(self.graph.nodes)
        if missing:
            raise InvalidParameterError(f"terminals not in graph: {sorted(map(repr, missing))}")
        if any(self.graph.has_edge(v, v) for v in self.graph.nodes):
            raise InvalidParameterError("the model requires a simple graph (self-loop found)")
        if not self.inputs:
            raise InvalidParameterError("at least one input terminal is required")
        if not self.outputs:
            raise InvalidParameterError("at least one output terminal is required")

    # ------------------------------------------------------------------
    # basic views
    # ------------------------------------------------------------------
    @property
    def processors(self) -> frozenset[Node]:
        """All nodes that are neither input nor output terminals."""
        return frozenset(self.graph.nodes) - self.inputs - self.outputs

    @property
    def terminals(self) -> frozenset[Node]:
        return self.inputs | self.outputs

    def kind(self, node: Node) -> NodeKind:
        """The label of *node*."""
        if node in self.inputs:
            return NodeKind.INPUT
        if node in self.outputs:
            return NodeKind.OUTPUT
        if node in self.graph:
            return NodeKind.PROCESSOR
        raise InvalidParameterError(f"{node!r} is not a node of this network")

    def kinds(self) -> dict[Node, NodeKind]:
        """Mapping node -> label for every node."""
        return {v: self.kind(v) for v in self.graph.nodes}

    def processor_subgraph(self) -> nx.Graph:
        """The subgraph induced by the processor nodes (a read-only view)."""
        return self.graph.subgraph(self.processors)

    def attachment_set(self, kind: NodeKind) -> frozenset[Node]:
        """The paper's ``I`` (resp. ``O``): processors adjacent to an
        input (resp. output) terminal."""
        if kind is NodeKind.INPUT:
            terms = self.inputs
        elif kind is NodeKind.OUTPUT:
            terms = self.outputs
        else:
            raise InvalidParameterError("attachment_set takes INPUT or OUTPUT")
        procs = self.processors
        out: set[Node] = set()
        for t in terms:
            out.update(v for v in self.graph.neighbors(t) if v in procs)
        return frozenset(out)

    @property
    def I(self) -> frozenset[Node]:  # noqa: E743 - paper notation
        """Processors adjacent to input terminals (paper's ``I``)."""
        return self.attachment_set(NodeKind.INPUT)

    @property
    def O(self) -> frozenset[Node]:  # noqa: E743 - paper notation
        """Processors adjacent to output terminals (paper's ``O``)."""
        return self.attachment_set(NodeKind.OUTPUT)

    # ------------------------------------------------------------------
    # degree properties / standardness
    # ------------------------------------------------------------------
    def processor_degrees(self) -> dict[Node, int]:
        return {v: self.graph.degree(v) for v in self.processors}

    def max_processor_degree(self) -> int:
        degs = self.processor_degrees()
        return max(degs.values()) if degs else 0

    def min_processor_degree(self) -> int:
        degs = self.processor_degrees()
        return min(degs.values()) if degs else 0

    def is_node_optimal(self) -> bool:
        """Exactly ``k+1`` input terminals, ``k+1`` output terminals and
        ``n+k`` processor nodes (the minimum possible — Section 3)."""
        return (
            len(self.inputs) == self.k + 1
            and len(self.outputs) == self.k + 1
            and len(self.processors) == self.n + self.k
        )

    def terminals_have_degree_one(self) -> bool:
        return all(self.graph.degree(t) == 1 for t in self.terminals)

    def is_standard(self) -> bool:
        """Node-optimal with all terminals of degree 1 (paper, Section 3)."""
        return self.is_node_optimal() and self.terminals_have_degree_one()

    def assert_standard(self) -> None:
        """Raise :class:`NotStandardError` with a diagnostic when the
        network is not standard."""
        problems: list[str] = []
        if len(self.inputs) != self.k + 1:
            problems.append(f"|Ti|={len(self.inputs)} (want {self.k + 1})")
        if len(self.outputs) != self.k + 1:
            problems.append(f"|To|={len(self.outputs)} (want {self.k + 1})")
        if len(self.processors) != self.n + self.k:
            problems.append(f"|P|={len(self.processors)} (want {self.n + self.k})")
        bad_terms = [t for t in self.terminals if self.graph.degree(t) != 1]
        if bad_terms:
            problems.append(f"terminals with degree != 1: {sorted(map(repr, bad_terms))}")
        if problems:
            raise NotStandardError("; ".join(problems))

    # ------------------------------------------------------------------
    # fault handling
    # ------------------------------------------------------------------
    def surviving(self, faults: Iterable[Node] = ()) -> "SurvivorView":
        """The graph ``G \\ F`` together with the healthy label sets."""
        return SurvivorView(self, frozenset(faults))

    # ------------------------------------------------------------------
    # structural ops
    # ------------------------------------------------------------------
    def copy(self) -> "PipelineNetwork":
        return PipelineNetwork(
            self.graph.copy(),
            self.inputs,
            self.outputs,
            n=self.n,
            k=self.k,
            meta=dict(self.meta),
        )

    def relabeled(self, mapping: Mapping[Node, Node]) -> "PipelineNetwork":
        """A copy with nodes renamed by *mapping* (missing keys keep their
        name).  Construction metadata that references node names is
        dropped, since it would dangle."""
        g = nx.relabel_nodes(self.graph, dict(mapping), copy=True)
        ren = lambda v: mapping.get(v, v)  # noqa: E731
        meta = {k: v for k, v in self.meta.items() if k == "construction"}
        return PipelineNetwork(
            g,
            [ren(v) for v in self.inputs],
            [ren(v) for v in self.outputs],
            n=self.n,
            k=self.k,
            meta=meta,
        )

    def __contains__(self, node: Node) -> bool:
        return node in self.graph

    def __len__(self) -> int:
        return len(self.graph)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.graph)

    def __repr__(self) -> str:
        name = self.meta.get("construction", "network")
        return (
            f"<PipelineNetwork {name} n={self.n} k={self.k} "
            f"|V|={len(self.graph)} |E|={self.graph.number_of_edges()}>"
        )


class SurvivorView:
    """The healthy part of a network under a fault set: ``G \\ F``.

    Exposes the subgraph plus the surviving label sets.  Fault nodes that
    are not in the network are tolerated (removing a non-node is a no-op,
    matching the set-difference semantics of the paper's ``G \\ F``).
    The networkx subgraph view is built on first read of :attr:`graph`;
    the label sets and attachment queries never need it.
    """

    __slots__ = ("network", "faults", "_graph")

    def __init__(self, network: PipelineNetwork, faults: frozenset[Node]) -> None:
        self.network = network
        self.faults = faults
        self._graph: nx.Graph | None = None

    @property
    def graph(self) -> nx.Graph:
        """``G \\ F`` as a read-only networkx subgraph view."""
        if self._graph is None:
            g = self.network.graph
            self._graph = g.subgraph(set(g.nodes) - self.faults)
        return self._graph

    @property
    def inputs(self) -> frozenset[Node]:
        return self.network.inputs - self.faults

    @property
    def outputs(self) -> frozenset[Node]:
        return self.network.outputs - self.faults

    @property
    def processors(self) -> frozenset[Node]:
        return self.network.processors - self.faults

    def input_attached(self) -> frozenset[Node]:
        """Healthy processors adjacent to a *healthy* input terminal."""
        return self._attached(self.inputs)

    def output_attached(self) -> frozenset[Node]:
        """Healthy processors adjacent to a *healthy* output terminal."""
        return self._attached(self.outputs)

    def _attached(self, terms: frozenset[Node]) -> frozenset[Node]:
        # *terms* holds healthy terminals only, so the full graph's
        # neighbor lists answer exactly what the subgraph view would
        g = self.network.graph
        return frozenset(
            p for p in self.processors if any(t in terms for t in g.neighbors(p))
        )

    def __repr__(self) -> str:
        return (
            f"<SurvivorView faults={len(self.faults)} "
            f"procs={len(self.processors)} in={len(self.inputs)} out={len(self.outputs)}>"
        )
