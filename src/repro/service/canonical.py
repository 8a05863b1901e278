"""Canonical forms for fault sets and networks.

The witness cache (:mod:`repro.service.cache`) wants two fault patterns to
share a cache entry whenever their solutions are interchangeable.  Two
levels of sharing apply:

**Structural sharing.**  The factory builds are deterministic, so two
replicas of ``build(9, 2)`` are *identical* labeled graphs; a pipeline
solved for a fault set on one replica is verbatim valid on the other.
:func:`network_fingerprint` hashes the labeled structure so replicas land
on the same cache rows regardless of their registry names.

**Symmetry sharing.**  A kind-preserving automorphism ``sigma`` of the
network maps pipelines of ``G \\ F`` to pipelines of ``G \\ sigma(F)``
(:mod:`repro.graphs.automorphisms`).  For vertex-transitive cores — e.g.
the circulant of the Section 3.4 asymptotic construction, or any
circulant ring with terminals attached uniformly — whole orbits of fault
sets collapse to one entry: a single-node fault has *one* canonical form
instead of ``m``.  :class:`Canonicalizer` picks, over the enumerated
automorphisms, the image of the fault set that minimizes the sorted label
key, and remembers which ``sigma`` achieved it so cached pipelines can be
mapped back through ``sigma^{-1}``.

Enumeration is bounded: highly symmetric graphs (the ``G(1,k)`` cliques)
have factorially many automorphisms, so only the first
``limit`` are kept.  A truncated group costs cache *hits* (orbit members
may canonicalize differently) but never correctness — every stored entry
is the image of a validated pipeline under a genuine automorphism, and
served entries are re-validated against the live fault set anyway.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Hashable, Iterable, Mapping, Sequence

from ..core.model import PipelineNetwork
from ..errors import ReproError
from ..graphs.automorphisms import iter_automorphisms

Node = Hashable

#: A canonical fault key: the sorted ``repr`` labels of the (canonicalized)
#: fault set.  ``repr`` keys keep heterogeneous node labels comparable.
FaultKey = tuple[str, ...]


def network_fingerprint(network: PipelineNetwork) -> str:
    """A digest of the labeled structure of *network*.

    Covers the declared parameters, the terminal sets and every edge —
    two networks with equal fingerprints are the same labeled graph, so
    cached pipelines transfer verbatim between them.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(
        repr(
            (
                network.n,
                network.k,
                sorted(map(repr, network.inputs)),
                sorted(map(repr, network.outputs)),
            )
        ).encode()
    )
    for edge in sorted(tuple(sorted(map(repr, e))) for e in network.graph.edges):
        h.update(repr(edge).encode())
    return h.hexdigest()


def plain_fault_key(faults: Iterable[Node]) -> FaultKey:
    """The symmetry-blind canonical key: sorted node labels."""
    return tuple(sorted(repr(v) for v in faults))


# ----------------------------------------------------------------------
# stable row serialization (the persistent witness tier's wire format)
# ----------------------------------------------------------------------
#
# The persistent store (:mod:`repro.service.store`) shares rows across
# processes and process restarts, so its serialization must be (a)
# deterministic — byte-identical regardless of PYTHONHASHSEED or dict
# order — and (b) *round-trip verified*: a node label that does not
# survive ``decode(encode(x)) == x`` is rejected at encode time rather
# than silently persisted as something else.


def encode_fault_key(key: FaultKey) -> str:
    """Serialize a canonical fault key to its stable text form.

    Keys are already tuples of ``repr`` labels (plain strings), so a
    compact JSON array is deterministic as-is.
    """
    return json.dumps(list(key), separators=(",", ":"))


def decode_fault_key(text: str) -> FaultKey:
    """Inverse of :func:`encode_fault_key`.

    Raises :class:`~repro.errors.ReproError` on malformed (e.g. torn)
    input — the store treats that as a row that never existed.
    """
    try:
        parsed = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise ReproError(f"undecodable fault key {text!r}: {exc}") from None
    if not isinstance(parsed, list) or not all(
        isinstance(s, str) for s in parsed
    ):
        raise ReproError(f"fault key {text!r} is not a list of labels")
    return tuple(parsed)


def encode_nodes(nodes: Sequence[Node]) -> str:
    """Serialize a pipeline node sequence to stable text.

    Uses ``repr`` of the tuple with an :func:`ast.literal_eval`
    round-trip check, which covers every label kind the project's
    networks use (strings, ints, tuples thereof).  A sequence that does
    not round-trip exactly raises :class:`~repro.errors.ReproError`;
    callers skip persistence for such networks instead of storing rows
    they could not faithfully read back.
    """
    snapshot = tuple(nodes)
    text = repr(snapshot)
    try:
        back = ast.literal_eval(text)
    except (ValueError, SyntaxError, MemoryError, RecursionError) as exc:
        raise ReproError(
            f"pipeline nodes are not literal-serializable: {exc}"
        ) from None
    if back != snapshot:
        raise ReproError("pipeline nodes do not survive a repr round-trip")
    return text


def decode_nodes(text: str) -> tuple[Node, ...]:
    """Inverse of :func:`encode_nodes`; raises on torn/corrupt input."""
    try:
        parsed = ast.literal_eval(text)
    except (ValueError, SyntaxError, MemoryError, RecursionError) as exc:
        raise ReproError(f"undecodable pipeline row: {exc}") from None
    if not isinstance(parsed, tuple):
        raise ReproError("pipeline row did not decode to a tuple")
    try:
        hash(parsed)
    except TypeError:
        raise ReproError("pipeline row holds an unhashable label") from None
    return parsed


def label_map(network: PipelineNetwork) -> dict[str, Node]:
    """``repr`` label -> live node object, for resolving persisted keys
    against a freshly built network."""
    return {repr(v): v for v in network.graph.nodes}


def decode_fault_set(
    key: FaultKey, labels: Mapping[str, Node]
) -> frozenset | None:
    """The live fault set a canonical key denotes, or ``None`` when any
    label is unknown to *labels* (a row persisted for a different or
    mutated structure — never guess)."""
    out = []
    for lbl in key:
        if lbl not in labels:
            return None
        out.append(labels[lbl])
    return frozenset(out)


class Canonicalizer:
    """Maps fault sets of one network to canonical ``(key, sigma)`` pairs.

    ``sigma`` is the automorphism (a node mapping) whose image of the
    fault set realizes the canonical key, or ``None`` when the identity
    does (also the case when symmetry is disabled).  Callers store
    pipelines in *canonical* label space (``sigma`` applied) and serve
    them back through :meth:`map_back` (``sigma`` inverted).
    """

    def __init__(
        self,
        network: PipelineNetwork,
        *,
        mode: str = "auto",
        max_nodes: int = 64,
        limit: int = 512,
    ) -> None:
        if mode not in ("auto", "off", "full"):
            raise ValueError(f"unknown symmetry mode {mode!r}")
        self.network = network
        self.automorphisms: list[dict] = []
        self.truncated = False
        enabled = mode == "full" or (mode == "auto" and len(network) <= max_nodes)
        if enabled:
            for auto in iter_automorphisms(network):
                if any(auto[v] != v for v in auto):
                    self.automorphisms.append(auto)
                if len(self.automorphisms) >= limit:
                    self.truncated = True
                    break

    @property
    def order_seen(self) -> int:
        """Non-identity automorphisms in use (0 = symmetry-blind)."""
        return len(self.automorphisms)

    def canonical(self, faults: Iterable[Node]) -> tuple[FaultKey, dict | None]:
        """The canonical key of *faults* and the automorphism achieving it."""
        fset = list(faults)
        best_key = plain_fault_key(fset)
        best_sigma: dict | None = None
        for sigma in self.automorphisms:
            key = tuple(sorted(repr(sigma[v]) for v in fset))
            if key < best_key:
                best_key, best_sigma = key, sigma
        return best_key, best_sigma

    @staticmethod
    def map_forward(nodes: Sequence[Node], sigma: dict | None) -> tuple[Node, ...]:
        """Apply ``sigma`` to a node sequence (identity when ``None``)."""
        if sigma is None:
            return tuple(nodes)
        return tuple(sigma[v] for v in nodes)

    @staticmethod
    def map_back(nodes: Sequence[Node], sigma: dict | None) -> tuple[Node, ...]:
        """Apply ``sigma^{-1}`` to a node sequence (identity when ``None``).

        A label outside the network (a corrupt cached row) has no preimage
        and passes through unchanged, so the validation that every cached
        row gets rejects it instead of this lookup raising.
        """
        if sigma is None:
            return tuple(nodes)
        inverse = {w: v for v, w in sigma.items()}
        return tuple(inverse.get(v, v) for v in nodes)
