"""Cache keys for fault sets and networks.

The witness cache (:mod:`repro.service.tiering`) keys each row by two
things:

**The network's structure.**  The factory builds are deterministic, so
two replicas of ``build(9, 2)`` are *identical* labeled graphs; a
pipeline solved for a fault set on one replica is verbatim valid on the
other.  :func:`network_fingerprint` hashes the labeled structure so
replicas land on the same cache rows regardless of their registry names.

**The fault set's labels.**  :class:`Canonicalizer` keys a fault set by
its sorted ``repr`` labels (:func:`plain_fault_key`), so a row is the
pipeline of exactly the fault set its key names.  Keys are not
minimized over the network's automorphisms: on measured traffic that
added no hits and its automorphism lists cost most of a replica fleet's
registration (``docs/service.md``).  Stores whose keys were minimized
still serve, because each of their rows pairs the key of an image
``sigma(F)`` with a pipeline for ``sigma(F)``.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Hashable, Iterable, Mapping, Sequence

from ..core.model import PipelineNetwork
from ..errors import ReproError

Node = Hashable

#: A fault key: the sorted ``repr`` labels of the fault set.  ``repr``
#: keys keep heterogeneous node labels comparable.
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
    """The cache key of a fault set: its sorted node labels."""
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
    """Serialize a fault key to its stable text form.

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
    """The live fault set a fault key denotes, or ``None`` when any
    label is unknown to *labels* (a row persisted for a different or
    mutated structure — never guess)."""
    out = []
    for lbl in key:
        if lbl not in labels:
            return None
        out.append(labels[lbl])
    return frozenset(out)


class Canonicalizer:
    """Maps fault sets to their cache keys.

    A class rather than a bare call so that the benchmark's layer tracing
    (``bench/layers.py``) can time ``canonical`` as its own layer.

    >>> Canonicalizer().canonical({"p3", "p1"})
    ("'p1'", "'p3'")
    """

    def canonical(self, faults: Iterable[Node]) -> FaultKey:
        """The key of *faults*: :func:`plain_fault_key`."""
        return plain_fault_key(faults)
