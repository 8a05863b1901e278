"""Automorphism orbits of fault sets, for the kernel sweep's opt-in
orbit path (``verify_exhaustive_parallel(..., symmetry=True)``).

Fault sets related by a label-respecting automorphism have identical
tolerance (the automorphism maps any pipeline of one survivor graph to a
pipeline of the other), so an exhaustive sweep only needs one
representative per orbit of the group action on fault sets.  For the
highly symmetric constructions this is a large saving: ``G(1,k)``'s
group has order ``(k+1)!``, collapsing the single-fault sweep from
``3(k+1)`` checks to 3.

The group is enumerated once (capped — graphs with astronomically many
automorphisms are refused), each fault set is canonicalized to the
lexicographically smallest image under the group, and only canonical
sets are decided; per-orbit multiplicities keep the reported
``checked``/``tolerated`` totals equal to the plain sweep's.

>>> from ..constructions import build_g1k
>>> group = enumerate_group(build_g1k(2))
>>> reps = orbit_representatives(build_g1k(2).graph.nodes, 2, group)
>>> len(group), len(reps), sum(mult for _, mult in reps)
(6, 13, 46)
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..hamilton import Status
from ..model import PipelineNetwork
from .exhaustive import iter_fault_sets_gray

Node = Hashable

#: give up on symmetry reduction beyond this many automorphisms — the
#: canonicalization cost would outweigh the savings.
DEFAULT_GROUP_CAP = 5_000


def enumerate_group(
    network: PipelineNetwork, cap: int = DEFAULT_GROUP_CAP
) -> list[dict] | None:
    """The full automorphism group as mappings, or ``None`` when it
    exceeds *cap* (caller should fall back to the plain sweep)."""
    from ...graphs.automorphisms import iter_automorphisms

    group: list[dict] = []
    for auto in iter_automorphisms(network):
        group.append(auto)
        if len(group) > cap:
            return None
    return group


def canonical_fault_set(
    fault_set: tuple, group: list[dict]
) -> tuple:
    """The lexicographically smallest image of *fault_set* under the
    group (by ``repr`` order, matching the sweep's iteration order)."""
    best = tuple(sorted(fault_set, key=repr))
    for auto in group:
        image = tuple(sorted((auto[v] for v in fault_set), key=repr))
        if image < best:
            best = image
    return best


def orbit_representatives(
    nodes: Iterable[Node],
    k: int,
    group: list[dict],
    sizes: Iterable[int] | None = None,
) -> list[tuple[tuple[Node, ...], int]]:
    """``(representative, multiplicity)`` pairs covering every fault set
    of size ``<= k`` exactly once per automorphism orbit.

    Representatives appear in first-seen revolving-door order (so a
    warm-started consumer still sees near-adjacent sets), and the
    multiplicities sum to the full sweep's ``sum C(n, j)`` total — a
    consumer that weights each verdict by its multiplicity reports
    ``checked``/``tolerated`` identical to the unreduced sweep.
    """
    counts: dict[tuple[Node, ...], int] = {}
    order: list[tuple[Node, ...]] = []
    for fault_set in iter_fault_sets_gray(nodes, k, sizes):
        canon = canonical_fault_set(fault_set, group)
        if canon in counts:
            counts[canon] += 1
        else:
            counts[canon] = 1
            order.append(canon)
    return [(rep, counts[rep]) for rep in order]


class CanonicalVerdictCache:
    """Worker-side verdict memo keyed by canonical fault set.

    The parallel sweep shards orbit *representatives*, but chunk
    boundaries and crash-requeues can hand one worker fault sets from
    orbits another chunk already decided locally.  Each worker keeps one
    of these: verdicts are stored under the canonical image, so any
    orbit-mate re-encountered within the worker is answered without a
    sweeper call.  Purely an intra-worker accelerator — workers never
    share it, and a miss just falls through to the normal decide path,
    so verdicts are unaffected.
    """

    __slots__ = ("group", "_verdicts", "hits")

    def __init__(self, group: list[dict]) -> None:
        self.group = group
        self._verdicts: dict[tuple, Status] = {}
        self.hits = 0

    def get(self, fault_set: tuple) -> Status | None:
        status = self._verdicts.get(canonical_fault_set(fault_set, self.group))
        if status is not None:
            self.hits += 1
        return status

    def put(self, fault_set: tuple, status: Status) -> None:
        self._verdicts[canonical_fault_set(fault_set, self.group)] = status
