"""Witness-cache accounting.

Reconfiguration cost is dominated by the solve; the *answer* is a short
node sequence.  Fleets re-see the same fault patterns constantly — a
repaired node fails again, a replica of the same build suffers the fault
its sibling already solved — so the control plane memoizes every
validated pipeline under a ``(network fingerprint, fault key)`` row in
:class:`~repro.service.tiering.TieredWitnessCache`.

A row is never trusted: the session that adopts it checks it with
``is_pipeline`` against the live fault set, and a row it rejects is
dropped and the event solved as a miss — the cache can only ever save
work, never corrupt an answer.  :class:`CacheStats` is the cache's
point-in-time accounting for the metrics snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of witness-cache accounting."""

    size: int
    capacity: int
    hits: int
    misses: int
    stores: int
    evictions: int
    invalid: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
