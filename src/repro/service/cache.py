"""Witness cache: memoized validated pipelines keyed by canonical fault set.

Reconfiguration cost is dominated by the solve; the *answer* is a short
node sequence.  Fleets re-see the same fault patterns constantly — a
repaired node fails again, a replica of the same build suffers the fault
its sibling already solved, a symmetric fault lands elsewhere on the same
orbit — so the control plane memoizes every validated pipeline under a
``(network fingerprint, canonical fault key)`` row.

Entries are stored in *canonical* label space (the automorphism image
chosen by :class:`~repro.service.canonical.Canonicalizer`), which is what
makes symmetric hits possible: the caller maps the cached sequence back
through the inverse automorphism before serving it.  A row is never
trusted: the session that adopts it checks it with ``is_pipeline``
against the live fault set, and a row it rejects is dropped
(:meth:`WitnessCache.invalidate`) and the event solved as a miss — the
cache can only ever save work, never corrupt an answer.

Eviction is LRU with a fixed capacity; hits, misses, stores, evictions
and invalidations are counted for the metrics snapshot.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from ..obs.spans import annotate
from .canonical import FaultKey

Node = Hashable

CacheRow = tuple[str, FaultKey]


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


class WitnessCache:
    """Thread-safe LRU map ``(fingerprint, fault key) -> pipeline nodes``.

    >>> cache = WitnessCache(capacity=2)
    >>> cache.store("net", ("'p1'",), ("i0", "p0", "o0"))
    >>> cache.lookup_validated("net", ("'p1'",))
    ('i0', 'p0', 'o0')
    >>> cache.lookup_validated("net", ("'p2'",)) is None
    True
    >>> cache.stats().hits, cache.stats().misses
    (1, 1)
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._rows: OrderedDict[CacheRow, tuple[Node, ...]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._invalid = 0

    def lookup_validated(
        self, fingerprint: str, key: FaultKey
    ) -> tuple[Node, ...] | None:
        """The cached canonical-space pipeline for a row, or ``None``.

        A hit refreshes the row's recency.  The nodes are a candidate the
        caller still validates (the session checks every adopted row), and
        one that fails is dropped with :meth:`invalidate`.
        """
        row = (fingerprint, key)
        with self._lock:
            nodes = self._rows.get(row)
            if nodes is None:
                self._misses += 1
            else:
                self._rows.move_to_end(row)
                self._hits += 1
        # annotate outside the lock: the active-span stack is thread-local
        annotate(tier="memory", result="miss" if nodes is None else "hit")
        return nodes

    def store(
        self, fingerprint: str, key: FaultKey, nodes: tuple[Node, ...]
    ) -> None:
        """Insert (or refresh) a row, evicting the least recently used."""
        row = (fingerprint, key)
        with self._lock:
            self._rows[row] = tuple(nodes)
            self._rows.move_to_end(row)
            self._stores += 1
            while len(self._rows) > self.capacity:
                self._rows.popitem(last=False)
                self._evictions += 1

    def invalidate(self, fingerprint: str, key: FaultKey) -> None:
        """Record that a served row failed live validation and drop it, so
        a bad entry cannot keep being served and re-failing."""
        row = (fingerprint, key)
        with self._lock:
            self._invalid += 1
            self._rows.pop(row, None)

    # ------------------------------------------------------------------
    # tiering hooks (no-ops for the pure in-memory cache; the persistent
    # tier in :mod:`repro.service.tiering` overrides them)
    # ------------------------------------------------------------------
    def warm_start(self, network, fingerprint: str, *, limit=None) -> int:
        """Preload rows for *fingerprint* from a persistent tier.

        The in-memory cache has no persistent tier: loads nothing.
        """
        return 0

    def flush(self, timeout: float = 30.0) -> None:
        """Drain any pending write-behind work (no-op here)."""

    def close(self) -> None:
        """Release tier resources (no-op here; idempotent everywhere)."""

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def __contains__(self, row: CacheRow) -> bool:
        with self._lock:
            return row in self._rows

    def clear(self) -> None:
        with self._lock:
            self._rows.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                size=len(self._rows),
                capacity=self.capacity,
                hits=self._hits,
                misses=self._misses,
                stores=self._stores,
                evictions=self._evictions,
                invalid=self._invalid,
            )
