"""Tiering: the in-memory witness cache backed by the persistent store.

:class:`TieredWitnessCache` composes the two tiers behind the exact
:class:`~repro.service.cache.WitnessCache` interface the control plane
already speaks:

* **Write-behind** (``store``): a validated witness lands in the memory
  LRU immediately and is queued for the :class:`WriteBehindWriter` — a
  single bounded background thread that batches rows into one SQLite
  transaction each.  Solve latency never waits on disk.  If the queue is
  full (or the writer is gone) the row is written synchronously instead
  of being dropped: the persistent tier is the fleet's shared memory and
  silently losing witnesses would defeat it.
* **Cache-aside** (``lookup_validated``): a memory miss falls through to
  the store, and a disk row is seeded back into the memory LRU.  Like
  every cached row it is a candidate only: the session checks it with
  ``is_pipeline`` before adopting it (never trust persisted bytes).
* **Warm-start** (``warm_start``): on ``ControlPlane.register`` the
  newest persisted rows for the network's structural fingerprint, up to
  the memory tier's capacity, are decoded, re-validated against the
  *live* network with ``is_pipeline``, and only then loaded into the
  memory LRU.  Rows that fail to decode or validate are counted
  (``validation_failures``) and deleted.

Lock discipline: :class:`WriteBehindWriter` owns a ``threading.Lock``
guarding its queue/depth/closed state (all mutations happen inside
``with self._lock`` — the RL1xx static pass checks this, no
suppressions); the SQLite connection is guarded by the store's own lock.
The two locks are never held simultaneously (batches are popped under
the writer lock, then written after it is released), so no lock-order
edge exists between them.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Hashable

from ..core.pipeline import is_pipeline
from ..errors import ReproError
from ..obs.spans import annotate
from .cache import WitnessCache
from .canonical import FaultKey, decode_fault_set, label_map
from .store import StoreStats, WitnessStore

Node = Hashable

#: one queued write: (fingerprint, fault key, canonical nodes)
PendingWrite = tuple[str, FaultKey, tuple[Node, ...]]


class WriteBehindWriter:
    """Bounded background writer draining witness rows to the store.

    >>> store = WitnessStore(":memory:")
    >>> writer = WriteBehindWriter(store)
    >>> writer.submit(("net", ("'p1'",), ("i0", "p0", "o0")))
    True
    >>> writer.flush()
    >>> store.row_count()
    1
    >>> writer.close()
    """

    def __init__(
        self,
        store: WitnessStore,
        *,
        max_depth: int = 256,
        batch: int = 64,
    ) -> None:
        if max_depth < 1 or batch < 1:
            raise ReproError("writer max_depth and batch must be >= 1")
        self.store = store
        self.max_depth = max_depth
        self.batch = batch
        self._lock = threading.Lock()
        self._wake = threading.Event()
        self._queue: deque[PendingWrite] = deque()
        self._inflight = 0
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-witness-writer", daemon=True
        )
        self._thread.start()

    def submit(self, row: PendingWrite) -> bool:
        """Queue one row; ``False`` when the writer is closed or the
        queue is at ``max_depth`` (caller should write synchronously)."""
        with self._lock:
            if self._closed or len(self._queue) >= self.max_depth:
                return False
            self._queue.append(row)
            self._wake.set()
        return True

    def depth(self) -> int:
        """Rows queued or mid-commit (the ``write_behind_depth`` gauge)."""
        with self._lock:
            return len(self._queue) + self._inflight

    def flush(self, timeout: float = 30.0) -> None:
        """Block until everything queued so far is committed."""
        end = time.monotonic() + timeout
        while self.depth():
            with self._lock:
                self._wake.set()
            if time.monotonic() > end:
                raise TimeoutError("write-behind queue did not drain in time")
            time.sleep(0.002)

    def close(self, timeout: float = 30.0) -> None:
        """Stop the writer after draining the queue (idempotent)."""
        with self._lock:
            already = self._closed
            self._closed = True
            self._wake.set()
        if not already:
            self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            self._wake.wait(0.1)
            with self._lock:
                take = min(self.batch, len(self._queue))
                batch = [self._queue.popleft() for _ in range(take)]
                self._inflight = len(batch)
                if not batch:
                    if self._closed:
                        return
                    self._wake.clear()
            if batch:
                # put_many contains sqlite3 failures itself (counted as
                # write_errors); a witness row is always re-derivable
                self.store.put_many(batch)
                with self._lock:
                    self._inflight = 0


class TieredWitnessCache(WitnessCache):
    """The in-memory LRU with the persistent tier behind it.

    Drop-in for :class:`WitnessCache`; ``persistent=None`` degrades to
    the plain memory cache.
    """

    def __init__(
        self,
        capacity: int = 256,
        persistent: WitnessStore | None = None,
        *,
        write_behind: bool = True,
        write_behind_depth: int = 256,
        write_behind_batch: int = 64,
    ) -> None:
        super().__init__(capacity)
        self.persistent = persistent
        self._writer: WriteBehindWriter | None = None
        if persistent is not None and write_behind:
            self._writer = WriteBehindWriter(
                persistent,
                max_depth=write_behind_depth,
                batch=write_behind_batch,
            )

    # ------------------------------------------------------------------
    # reads: cache-aside
    # ------------------------------------------------------------------
    def lookup_validated(self, fingerprint: str, key: FaultKey):
        nodes = super().lookup_validated(fingerprint, key)
        if nodes is not None or self.persistent is None:
            return nodes
        row = self.persistent.get(fingerprint, key)
        if row is None:
            annotate(tier="disk", result="miss")
            return None
        WitnessCache.store(self, fingerprint, key, row.nodes)
        annotate(tier="disk", result="hit")
        return row.nodes

    # ------------------------------------------------------------------
    # writes: write-behind
    # ------------------------------------------------------------------
    def store(self, fingerprint: str, key: FaultKey, nodes) -> None:
        super().store(fingerprint, key, nodes)
        if self.persistent is None:
            return
        row: PendingWrite = (fingerprint, key, tuple(nodes))
        if self._writer is not None and self._writer.submit(row):
            return
        if not self.persistent.closed:
            self.persistent.put(*row)

    def invalidate(self, fingerprint: str, key: FaultKey) -> None:
        super().invalidate(fingerprint, key)
        if self.persistent is not None and not self.persistent.closed:
            self.persistent.note_validation_failure(fingerprint, key)

    # ------------------------------------------------------------------
    # warm-start
    # ------------------------------------------------------------------
    def warm_start(self, network, fingerprint: str, *, limit=None) -> int:
        """Load the newest persisted rows for *fingerprint* that survive
        live ``is_pipeline`` validation into the memory LRU; returns the
        number loaded.  At most *limit* rows are read (default: the
        memory tier's capacity, since older rows would be evicted as
        they load).  Invalid/undecodable rows are counted and deleted,
        never served."""
        if self.persistent is None:
            return 0
        labels = label_map(network)
        loaded = 0
        rows = self.persistent.iter_fingerprint(
            fingerprint, self.capacity if limit is None else limit
        )
        for row in reversed(rows):  # oldest first, so newest end up MRU
            faults = decode_fault_set(row.key, labels)
            if faults is None or not is_pipeline(network, row.nodes, faults):
                self.persistent.note_validation_failure(fingerprint, row.key)
                continue
            WitnessCache.store(self, fingerprint, row.key, row.nodes)
            loaded += 1
        if loaded:
            self.persistent.note_warm_loaded(loaded)
        return loaded

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def flush(self, timeout: float = 30.0) -> None:
        if self._writer is not None:
            self._writer.flush(timeout)

    def close(self) -> None:
        """Flush the write-behind queue and close the store (idempotent)."""
        if self._writer is not None:
            self._writer.close()
        if self.persistent is not None:
            self.persistent.close()

    def write_behind_depth(self) -> int:
        return self._writer.depth() if self._writer is not None else 0

    def store_stats(self) -> StoreStats | None:
        if self.persistent is None:
            return None
        return self.persistent.stats(
            write_behind_depth=self.write_behind_depth()
        )
