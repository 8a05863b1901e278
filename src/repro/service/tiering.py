"""The witness cache: an in-memory LRU with an optional persistent store.

:class:`TieredWitnessCache` is the control plane's one witness cache.
Without a :class:`~repro.service.store.WitnessStore` it is a plain
thread-safe LRU; with one it adds two things:

* **Write-behind** (``store``): a validated witness lands in the memory
  LRU immediately and is queued for the :class:`WriteBehindWriter` — a
  single bounded background thread that batches rows into one SQLite
  transaction each.  Solve latency never waits on disk (encoding a row
  round-trip checks its labels, which costs about as much as the solve
  it follows).  If the queue is full (or the writer is gone) the row is
  written synchronously instead of being dropped: the persistent tier
  is the fleet's shared memory and silently losing witnesses would
  defeat it.
* **Warm start** (``warm_start``): on ``ControlPlane.register`` the
  newest persisted rows for the network's structural fingerprint, up to
  the memory tier's capacity, are decoded, re-validated against the
  *live* network with ``is_pipeline``, and only then loaded into the
  memory LRU.  Each fingerprint is read once per cache, so replicas of
  one build share a single load.  Rows that fail to decode or validate
  are counted (``validation_failures``) and deleted.

Lookups read memory only, and a miss is solved.  A solve re-embeds in
the verifier's bit space in about 0.3 ms, less than decoding a stored
row and adopting it, so the store is read at warm start and never on
the event path.  Every row a lookup returns is a candidate: the session
checks it with ``is_pipeline`` before adopting it.

Lock discipline: the LRU, the writer and the store each own one
``threading.Lock`` guarding their own state (all mutations happen inside
``with self._lock`` — the RL1xx static pass checks this, no
suppressions).  No two are ever held at once: the cache releases its
lock before it calls the writer or the store, and the writer pops a
batch under its lock and writes it after releasing it, so no lock-order
edge exists between them.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Hashable, Iterable

from ..core.pipeline import is_pipeline
from ..obs.spans import annotate
from .cache import CacheStats
from .canonical import FaultKey, decode_fault_set, label_map
from .store import StoreStats, WitnessStore

Node = Hashable

CacheRow = tuple[str, FaultKey]

#: one queued write: (fingerprint, fault key, pipeline nodes)
PendingWrite = tuple[str, FaultKey, tuple[Node, ...]]

#: rows the writer queues before ``submit`` refuses (the caller then
#: writes synchronously)
WRITE_BEHIND_DEPTH = 256
#: rows committed per SQLite transaction
WRITE_BEHIND_BATCH = 64


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

    def __init__(self, store: WitnessStore) -> None:
        self.store = store
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
        queue holds :data:`WRITE_BEHIND_DEPTH` rows (caller should write
        synchronously)."""
        with self._lock:
            if self._closed or len(self._queue) >= WRITE_BEHIND_DEPTH:
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
                take = min(WRITE_BEHIND_BATCH, len(self._queue))
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


class TieredWitnessCache:
    """Thread-safe LRU map ``(fingerprint, fault key) -> pipeline nodes``,
    optionally backed by a persistent store.

    >>> cache = TieredWitnessCache(capacity=2)
    >>> cache.store("net", ("'p1'",), ("i0", "p0", "o0"))
    >>> cache.lookup_validated("net", ("'p1'",))
    ('i0', 'p0', 'o0')
    >>> cache.lookup_validated("net", ("'p2'",)) is None
    True
    >>> cache.stats().hits, cache.stats().misses
    (1, 1)
    """

    def __init__(
        self, capacity: int = 256, persistent: WitnessStore | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.persistent = persistent
        self._writer = (
            WriteBehindWriter(persistent) if persistent is not None else None
        )
        self._rows: OrderedDict[CacheRow, tuple[Node, ...]] = OrderedDict()
        self._warmed: set[str] = set()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._invalid = 0

    def lookup_validated(
        self, fingerprint: str, key: FaultKey
    ) -> tuple[Node, ...] | None:
        """The cached pipeline for a row, or ``None``.

        Reads memory only.  A hit refreshes the row's recency.  The nodes
        are a candidate the caller still validates (the session checks
        every adopted row), and one that fails is dropped with
        :meth:`invalidate`.
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
        annotate(result="miss" if nodes is None else "hit")
        return nodes

    def store(
        self, fingerprint: str, key: FaultKey, nodes: Iterable[Node]
    ) -> None:
        """Insert (or refresh) a row, evicting the least recently used,
        and queue it for the persistent store."""
        row: PendingWrite = (fingerprint, key, tuple(nodes))
        self._remember([row])
        if self._writer is not None and not self._writer.submit(row):
            # the queue is full or the writer is gone: write through
            # rather than drop the row
            if not self.persistent.closed:
                self.persistent.put(*row)

    def invalidate(self, fingerprint: str, key: FaultKey) -> None:
        """Record that a served row failed live validation and drop it
        from memory and the store, so a bad entry cannot keep being
        served and re-failing."""
        with self._lock:
            self._invalid += 1
            self._rows.pop((fingerprint, key), None)
        if self.persistent is not None and not self.persistent.closed:
            self.persistent.note_validation_failure(fingerprint, key)

    def warm_start(self, network, fingerprint: str) -> int:
        """Load the newest persisted rows for *fingerprint* that survive
        live ``is_pipeline`` validation into the memory LRU; returns the
        number loaded.

        A fingerprint is read at most once per cache: a later call for
        the same structure (another replica) loads nothing.  At most
        ``capacity`` rows are read, since older rows would be evicted as
        they load.  Invalid/undecodable rows are counted and deleted,
        never served."""
        if self.persistent is None:
            return 0
        with self._lock:
            if fingerprint in self._warmed:
                return 0
            self._warmed.add(fingerprint)
        labels = label_map(network)
        valid: list[PendingWrite] = []
        rows = self.persistent.iter_fingerprint(fingerprint, self.capacity)
        for row in reversed(rows):  # oldest first, so newest end up MRU
            faults = decode_fault_set(row.key, labels)
            if faults is None or not is_pipeline(network, row.nodes, faults):
                self.persistent.note_validation_failure(fingerprint, row.key)
                continue
            valid.append((fingerprint, row.key, row.nodes))
        self._remember(valid)
        if valid:
            self.persistent.note_warm_loaded(len(valid))
        return len(valid)

    def _remember(self, rows: list[PendingWrite]) -> None:
        with self._lock:
            for fingerprint, key, nodes in rows:
                self._rows[(fingerprint, key)] = nodes
                self._rows.move_to_end((fingerprint, key))
                self._stores += 1
            while len(self._rows) > self.capacity:
                self._rows.popitem(last=False)
                self._evictions += 1

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def flush(self, timeout: float = 30.0) -> None:
        """Block until every queued store write is committed."""
        if self._writer is not None:
            self._writer.flush(timeout)

    def close(self) -> None:
        """Flush the write-behind queue and close the store (idempotent)."""
        if self._writer is not None:
            self._writer.close()
        if self.persistent is not None:
            self.persistent.close()

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

    def store_stats(self) -> StoreStats | None:
        """The persistent store's accounting (``None`` without a store)."""
        if self.persistent is None:
            return None
        return self.persistent.stats(write_behind_depth=self._writer.depth())
