"""The persistent witness tier: a SQLite-backed store of solved pipelines.

The in-memory LRU of :class:`~repro.service.tiering.TieredWitnessCache`
dies with the process, so every control-plane start would be cold and
re-solve fault sets an earlier run already paid for.  :class:`WitnessStore`
is the durable tier underneath it: one SQLite database (WAL mode, so
another plane opening the same file can read while this one writes)
keyed by ``(structural fingerprint, fault key)`` — the same row identity
the memory tier uses, so a witness solved once for a structural
fingerprint is available fleet-wide, forever.  The cache writes rows
behind its solves and reads them back only at warm start.

Rows are serialized with the deterministic, round-trip-verified text
forms from :mod:`repro.service.canonical` (``encode_fault_key`` /
``encode_nodes``).  **Persisted bytes are never trusted**: this module
only decodes and hands rows up; every row is checked against
:func:`~repro.core.pipeline.is_pipeline` before anything is served (at
warm start by :mod:`repro.service.tiering`, and again by the session
that adopts it), and a row that fails is counted and deleted through
:meth:`WitnessStore.note_validation_failure`.  A row that fails
to *decode* (torn write, truncated text, wrong type, an unhashable
label) is treated identically: counted, deleted, reported as absent.

Files written before the schema dropped its ``checksum`` column keep
that nullable column; every statement names its columns, so such a file
opens, serves and takes writes, and the column is never read.

Thread safety: one connection guarded by one lock (the connection is
created with ``check_same_thread=False`` because the write-behind writer
thread commits batches while warm start reads on the registering
thread).
Durability: WAL with ``synchronous=NORMAL`` — a crash can lose the last
write-behind batch (witnesses are re-derivable), but SQLite guarantees
the database itself is never torn mid-transaction.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from ..errors import ReproError
from .canonical import (
    FaultKey,
    decode_fault_key,
    decode_nodes,
    encode_fault_key,
    encode_nodes,
)

Node = Hashable

_SCHEMA = """
CREATE TABLE IF NOT EXISTS witness (
    fingerprint TEXT    NOT NULL,
    fault_key   TEXT    NOT NULL,
    nodes       TEXT    NOT NULL,
    PRIMARY KEY (fingerprint, fault_key)
);
CREATE INDEX IF NOT EXISTS witness_by_fingerprint
    ON witness (fingerprint);
"""


@dataclass(frozen=True)
class StoreRow:
    """One decoded persistent-tier row."""

    fingerprint: str
    key: FaultKey
    nodes: tuple[Node, ...]


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time accounting for the persistent tier."""

    path: str
    rows: int
    warm_loaded: int
    writes: int
    write_errors: int
    validation_failures: int
    encode_skips: int
    #: write-behind queue depth at snapshot time (0 when no writer or idle).
    write_behind_depth: int = 0
    #: rows whose persisted text failed to *decode* (torn/truncated write).
    #: A subset of ``validation_failures``, split out because a torn row
    #: means the durability story failed, not just a stale witness.
    torn_rows: int = 0


class WitnessStore:
    """Durable ``(fingerprint, fault key) -> pipeline`` rows.

    >>> store = WitnessStore(":memory:")
    >>> store.put("net", ("'p1'",), ("i0", "p0", "o0"))
    True
    >>> store.get("net", ("'p1'",)).nodes
    ('i0', 'p0', 'o0')
    >>> store.row_count()
    1
    >>> store.close()
    """

    def __init__(self, path: str, *, timeout: float = 30.0) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path, timeout=timeout, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._closed = False
        self._warm_loaded = 0
        self._writes = 0
        self._write_errors = 0
        self._validation_failures = 0
        self._torn_rows = 0
        self._encode_skips = 0
        self._on_torn_row = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, fingerprint: str, key: FaultKey) -> StoreRow | None:
        """The stored row, or ``None`` on a miss.

        A row whose persisted text fails to decode (torn write) is
        deleted, counted as a validation failure, and reported absent —
        corrupt bytes are never handed to a caller.
        """
        encoded = encode_fault_key(key)
        torn = False
        try:
            with self._lock:
                self._ensure_open()
                cur = self._conn.execute(
                    "SELECT nodes FROM witness"
                    " WHERE fingerprint = ? AND fault_key = ?",
                    (fingerprint, encoded),
                )
                found = cur.fetchone()
                if found is None:
                    return None
                try:
                    nodes = decode_nodes(found[0])
                except ReproError:
                    torn = True
                    self._validation_failures += 1
                    self._torn_rows += 1
                    self._delete_locked(fingerprint, encoded)
                    return None
                return StoreRow(fingerprint, key, nodes)
        finally:
            if torn:
                self._report_torn(fingerprint, encoded)

    def iter_fingerprint(
        self, fingerprint: str, limit: int | None = None
    ) -> list[StoreRow]:
        """All decodable rows for *fingerprint*, most recently written
        first (for warm-starting a fresh in-memory cache).  Undecodable
        rows are counted as validation failures and deleted in place."""
        torn_keys: list[str] = []
        with self._lock:
            self._ensure_open()
            sql = (
                "SELECT fault_key, nodes FROM witness"
                " WHERE fingerprint = ? ORDER BY rowid DESC"
            )
            params: tuple = (fingerprint,)
            if limit is not None:
                sql += " LIMIT ?"
                params = (fingerprint, limit)
            raw = self._conn.execute(sql, params).fetchall()
            rows: list[StoreRow] = []
            for key_text, nodes_text in raw:
                try:
                    key = decode_fault_key(key_text)
                    nodes = decode_nodes(nodes_text)
                except ReproError:
                    self._validation_failures += 1
                    self._torn_rows += 1
                    torn_keys.append(key_text)
                    self._delete_locked(fingerprint, key_text)
                    continue
                rows.append(StoreRow(fingerprint, key, nodes))
        for key_text in torn_keys:
            self._report_torn(fingerprint, key_text)
        return rows

    def row_count(self) -> int:
        with self._lock:
            self._ensure_open()
            return self._conn.execute(
                "SELECT COUNT(*) FROM witness"
            ).fetchone()[0]

    def __contains__(self, row: tuple[str, FaultKey]) -> bool:
        fingerprint, key = row
        with self._lock:
            self._ensure_open()
            cur = self._conn.execute(
                "SELECT 1 FROM witness WHERE fingerprint = ? AND fault_key = ?",
                (fingerprint, encode_fault_key(key)),
            )
            return cur.fetchone() is not None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(
        self, fingerprint: str, key: FaultKey, nodes: Sequence[Node]
    ) -> bool:
        """Insert or refresh one row; returns ``False`` (and counts an
        ``encode_skip``) when the node labels are not serializable."""
        return self.put_many([(fingerprint, key, tuple(nodes))]) == 1

    def put_many(
        self, rows: Iterable[tuple[str, FaultKey, tuple[Node, ...]]]
    ) -> int:
        """Write a batch of rows in one transaction; returns the number
        actually persisted (unserializable rows are skipped and counted)."""
        encoded: list[tuple[str, str, str]] = []
        skipped = 0
        for fingerprint, key, nodes in rows:
            try:
                encoded.append(
                    (fingerprint, encode_fault_key(key), encode_nodes(nodes))
                )
            except ReproError:
                skipped += 1
        with self._lock:
            self._ensure_open()
            self._encode_skips += skipped
            if not encoded:
                return 0
            try:
                self._conn.executemany(
                    "INSERT OR REPLACE INTO witness"
                    " (fingerprint, fault_key, nodes) VALUES (?, ?, ?)",
                    encoded,
                )
                self._conn.commit()
            except sqlite3.Error:
                self._write_errors += 1
                return 0
            self._writes += len(encoded)
            return len(encoded)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def note_validation_failure(self, fingerprint: str, key: FaultKey) -> None:
        """Record that a persisted row failed live ``is_pipeline``
        validation, and delete it — a row that failed once can never
        become valid again for the same fingerprint."""
        with self._lock:
            self._ensure_open()
            self._validation_failures += 1
            self._delete_locked(fingerprint, encode_fault_key(key))

    def note_warm_loaded(self, count: int) -> None:
        """Record *count* rows validated and loaded into a memory tier."""
        with self._lock:
            self._warm_loaded += count

    def set_torn_row_callback(self, callback) -> None:
        """Register ``callback(fingerprint, encoded_key)`` to run whenever
        a persisted row fails to decode — the flight-recorder hook.  The
        callback fires strictly outside the store lock."""
        with self._lock:
            self._on_torn_row = callback

    def _report_torn(self, fingerprint: str, encoded_key: str) -> None:
        # called outside self._lock: the callback may snapshot other locks
        callback = self._on_torn_row
        if callback is not None:
            callback(fingerprint, encoded_key)

    def _delete_locked(self, fingerprint: str, encoded_key: str) -> None:
        self._conn.execute(
            "DELETE FROM witness WHERE fingerprint = ? AND fault_key = ?",
            (fingerprint, encoded_key),
        )
        self._conn.commit()

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ReproError("witness store is closed")

    def close(self) -> None:
        """Close the connection (idempotent; a closed store rejects I/O)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.commit()
            self._conn.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "WitnessStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def stats(self, *, write_behind_depth: int = 0) -> StoreStats:
        with self._lock:
            rows = 0
            if not self._closed:
                rows = self._conn.execute(
                    "SELECT COUNT(*) FROM witness"
                ).fetchone()[0]
            return StoreStats(
                path=self.path,
                rows=rows,
                warm_loaded=self._warm_loaded,
                writes=self._writes,
                write_errors=self._write_errors,
                validation_failures=self._validation_failures,
                encode_skips=self._encode_skips,
                write_behind_depth=write_behind_depth,
                torn_rows=self._torn_rows,
            )
