"""Persistent witness store: round trips, torn-row recovery, invalidation
and lifecycle."""

import sqlite3

import pytest

from repro.errors import ReproError
from repro.service.store import StoreStats, WitnessStore

KEY1 = ("'p1'",)
KEY2 = ("'p1'", "'p2'")
NODES = ("i0", "p0", "p3", "o0")


def make_store(tmp_path):
    return WitnessStore(str(tmp_path / "witness.db"))


class TestRoundTrip:
    def test_put_get_contains(self, tmp_path):
        with make_store(tmp_path) as store:
            assert store.put("fp", KEY1, NODES)
            row = store.get("fp", KEY1)
            assert row.nodes == NODES
            assert row.key == KEY1
            assert ("fp", KEY1) in store
            assert ("fp", KEY2) not in store
            assert store.get("fp", KEY2) is None
            assert store.row_count() == 1

    def test_replace_refreshes_row(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            store.put("fp", KEY1, ("i0", "p1", "o0"))
            assert store.row_count() == 1
            row = store.get("fp", KEY1)
            assert row.nodes == ("i0", "p1", "o0")

    def test_rows_survive_reopen(self, tmp_path):
        path = str(tmp_path / "w.db")
        with WitnessStore(path) as store:
            store.put("fp", KEY1, NODES)
        with WitnessStore(path) as store:
            assert store.get("fp", KEY1).nodes == NODES

    def test_tuple_node_labels_round_trip(self, tmp_path):
        nodes = (("i", 0), ("p", 0), ("o", 0))
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, nodes)
            assert store.get("fp", KEY1).nodes == nodes

    def test_unserializable_nodes_counted_not_raised(self, tmp_path):
        class Opaque:
            pass

        with make_store(tmp_path) as store:
            assert not store.put("fp", KEY1, (Opaque(),))
            assert store.row_count() == 0
            assert store.stats().encode_skips == 1

    def test_iter_fingerprint_newest_first(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            store.put("fp", KEY2, ("i0", "p3", "o0"))
            store.put("other", KEY1, NODES)
            rows = store.iter_fingerprint("fp")
            assert [r.key for r in rows] == [KEY2, KEY1]
            assert store.iter_fingerprint("fp", limit=1)[0].key == KEY2
            assert store.iter_fingerprint("ghost") == []


class TestTornRows:
    """Never trust persisted bytes: corrupt rows are deleted, counted,
    and reported absent — exactly what a crash mid write leaves behind."""

    def corrupt(self, store, column="nodes"):
        conn = sqlite3.connect(store.path)
        conn.execute(f"UPDATE witness SET {column} = substr({column}, 1, 4)")
        conn.commit()
        conn.close()

    def test_torn_nodes_on_get(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            self.corrupt(store)
            assert store.get("fp", KEY1) is None
            assert store.row_count() == 0  # deleted, not left to rot
            assert store.stats().validation_failures == 1

    def test_torn_nodes_on_iter(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            store.put("fp", KEY2, ("i0", "p3", "o0"))
            conn = sqlite3.connect(store.path)
            conn.execute(
                "UPDATE witness SET nodes = substr(nodes, 1, 4)"
                " WHERE fault_key = ?",
                ('["\'p1\'"]',),
            )
            conn.commit()
            conn.close()
            rows = store.iter_fingerprint("fp")
            assert [r.key for r in rows] == [KEY2]
            assert store.row_count() == 1
            assert store.stats().validation_failures == 1

    def test_unhashable_label_is_torn(self, tmp_path):
        """A row that parses to a tuple holding a list cannot name nodes:
        it is torn, not handed up to fail deeper in the plane."""
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            conn = sqlite3.connect(store.path)
            conn.execute("UPDATE witness SET nodes = ?", ("(['i0'], 'o0')",))
            conn.commit()
            conn.close()
            assert store.get("fp", KEY1) is None
            assert store.stats().torn_rows == 1

    def test_torn_fault_key_on_iter(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            self.corrupt(store, column="fault_key")
            assert store.iter_fingerprint("fp") == []
            assert store.stats().validation_failures == 1


class TestOldSchema:
    def test_file_with_checksum_column_opens_serves_and_writes(self, tmp_path):
        """A store file whose table still has the nullable ``checksum``
        column opens, serves its row and accepts a write."""
        path = str(tmp_path / "old.db")
        conn = sqlite3.connect(path)
        conn.executescript(
            """
            CREATE TABLE witness (
                fingerprint TEXT    NOT NULL,
                fault_key   TEXT    NOT NULL,
                nodes       TEXT    NOT NULL,
                checksum    INTEGER,
                PRIMARY KEY (fingerprint, fault_key)
            );
            """
        )
        conn.execute(
            "INSERT INTO witness VALUES (?, ?, ?, ?)",
            ("fp", '["\'p1\'"]', repr(NODES), 1234),
        )
        conn.commit()
        conn.close()
        with WitnessStore(path) as store:
            assert store.get("fp", KEY1).nodes == NODES
            assert store.put("fp", KEY2, ("i0", "p3", "o0"))
            rows = store.iter_fingerprint("fp")
            assert [r.key for r in rows] == [KEY2, KEY1]
            assert store.stats().write_errors == 0


class TestInvalidationAndCompaction:
    def test_note_validation_failure_deletes(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            store.note_validation_failure("fp", KEY1)
            assert store.get("fp", KEY1) is None
            assert store.stats().validation_failures == 1


class TestLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        store = make_store(tmp_path)
        store.close()
        store.close()
        assert store.closed

    def test_closed_store_rejects_io(self, tmp_path):
        store = make_store(tmp_path)
        store.put("fp", KEY1, NODES)
        store.close()
        for call in (
            lambda: store.get("fp", KEY1),
            lambda: store.put("fp", KEY2, NODES),
            lambda: store.iter_fingerprint("fp"),
            lambda: store.row_count(),
            lambda: store.note_validation_failure("fp", KEY1),
        ):
            with pytest.raises(ReproError):
                call()

    def test_stats_shape(self, tmp_path):
        with make_store(tmp_path) as store:
            store.put("fp", KEY1, NODES)
            stats = store.stats(write_behind_depth=3)
            assert isinstance(stats, StoreStats)
            assert stats.rows == 1
            assert stats.writes == 1
            assert stats.write_behind_depth == 3
        # after close: stats still readable, row count reported as 0
        assert store.stats().rows == 0
