"""Tiered witness cache: write-behind, memory-only lookups, warm start,
and the background writer's lifecycle."""

import sys
import threading

from repro.core.constructions import build
from repro.core.reconfigure import reconfigure
from repro.service.canonical import network_fingerprint, plain_fault_key
from repro.service.store import WitnessStore
from repro.service.tiering import TieredWitnessCache, WriteBehindWriter

KEY1 = ("'p1'",)
NODES = ("i0", "p0", "o0")


def db(tmp_path):
    return WitnessStore(str(tmp_path / "witness.db"))


class TestWriteBehindWriter:
    def test_submit_flush_drains_to_store(self, tmp_path):
        store = db(tmp_path)
        writer = WriteBehindWriter(store)
        try:
            for i in range(10):
                assert writer.submit(("fp", (f"'p{i}'",), NODES))
            writer.flush()
            assert writer.depth() == 0
            assert store.row_count() == 10
        finally:
            writer.close()
            store.close()

    def test_close_drains_then_is_idempotent(self, tmp_path):
        store = db(tmp_path)
        writer = WriteBehindWriter(store)
        writer.submit(("fp", KEY1, NODES))
        writer.close()
        writer.close()
        assert store.row_count() == 1
        assert not writer.submit(("fp", ("'p9'",), NODES))
        store.close()


class TestTieredCache:
    def test_store_lands_on_disk_via_writer(self, tmp_path):
        cache = TieredWitnessCache(8, db(tmp_path))
        try:
            cache.store("fp", KEY1, NODES)
            cache.flush()
            assert cache.persistent.get("fp", KEY1).nodes == NODES
        finally:
            cache.close()

    def test_without_writer_writes_synchronously(self, tmp_path):
        """Once the writer refuses rows (closed, or its queue full), a
        store writes through instead of dropping the row."""
        cache = TieredWitnessCache(8, db(tmp_path))
        try:
            cache._writer.close()
            cache.store("fp", KEY1, NODES)
            assert cache.persistent.get("fp", KEY1).nodes == NODES
        finally:
            cache.close()

    def test_lookup_reads_memory_only(self, tmp_path):
        """A row that is only on disk is a miss: the store is read at
        warm start, never by a lookup."""
        store = db(tmp_path)
        store.put("fp", KEY1, NODES)
        cache = TieredWitnessCache(8, store)
        try:
            assert cache.lookup_validated("fp", KEY1) is None
            assert cache.stats().misses == 1
            assert cache.stats().size == 0
        finally:
            cache.close()

    def test_no_persistent_tier_degrades_to_memory(self):
        cache = TieredWitnessCache(8, None)
        cache.store("fp", KEY1, NODES)
        assert cache.lookup_validated("fp", KEY1) == NODES
        cache.flush()
        cache.close()  # all no-ops, no error

    def test_invalidate_removes_from_both_tiers(self, tmp_path):
        cache = TieredWitnessCache(8, db(tmp_path))
        try:
            cache.store("fp", KEY1, NODES)
            cache.flush()
            cache.invalidate("fp", KEY1)
            assert cache.lookup_validated("fp", KEY1) is None
            assert cache.persistent.get("fp", KEY1) is None
            assert cache.persistent.stats().validation_failures == 1
        finally:
            cache.close()

    def test_close_is_idempotent(self, tmp_path):
        cache = TieredWitnessCache(8, db(tmp_path))
        cache.store("fp", KEY1, NODES)
        cache.close()
        cache.close()
        assert cache.persistent.closed


class TestWarmStart:
    def warm_rows(self, network):
        """The witnesses for two single faults of a live network, keyed
        exactly as a previous process would have persisted them."""
        fingerprint = network_fingerprint(network)
        rows = []
        for fault in ("p1", "p2"):
            pipeline = reconfigure(network, {fault})
            rows.append((plain_fault_key({fault}), pipeline.nodes))
        return fingerprint, rows

    def test_valid_rows_load(self, tmp_path):
        network = build(6, 2)
        fingerprint, rows = self.warm_rows(network)
        store = db(tmp_path)
        for key, nodes in rows:
            store.put(fingerprint, key, nodes)
        cache = TieredWitnessCache(8, store)
        try:
            assert cache.warm_start(network, fingerprint) == 2
            for key, nodes in rows:
                assert cache.lookup_validated(fingerprint, key) == nodes
            assert cache.persistent.stats().warm_loaded == 2
        finally:
            cache.close()

    def test_invalid_rows_counted_and_dropped(self, tmp_path):
        network = build(6, 2)
        fingerprint, rows = self.warm_rows(network)
        store = db(tmp_path)
        key, nodes = rows[0]
        store.put(fingerprint, key, nodes)
        # a row claiming labels the live network does not have
        store.put(fingerprint, ("'zz9'",), nodes)
        # a row whose nodes are not a pipeline for its fault set
        key2, nodes2 = rows[1]
        store.put(fingerprint, key2, nodes2[:3])
        cache = TieredWitnessCache(8, store)
        try:
            assert cache.warm_start(network, fingerprint) == 1
            stats = cache.persistent.stats()
            assert stats.warm_loaded == 1
            assert stats.validation_failures == 2
            # the failed rows were deleted, never to be retried
            assert cache.persistent.row_count() == 1
        finally:
            cache.close()

    def test_warm_start_reads_a_fingerprint_once(self, tmp_path):
        """A second warm start of the same structure (another replica)
        loads nothing, so ``warm_loaded`` counts distinct rows."""
        network = build(6, 2)
        fingerprint, rows = self.warm_rows(network)
        store = db(tmp_path)
        for key, nodes in rows:
            store.put(fingerprint, key, nodes)
        cache = TieredWitnessCache(8, store)
        try:
            assert cache.warm_start(network, fingerprint) == 2
            assert cache.warm_start(network, fingerprint) == 0
            assert cache.persistent.stats().warm_loaded == 2
        finally:
            cache.close()

    def test_concurrent_warm_starts_load_once(self, tmp_path):
        """Replicas registering on many threads at once still read their
        fingerprint once: exactly one call loads the rows."""
        network = build(6, 2)
        fingerprint, rows = self.warm_rows(network)
        store = db(tmp_path)
        for key, nodes in rows:
            store.put(fingerprint, key, nodes)
        cache = TieredWitnessCache(8, store)
        loaded = []
        barrier = threading.Barrier(8)

        def register():
            barrier.wait(timeout=30)
            loaded.append(cache.warm_start(network, fingerprint))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=register) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            cache.close()
        assert sorted(loaded) == [0] * 7 + [2]
        assert store.stats().warm_loaded == 2

    def test_warm_start_reads_at_most_capacity(self, tmp_path):
        """Rows beyond the memory tier's capacity would be evicted as they
        load, so they are not read, let alone validated."""
        network = build(6, 2)
        fingerprint, rows = self.warm_rows(network)
        store = db(tmp_path)
        for key, nodes in rows:
            store.put(fingerprint, key, nodes)
        store.put(fingerprint, ("'zz9'",), rows[0][1])  # newest, invalid
        cache = TieredWitnessCache(2, store)
        try:
            # the two newest rows are read: the invalid one is counted and
            # deleted, the other loaded; the oldest stays on disk, unread
            assert cache.warm_start(network, fingerprint) == 1
            stats = cache.persistent.stats()
            assert stats.validation_failures == 1
            assert stats.rows == 2
            (old_key, _), (new_key, new_nodes) = rows
            assert cache.lookup_validated(fingerprint, new_key) == new_nodes
            assert cache.lookup_validated(fingerprint, old_key) is None
        finally:
            cache.close()

    def test_warm_start_without_store_is_zero(self):
        network = build(6, 2)
        cache = TieredWitnessCache(8, None)
        assert cache.warm_start(network, "fp") == 0
