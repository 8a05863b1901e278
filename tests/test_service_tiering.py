"""Tiered witness cache: write-behind, cache-aside, warm start, and the
background writer's lifecycle."""

import pytest

from repro.core.constructions import build
from repro.service.canonical import Canonicalizer, network_fingerprint
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

    def test_bad_parameters(self, tmp_path):
        from repro.errors import ReproError

        with db(tmp_path) as store:
            with pytest.raises(ReproError):
                WriteBehindWriter(store, max_depth=0)
            with pytest.raises(ReproError):
                WriteBehindWriter(store, batch=0)


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
        cache = TieredWitnessCache(8, db(tmp_path), write_behind=False)
        try:
            cache.store("fp", KEY1, NODES)
            assert cache.persistent.get("fp", KEY1).nodes == NODES
        finally:
            cache.close()

    def test_cache_aside_read_seeds_memory(self, tmp_path):
        """A disk row is served on a memory miss and seeded into memory,
        so the next read never touches the store."""
        store = db(tmp_path)
        store.put("fp", KEY1, NODES)
        cache = TieredWitnessCache(8, store)
        try:
            assert cache.lookup_validated("fp", KEY1) == NODES
            assert cache.lookup_validated("fp", KEY1) == NODES
            assert cache.stats().size == 1
            assert store.stats().persist_hits == 1
        finally:
            cache.close()

    def test_lookup_miss_both_tiers(self, tmp_path):
        cache = TieredWitnessCache(8, db(tmp_path))
        try:
            assert cache.lookup_validated("fp", KEY1) is None
            assert cache.stats().misses == 1
            assert cache.persistent.stats().persist_misses == 1
        finally:
            cache.close()

    def test_no_persistent_tier_degrades_to_memory(self):
        cache = TieredWitnessCache(8, None)
        cache.store("fp", KEY1, NODES)
        assert cache.lookup_validated("fp", KEY1) == NODES
        cache.flush()
        cache.close()  # all no-ops, no error

    def test_invalidate_removes_from_both_tiers(self, tmp_path):
        cache = TieredWitnessCache(8, db(tmp_path), write_behind=False)
        try:
            cache.store("fp", KEY1, NODES)
            cache.invalidate("fp", KEY1)
            assert WitnessCache_lookup_is_empty(cache)
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


def WitnessCache_lookup_is_empty(cache):
    from repro.service.cache import WitnessCache

    return WitnessCache.lookup_validated(cache, "fp", KEY1) is None


class TestWarmStart:
    def warm_rows(self, network):
        """Persist the canonical witnesses for two single faults of a
        live network, exactly as a previous process would have."""
        canon = Canonicalizer(network)
        fingerprint = network_fingerprint(network)
        rows = []
        for fault in ("p1", "p2"):
            key, sigma = canon.canonical(frozenset({fault}))
            from repro.core.reconfigure import reconfigure

            pipeline = reconfigure(network, {fault})
            rows.append((key, Canonicalizer.map_forward(pipeline.nodes, sigma)))
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
            stats = cache.persistent.stats()
            assert stats.warm_loaded == 2
            assert stats.persist_hits == 0  # served from memory
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

    def test_warm_start_respects_limit(self, tmp_path):
        network = build(6, 2)
        fingerprint, rows = self.warm_rows(network)
        store = db(tmp_path)
        for key, nodes in rows:
            store.put(fingerprint, key, nodes)
        cache = TieredWitnessCache(8, store)
        try:
            assert cache.warm_start(network, fingerprint, limit=1) == 1
        finally:
            cache.close()

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
            memory = super(TieredWitnessCache, cache)
            assert memory.lookup_validated(fingerprint, new_key) == new_nodes
            assert memory.lookup_validated(fingerprint, old_key) is None
        finally:
            cache.close()

    def test_warm_start_without_store_is_zero(self):
        network = build(6, 2)
        cache = TieredWitnessCache(8, None)
        assert cache.warm_start(network, "fp") == 0
