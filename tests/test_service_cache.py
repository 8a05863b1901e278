"""Witness cache and fault keys: LRU accounting, structural (replica)
sharing, plain label keys, and the one validation every cached row gets
before it is served."""

import pytest

import repro.core.pipeline
import repro.core.session
import repro.service.control
from repro.core.constructions import build
from repro.core.pipeline import is_pipeline
from repro.errors import ReconfigurationError
from repro.service.canonical import decode_fault_set, label_map
from repro.service import (
    Canonicalizer,
    ControlPlane,
    ControlPlaneConfig,
    TieredWitnessCache,
    demo_ring_network,
    network_fingerprint,
    plain_fault_key,
)


class TestWitnessCacheUnit:
    def test_lookup_miss_then_hit(self):
        cache = TieredWitnessCache(capacity=4)
        assert cache.lookup_validated("fp", ("'p1'",)) is None
        cache.store("fp", ("'p1'",), ("i0", "p0", "o0"))
        assert cache.lookup_validated("fp", ("'p1'",)) == ("i0", "p0", "o0")
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.stores == 1

    def test_rows_are_fingerprint_scoped(self):
        cache = TieredWitnessCache(capacity=4)
        cache.store("fp-a", ("'p1'",), ("a",))
        assert cache.lookup_validated("fp-b", ("'p1'",)) is None

    def test_lru_eviction(self):
        cache = TieredWitnessCache(capacity=2)
        cache.store("fp", ("'a'",), ("1",))
        cache.store("fp", ("'b'",), ("2",))
        # refresh 'a', so storing 'c' evicts 'b'
        assert cache.lookup_validated("fp", ("'a'",)) is not None
        cache.store("fp", ("'c'",), ("3",))
        assert cache.stats().evictions == 1
        assert cache.lookup_validated("fp", ("'b'",)) is None
        assert cache.lookup_validated("fp", ("'a'",)) is not None
        assert cache.lookup_validated("fp", ("'c'",)) is not None
        assert cache.stats().size == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            TieredWitnessCache(capacity=0)

    def test_hit_rate(self):
        cache = TieredWitnessCache()
        assert cache.stats().hit_rate == 0.0
        cache.store("fp", (), ("x",))
        cache.lookup_validated("fp", ())
        assert cache.stats().hit_rate == 1.0


def count_validations(monkeypatch) -> list:
    """Count ``is_pipeline`` calls made by the session and, where it still
    validates, the control plane; returns the list calls append to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return repro.core.pipeline.is_pipeline(*args, **kwargs)

    monkeypatch.setattr(repro.core.session, "is_pipeline", counting)
    monkeypatch.setattr(
        repro.service.control, "is_pipeline", counting, raising=False
    )
    return calls


class TestOneValidation:
    """Each cached row the plane serves is checked exactly once, by the
    session that adopts it."""

    def test_plane_hits_validate_once(self, monkeypatch):
        calls = count_validations(monkeypatch)
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            plane.register("solo", n=9, k=2)
            plane.submit_fault("solo", "p3").result(timeout=30)
            for submit in (plane.submit_repair, plane.submit_fault):
                del calls[:]
                record = submit("solo", "p3").result(timeout=30)
                assert record.cache_hit
                assert len(calls) == 1
            assert plane.snapshot().cache.invalid == 0

    def test_disk_hit_validates_once(self, monkeypatch, tmp_path):
        """Plane B warm-starts the row plane A solved and flushed to the
        shared store, then adopts it with one session check."""
        calls = count_validations(monkeypatch)
        config = ControlPlaneConfig(
            workers=1, store_path=str(tmp_path / "w.db")
        )
        with ControlPlane(config) as a, ControlPlane(config) as b:
            a.register("a", n=9, k=2)
            a.submit_fault("a", "p1").result(timeout=30)
            a.cache.flush()
            b.register("b", n=9, k=2)
            assert b.snapshot().store.warm_loaded == 2  # {} and {p1}
            del calls[:]
            record = b.submit_fault("b", "p1").result(timeout=30)
            assert record.cache_hit
            assert len(calls) == 1


class TestUntrustedRows:
    """A cached row the session rejects costs a solve, never the event."""

    def test_foreign_labels_are_solved_as_a_miss(self):
        """A row of labels that are not nodes of the network is rejected
        by the session (a too-short row is covered by
        ``test_poisoned_cache_row_dumps``)."""
        net = demo_ring_network(8)
        with ControlPlane(ControlPlaneConfig(workers=1)) as plane:
            plane.register("ring", net)
            m = plane.managed("ring")
            key = m.canon.canonical({"c1"})
            plane.cache.store(
                m.fingerprint, key, ("bogus-a", "bogus-b", "bogus-c")
            )
            record = plane.submit_fault("ring", "c1").result(timeout=30)
            assert not record.cache_hit and record.solver == "full"
            assert is_pipeline(net, m.session.pipeline.nodes, {"c1"})
            snap = plane.snapshot()
            assert snap.totals["errors"] == 0
            assert snap.totals["cache_misses"] == 1
            assert snap.cache.invalid == 1
            # the fresh pipeline replaced the bad row under the same key
            fresh = plane.cache.lookup_validated(m.fingerprint, key)
            assert is_pipeline(net, fresh, {"c1"})

    def test_rejected_row_is_dropped_when_the_solve_fails(self):
        """{p0, p1, p3} is beyond what G(6,2) tolerates: the row is
        rejected, the fallback solve raises, and the row still goes."""
        with ControlPlane(ControlPlaneConfig(workers=1)) as plane:
            plane.register("frail", n=6, k=2)
            m = plane.managed("frail")
            plane.submit_fault("frail", "p0").result(timeout=30)
            plane.submit_fault("frail", "p1").result(timeout=30)
            key = m.canon.canonical({"p0", "p1", "p3"})
            plane.cache.store(m.fingerprint, key, ("i0", "p3", "o0"))
            with pytest.raises(ReconfigurationError):
                plane.submit_fault("frail", "p3").result(timeout=30)
            assert plane.snapshot().cache.invalid == 1
            assert plane.cache.lookup_validated(m.fingerprint, key) is None


class TestFingerprint:
    def test_deterministic_replicas_share(self):
        assert network_fingerprint(build(9, 2)) == network_fingerprint(build(9, 2))

    def test_different_builds_differ(self):
        assert network_fingerprint(build(9, 2)) != network_fingerprint(build(6, 2))


class TestCanonicalizer:
    def test_plain_key_sorted(self):
        assert plain_fault_key(["p3", "p1"]) == ("'p1'", "'p3'")

    def test_symmetry_off_is_identity(self):
        """Each fault set keys by its own labels, so the eight single
        faults of a vertex-transitive ring keep eight rows."""
        canon = Canonicalizer()
        assert canon.canonical({"c5"}) == ("'c5'",)
        keys = {canon.canonical({f"c{j}"}) for j in range(8)}
        assert len(keys) == 8

    def test_map_back_round_trips(self):
        """A key maps back to exactly its fault set on the live network,
        which is how warm start reads a persisted row's key."""
        ring = demo_ring_network(8)
        faults = frozenset({"c5", "c1"})
        key = Canonicalizer().canonical(faults)
        assert decode_fault_set(key, label_map(ring)) == faults


class TestCacheIntegration:
    def test_repeated_fault_set_skips_solver(self):
        """fault -> repair -> same fault again must serve from the cache."""
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            plane.register("solo", n=9, k=2)
            first = plane.submit_fault("solo", "p3").result(timeout=30)
            assert first.solver in ("full", "fast") and not first.cache_hit
            repair = plane.submit_repair("solo", "p3").result(timeout=30)
            # the fault-free pipeline was seeded at registration
            assert repair.cache_hit and repair.solver == "cache"
            again = plane.submit_fault("solo", "p3").result(timeout=30)
            assert again.cache_hit and again.solver == "cache"
            m = plane.managed("solo")
            assert is_pipeline(m.network, m.session.pipeline.nodes, {"p3"})

    def test_replicas_share_witnesses(self):
        """A fault solved on one replica is a cache hit on its sibling."""
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            plane.register("rep-a", n=9, k=2)
            plane.register("rep-b", n=9, k=2)
            solved = plane.submit_fault("rep-a", "p2").result(timeout=30)
            assert not solved.cache_hit
            mirrored = plane.submit_fault("rep-b", "p2").result(timeout=30)
            assert mirrored.cache_hit and mirrored.solver == "cache"
            m = plane.managed("rep-b")
            assert is_pipeline(m.network, m.session.pipeline.nodes, {"p2"})

    def test_lru_eviction_through_the_plane(self):
        """With a one-row cache every new fault set evicts the last."""
        with ControlPlane(
            ControlPlaneConfig(workers=1, cache_capacity=1)
        ) as plane:
            plane.register("tiny", n=6, k=2)
            plane.submit_fault("tiny", "p1").result(timeout=30)
            plane.submit_repair("tiny", "p1").result(timeout=30)
            assert plane.cache.stats().evictions > 0
            # {p1} was evicted by later stores: faulting it again must miss
            refault = plane.submit_fault("tiny", "p1").result(timeout=30)
            assert not refault.cache_hit
