"""Control plane over the persistent witness tier: warm restarts, crash
recovery, lifecycle, and graceful-degradation metadata."""

import itertools
import sqlite3

import pytest

from repro.core.pipeline import is_pipeline
from repro.core.reconfigure import reconfigure
from repro.errors import ReproError
from repro.graphs.automorphisms import iter_automorphisms
from repro.service import (
    ControlPlane,
    ControlPlaneConfig,
    WitnessStore,
    demo_ring_network,
    network_fingerprint,
    plain_fault_key,
)


def store_config(tmp_path, **kw):
    return ControlPlaneConfig(store_path=str(tmp_path / "witness.db"), **kw)


class TestWarmRestart:
    def test_restart_answers_without_a_solver_call(self, tmp_path):
        """The acceptance scenario: a fresh control plane pointed at an
        existing store serves a previously-solved fault set straight from
        the warm-started cache."""
        config = store_config(tmp_path)
        with ControlPlane(config) as plane:
            plane.register("a", n=6, k=2)
            first = plane.submit_fault("a", "p1").result(timeout=30)
            assert first.solver == "full"
            plane.submit_repair("a", "p1").result(timeout=30)
            plane.submit_fault("a", "p2").result(timeout=30)
            plane.wait()
        # ---- process restart ----
        with ControlPlane(config) as plane:
            plane.register("a", n=6, k=2)
            snap = plane.snapshot()
            assert snap.store is not None
            assert snap.store.warm_loaded >= 2  # {}, {p1}, {p2} persisted
            assert snap.store.validation_failures == 0
            rec = plane.submit_fault("a", "p1").result(timeout=30)
            assert rec.solver == "cache"  # no solver call after restart
            assert rec.cache_hit
            m = plane.managed("a")
            assert is_pipeline(m.network, m.session.pipeline.nodes, {"p1"})

    def test_replica_shares_rows_through_the_store(self, tmp_path):
        """Same structural fingerprint, different process: replica B is
        warm for the faults replica A solved."""
        config = store_config(tmp_path)
        with ControlPlane(config) as plane:
            plane.register("a", n=6, k=2)
            plane.submit_fault("a", "p1").result(timeout=30)
            plane.wait()
        with ControlPlane(config) as plane:
            plane.register("b", n=6, k=2)  # different name, same build
            rec = plane.submit_fault("b", "p1").result(timeout=30)
            assert rec.solver == "cache"

    def test_replicas_read_the_store_once(self, tmp_path, monkeypatch):
        """Three replicas of one build on a filled store share a single
        warm-start read of their fingerprint."""
        config = store_config(tmp_path)
        with ControlPlane(config) as plane:
            plane.register("a", n=9, k=2)
            plane.submit_fault("a", "p1").result(timeout=30)
        reads = []
        iter_fingerprint = WitnessStore.iter_fingerprint

        def counting(self, fingerprint, limit=None):
            reads.append(fingerprint)
            return iter_fingerprint(self, fingerprint, limit)

        monkeypatch.setattr(WitnessStore, "iter_fingerprint", counting)
        with ControlPlane(config) as plane:
            for name in ("r1", "r2", "r3"):
                plane.register(name, n=9, k=2)
            assert len(reads) == 1
            assert plane.snapshot().store.warm_loaded == 2  # {} and {p1}
            for name in ("r1", "r2", "r3"):
                rec = plane.submit_fault(name, "p1").result(timeout=30)
                assert rec.solver == "cache"

    def test_events_never_read_the_store(self, tmp_path, monkeypatch):
        """After warm start, a memory miss is solved: no event reads the
        store, even for a fault set that is only on disk."""
        config = store_config(tmp_path, cache_capacity=2)
        with ControlPlane(config) as plane:
            plane.register("a", n=6, k=2)
            for node in ("p1", "p2", "p3"):
                plane.submit_fault("a", node).result(timeout=30)
                plane.submit_repair("a", node).result(timeout=30)
        gets = []
        monkeypatch.setattr(
            WitnessStore, "get", lambda self, *row: gets.append(row)
        )
        with ControlPlane(config) as plane:
            plane.register("a", n=6, k=2)
            for node in ("p1", "p2", "p3", "p0"):
                plane.submit_fault("a", node).result(timeout=30)
                plane.submit_repair("a", node).result(timeout=30)
            m = plane.managed("a")
            assert is_pipeline(m.network, m.session.pipeline.nodes, set())
            assert plane.snapshot().totals["cache_misses"] > 0
        assert gets == []

    def test_memory_only_plane_unchanged(self):
        with ControlPlane() as plane:
            plane.register("a", n=6, k=2)
            assert plane.snapshot().store is None


def automorphism_keyed_rows(network, fault_sets):
    """Rows keyed the way automorphism-minimizing canonicalization wrote
    them: the sorted labels of the image sigma(F) that minimize the key,
    paired with a pipeline for F mapped through sigma."""
    autos = list(iter_automorphisms(network))
    rows = []
    for faults in fault_sets:
        key, sigma = plain_fault_key(faults), None
        for auto in autos:
            image = tuple(sorted(repr(auto[v]) for v in faults))
            if image < key:
                key, sigma = image, auto
        nodes = reconfigure(network, faults).nodes
        if sigma is not None:
            nodes = tuple(sigma[v] for v in nodes)
        rows.append((key, nodes))
    return rows


class TestSymmetryKeyedStore:
    def test_rows_keyed_by_automorphism_images_still_serve(self, tmp_path):
        """Such a row pairs the key of sigma(F) with a pipeline for
        sigma(F), so a plain-key plane warm-starts it, serves it for the
        fault set its key names, and solves every other set."""
        ring = demo_ring_network(8)
        procs = sorted(ring.processors)
        fault_sets = [
            frozenset(c)
            for size in (1, 2)
            for c in itertools.combinations(procs, size)
        ]
        config = store_config(tmp_path)
        with WitnessStore(config.store_path) as store:
            fingerprint = network_fingerprint(ring)
            for key, nodes in automorphism_keyed_rows(ring, fault_sets):
                store.put(fingerprint, key, nodes)
        with ControlPlane(config) as plane:
            plane.register("ring", ring)
            assert plane.snapshot().store.warm_loaded > 0
            # {c0} is its orbit's representative: its row came from disk
            assert plane.submit_fault("ring", "c0").result(timeout=30).cache_hit
            plane.submit_repair("ring", "c0").result(timeout=30)
            for a, b in itertools.combinations(procs, 2):
                for submit, node in (
                    (plane.submit_fault, a),
                    (plane.submit_fault, b),
                    (plane.submit_repair, b),
                    (plane.submit_repair, a),
                ):
                    submit("ring", node).result(timeout=30)
                    answer = plane.query_pipeline("ring")
                    assert is_pipeline(
                        ring, answer.pipeline.nodes, answer.faults
                    )
            snap = plane.snapshot()
            assert snap.store.validation_failures == 0
            assert snap.cache.invalid == 0


class TestCrashRecovery:
    def test_torn_rows_after_dirty_shutdown_never_served(self, tmp_path):
        """Kill the plane without close() mid write-behind, tear a row the
        way an interrupted write would, reopen: the torn row is counted
        and deleted, every served answer still validates."""
        config = store_config(tmp_path)
        plane = ControlPlane(config)
        plane.register("a", n=6, k=2)
        plane.submit_fault("a", "p1").result(timeout=30)
        plane.wait()
        plane.cache.flush()
        # dirty shutdown: no close(), no flush of later writes
        plane._executor.shutdown(wait=True)
        plane.cache.persistent.close()
        # tear the persisted pipelines at the byte level
        conn = sqlite3.connect(str(tmp_path / "witness.db"))
        torn = conn.execute(
            "UPDATE witness SET nodes = substr(nodes, 1, 7)"
        ).rowcount
        conn.commit()
        conn.close()
        assert torn >= 2
        with ControlPlane(config) as fresh:
            fresh.register("a", n=6, k=2)
            snap = fresh.snapshot()
            assert snap.store.warm_loaded == 0
            assert snap.store.validation_failures >= torn
            rec = fresh.submit_fault("a", "p1").result(timeout=30)
            assert rec.solver in ("full", "fast")  # re-solved, not served torn
            m = fresh.managed("a")
            assert is_pipeline(m.network, m.session.pipeline.nodes, {"p1"})

    def test_semantically_stale_rows_fail_validation_on_warm_start(
        self, tmp_path
    ):
        """A row that decodes fine but is not a pipeline for the live
        network is rejected by the is_pipeline warm-start gate."""
        config = store_config(tmp_path)
        with ControlPlane(config) as plane:
            plane.register("a", n=6, k=2)
            plane.submit_fault("a", "p1").result(timeout=30)
            plane.wait()
        conn = sqlite3.connect(str(tmp_path / "witness.db"))
        # swap every row's pipeline for a decodable non-pipeline
        conn.execute("UPDATE witness SET nodes = ?", ("('i0', 'o0')",))
        conn.commit()
        conn.close()
        with ControlPlane(config) as fresh:
            fresh.register("a", n=6, k=2)
            snap = fresh.snapshot()
            assert snap.store.warm_loaded == 0
            assert snap.store.validation_failures >= 2


class TestLifecycle:
    def test_close_is_idempotent_and_flushes(self, tmp_path):
        config = store_config(tmp_path)
        plane = ControlPlane(config)
        plane.register("a", n=6, k=2)
        plane.submit_fault("a", "p1").result(timeout=30)
        plane.wait()
        plane.close()
        plane.close()  # second close: no-op, no error
        # the write-behind queue was flushed before the store closed
        conn = sqlite3.connect(str(tmp_path / "witness.db"))
        rows = conn.execute("SELECT COUNT(*) FROM witness").fetchone()[0]
        conn.close()
        assert rows >= 2

    def test_closed_plane_rejects_register_and_events(self, tmp_path):
        plane = ControlPlane(store_config(tmp_path))
        plane.register("a", n=6, k=2)
        plane.close()
        with pytest.raises(ReproError):
            plane.register("b", n=6, k=2)
        with pytest.raises(ReproError):
            plane.submit_fault("a", "p0")

    def test_external_cache_not_closed_by_plane(self, tmp_path):
        from repro.service import TieredWitnessCache, WitnessStore

        cache = TieredWitnessCache(
            8, WitnessStore(str(tmp_path / "w.db"))
        )
        plane = ControlPlane(cache=cache)
        plane.register("a", n=6, k=2)
        plane.close()
        # the plane flushes but does not close a cache it was handed
        assert not cache.persistent.closed
        cache.close()


class TestDegradationMetadata:
    def test_stale_answer_names_outstanding_faults(self, tmp_path):
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            plane.register("busy", n=9, k=2)
            fresh = plane.query_pipeline("busy")
            assert not fresh.stale
            assert fresh.faults_outstanding == frozenset()
            assert fresh.omitted == frozenset()
            plane.pause("busy")
            f1 = plane.submit_fault("busy", "p1")
            answer = plane.query_pipeline("busy")
            assert answer.degraded and answer.stale
            # the admitted-but-unapplied fault is named explicitly
            assert answer.faults_outstanding == frozenset({"p1"})
            plane.resume("busy")
            f1.result(timeout=30)
            plane.wait()
            applied = plane.query_pipeline("busy")
            assert not applied.stale
            assert applied.faults == frozenset({"p1"})
            assert plane.snapshot().totals["stale_served"] >= 1

    def test_queued_repair_reports_omitted_processor(self):
        with ControlPlane() as plane:
            plane.register("r", n=9, k=2)
            plane.submit_fault("r", "p1").result(timeout=30)
            plane.wait()
            plane.pause("r")
            f = plane.submit_repair("r", "p1")
            answer = plane.query_pipeline("r")
            # p1 is believed healthy again but the served pipeline
            # (solved under {p1}) still leaves it out
            assert "p1" in answer.omitted
            assert answer.stale
            plane.resume("r")
            f.result(timeout=30)
            plane.wait()
