"""Runtime lock-order sanitizer, and its cross-check with the static pass."""

import threading
from pathlib import Path

import pytest

from repro.errors import LockOrderViolationError
from repro.lint.engine import load_modules
from repro.lint.passes.lock_order import build_lock_graph
from repro.lint.sanitizer import (
    LockOrderMonitor,
    SanitizedLock,
    instrument_plane,
    instrumented_locks,
    wrap_lock,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestMonitor:
    def test_consistent_nesting_is_acyclic(self):
        monitor = LockOrderMonitor()
        locks = instrumented_locks(["a", "b"], monitor)
        for _ in range(3):
            with locks["a"]:
                with locks["b"]:
                    pass
        assert monitor.edges() == {("a", "b")}
        assert monitor.find_cycle() is None
        monitor.assert_acyclic()

    def test_inversion_is_detected(self):
        monitor = LockOrderMonitor()
        locks = instrumented_locks(["a", "b"], monitor)
        with locks["a"]:
            with locks["b"]:
                pass
        with locks["b"]:
            with locks["a"]:
                pass
        assert monitor.edges() == {("a", "b"), ("b", "a")}
        assert sorted(monitor.find_cycle()) == ["a", "b"]
        with pytest.raises(LockOrderViolationError):
            monitor.assert_acyclic()

    def test_strict_mode_raises_at_the_acquisition_site(self):
        monitor = LockOrderMonitor(strict=True)
        locks = instrumented_locks(["a", "b"], monitor)
        with locks["a"]:
            with locks["b"]:
                pass
        with locks["b"]:
            with pytest.raises(LockOrderViolationError) as exc:
                locks["a"].acquire()
            assert "cycle" in str(exc.value)
        # the failed acquire must not corrupt the held stack
        monitor.note_released  # still importable/usable
        with locks["b"]:
            pass

    def test_strict_mode_flags_reacquisition(self):
        monitor = LockOrderMonitor(strict=True)
        lock = SanitizedLock("a", monitor, inner=threading.RLock())
        with lock:
            with pytest.raises(LockOrderViolationError):
                lock.acquire()

    def test_edges_recorded_per_thread(self):
        monitor = LockOrderMonitor()
        locks = instrumented_locks(["a", "b"], monitor)

        def worker_ab():
            with locks["a"]:
                with locks["b"]:
                    pass

        def worker_b_only():
            with locks["b"]:
                pass

        threads = [threading.Thread(target=worker_ab),
                   threading.Thread(target=worker_b_only)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert monitor.edges() == {("a", "b")}

    def test_wrap_lock_shares_the_inner_lock(self):
        monitor = LockOrderMonitor()
        inner = threading.Lock()
        wrapped = wrap_lock(inner, "x", monitor)
        with wrapped:
            assert inner.locked()
        assert not inner.locked()

    def test_non_blocking_acquire_failure_records_no_hold(self):
        monitor = LockOrderMonitor()
        lock = SanitizedLock("a", monitor)
        assert lock.acquire()
        assert lock.acquire(blocking=False) is False
        lock.release()
        assert monitor.edges() == frozenset()


@pytest.fixture(scope="module")
def static_graph():
    modules, errors = load_modules([SRC], root=SRC.parents[1])
    assert not errors
    return build_lock_graph(modules)


class TestControlPlaneInstrumentation:
    def test_real_workload_is_acyclic_and_within_static_graph(self, static_graph):
        from repro.service import ControlPlane, ControlPlaneConfig

        monitor = LockOrderMonitor(strict=True)
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            plane.register("x", n=6, k=2)
            plane.register("y", n=9, k=2)
            instrument_plane(plane, monitor)
            futures = []
            for name, node in [("x", "p1"), ("y", "p1"), ("y", "p2")]:
                futures.append(plane.submit_fault(name, node))
            for f in futures:
                f.result(timeout=60)
            plane.submit_repair("y", "p1").result(timeout=60)
            plane.query_pipeline("x")
            plane.wait()
            plane.snapshot()
        monitor.assert_acyclic()
        # the control plane takes its locks one at a time — no thread ever
        # holds two instrumented locks — which is the strongest possible
        # deadlock-freedom witness.  If a future change introduces nesting
        # this assertion surfaces it, and the subset check below then
        # requires the static pass to know about the new edge.
        assert monitor.edges() == frozenset()
        missing = set(monitor.edges()) - set(static_graph.edges)
        assert not missing, f"dynamic edges unknown to the static pass: {missing}"

    def test_static_graph_covers_the_service_locks(self, static_graph):
        labels = static_graph.labels
        assert "ControlPlane._lock" in labels
        assert "Mailbox._lock" in labels
        assert "AtomicCounters._lock" in labels
        assert "TieredWitnessCache._lock" in labels
        assert "factory._BUILD_CACHE_LOCK" in labels
