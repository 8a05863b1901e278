"""End-to-end observability: causal chains from a live control plane and
flight-recorder dumps on every anomaly path (shed, validation failure,
torn store row, lock-order violation, processing error)."""

import sqlite3

import pytest

from repro.errors import (
    LockOrderViolationError,
    ReconfigurationError,
    ServiceOverloadError,
)
from repro.lint.sanitizer import LockOrderMonitor
from repro.obs.cli import CHAIN_PHASES, find_complete_chains
from repro.obs.recorder import FlightRecorder
from repro.service.control import ControlPlane, ControlPlaneConfig
from repro.service.store import WitnessStore


def traced_config(**kw):
    return ControlPlaneConfig(tracing=True, workers=2, **kw)


class TestCausalChain:
    def test_fault_event_yields_complete_chain(self):
        with ControlPlane(traced_config()) as plane:
            plane.register("edge-a", n=6, k=2)
            plane.submit_fault("edge-a", "p1").result(timeout=60)
            plane.wait(timeout=60)
            spans = plane.tracer.spans()
        chains = find_complete_chains(spans)
        assert len(chains) == 1
        trace = [s for s in spans if s["trace_id"] == chains[0]]
        names = {s["name"] for s in trace}
        assert set(CHAIN_PHASES) <= names
        assert "canonicalize" in names and "cache_lookup" in names
        root = [s for s in trace if s["parent_id"] is None]
        assert len(root) == 1 and root[0]["name"] == "event"
        assert root[0]["attrs"]["kind"] == "fault"
        # every chain phase hangs off the root event span
        by_name = {s["name"]: s for s in trace}
        for phase in CHAIN_PHASES:
            assert by_name[phase]["parent_id"] == root[0]["span_id"]
            assert by_name[phase]["duration_s"] > 0

    def test_session_child_spans_nest_under_solve(self):
        with ControlPlane(traced_config()) as plane:
            plane.register("edge-a", n=6, k=2)
            plane.submit_fault("edge-a", "p1").result(timeout=60)
            spans = plane.tracer.spans()
        by_name = {s["name"]: s for s in spans}
        assert "stable_reembed" in by_name
        assert by_name["stable_reembed"]["parent_id"] == (
            by_name["solve"]["span_id"]
        )
        assert by_name["solve"]["attrs"]["path"] in (
            "witness_adopted", "stable_reembed", "reconfigure_full",
            "splice_repair",
        )

    def test_query_traced_without_chain(self):
        with ControlPlane(traced_config()) as plane:
            plane.register("edge-a", n=6, k=2)
            plane.query_pipeline("edge-a")
            spans = plane.tracer.spans()
        assert [s["name"] for s in spans] == ["query"]
        assert find_complete_chains(spans) == []

    def test_noop_default_records_nothing(self):
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            plane.register("edge-a", n=6, k=2)
            plane.submit_fault("edge-a", "p1").result(timeout=60)
            assert plane.tracer.spans() == []
            assert plane.recorder is None
            assert plane.snapshot().anomalies is None


class TestShedDump:
    def test_shed_counts_and_dumps(self, tmp_path):
        config = traced_config(
            max_pending=2, trace_dump_dir=str(tmp_path / "dumps")
        )
        with ControlPlane(config) as plane:
            plane.register("busy", n=9, k=2)
            plane.pause("busy")
            plane.submit_fault("busy", "p1")
            plane.submit_fault("busy", "p2")
            with pytest.raises(ServiceOverloadError):
                plane.submit_fault("busy", "p3")
            plane.resume("busy")
            plane.wait(timeout=60)
            assert plane.recorder.anomalies()["shed"] == 1
            assert plane.snapshot().anomalies["shed"] == 1
            (path,) = plane.recorder.dump_paths()
            assert "shed" in path
            (dump,) = plane.recorder.dumps()
            assert dump["network"] == "busy"
            # the shed event's root span is committed with shed status
            shed_spans = [
                s for s in plane.tracer.spans() if s["status"] == "shed"
            ]
            assert len(shed_spans) == 1
            assert shed_spans[0]["name"] == "event"


class TestValidationFailureDump:
    def test_poisoned_cache_row_dumps(self):
        with ControlPlane(traced_config()) as plane:
            plane.register("edge-a", n=6, k=2)
            m = plane.managed("edge-a")
            key, _ = m.canon.canonical({"p1"})
            # a garbage row too short to be a pipeline: the session's
            # validation must reject it and raise the anomaly
            plane.cache.store(m.fingerprint, key, ("i0", "o0"))
            plane.submit_fault("edge-a", "p1").result(timeout=60)
            anomalies = plane.recorder.anomalies()
            assert anomalies["validation_failure"] == 1
            (dump,) = plane.recorder.dumps()
            assert dump["kind"] == "validation_failure"
            assert dump["extra"]["node"] == "'p1'"
            # the bad row was dropped, and the solve still succeeded
            assert plane.snapshot().totals["faults"] == 1


class TestErrorDump:
    def test_processing_error_noted(self):
        with ControlPlane(traced_config()) as plane:
            plane.register("a", n=6, k=2)
            with pytest.raises(ReconfigurationError):
                plane.submit_repair("a", "p0").result(timeout=60)
            assert plane.recorder.anomalies()["error"] == 1
            event_spans = [
                s for s in plane.tracer.spans() if s["name"] == "event"
            ]
            assert [s["status"] for s in event_spans] == ["error"]


class TestTornRowDump:
    def corrupt(self, path):
        conn = sqlite3.connect(path)
        conn.execute("UPDATE witness SET nodes = substr(nodes, 1, 4)")
        conn.commit()
        conn.close()

    def test_store_callback_fires_outside_lock(self, tmp_path):
        rec = FlightRecorder()
        with WitnessStore(str(tmp_path / "w.db")) as store:
            store.set_torn_row_callback(
                lambda fingerprint, key: rec.note_anomaly(
                    "torn_row", key, extra={"fingerprint": fingerprint}
                )
            )
            store.put("fp", ("'p1'",), ("i0", "p0", "o0"))
            self.corrupt(store.path)
            assert store.get("fp", ("'p1'",)) is None
            assert rec.anomalies()["torn_row"] == 1
            stats = store.stats()
            assert stats.torn_rows == 1
            assert stats.validation_failures == 1  # still counted there too

    def test_plane_wires_store_to_recorder(self, tmp_path):
        config = traced_config(store_path=str(tmp_path / "w.db"))
        with ControlPlane(config) as plane:
            plane.register("edge-a", n=6, k=2)
            store = plane.cache.persistent
            store.put("fp", ("'p1'",), ("i0", "p0", "o0"))
            self.corrupt(store.path)
            assert store.get("fp", ("'p1'",)) is None
            assert plane.recorder.anomalies()["torn_row"] == 1
            assert plane.snapshot().store.torn_rows == 1


class TestLockOrderDump:
    def test_strict_violation_reported_to_recorder(self):
        rec = FlightRecorder()
        monitor = LockOrderMonitor(strict=True, recorder=rec)
        monitor.note_intent("A")
        monitor.note_acquired("A")
        monitor.note_intent("B")
        monitor.note_acquired("B")
        monitor.note_released("B")
        monitor.note_released("A")
        monitor.note_intent("B")
        monitor.note_acquired("B")
        with pytest.raises(LockOrderViolationError):
            monitor.note_intent("A")  # closes the A->B / B->A cycle
        assert rec.anomalies()["lock_order"] == 1
        (dump,) = rec.dumps()
        assert "cycle" in dump["detail"]

    def test_post_hoc_assert_acyclic_reported(self):
        rec = FlightRecorder()
        monitor = LockOrderMonitor(recorder=rec)
        monitor.note_intent("A")
        monitor.note_acquired("A")
        monitor.note_intent("B")
        monitor.note_acquired("B")
        monitor.note_released("B")
        monitor.note_released("A")
        monitor.note_intent("B")
        monitor.note_acquired("B")
        monitor.note_intent("A")
        monitor.note_acquired("A")
        with pytest.raises(LockOrderViolationError):
            monitor.assert_acyclic()
        assert rec.anomalies()["lock_order"] == 1

    def test_clean_ordering_reports_nothing(self):
        rec = FlightRecorder()
        monitor = LockOrderMonitor(strict=True, recorder=rec)
        monitor.note_intent("A")
        monitor.note_acquired("A")
        monitor.note_intent("B")
        monitor.note_acquired("B")
        monitor.note_released("B")
        monitor.note_released("A")
        monitor.assert_acyclic()
        assert rec.total_anomalies() == 0
