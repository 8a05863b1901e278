"""Control plane behaviour: concurrency, ordering, admission control,
degraded queries, the deadline fast path, and metrics snapshots."""

import pytest

from repro.core.constructions import build
from repro.core.hamilton import SolvePolicy
from repro.core.model import PipelineNetwork
from repro.core.pipeline import is_pipeline
from repro.errors import (
    BudgetExceededError,
    ReconfigurationError,
    ReproError,
    ServiceOverloadError,
)
from repro.service import ControlPlane, ControlPlaneConfig


def make_fleet(plane, count=4, n=9, k=2):
    for i in range(count):
        plane.register(f"net{i}", n=n, k=k)
    return [f"net{i}" for i in range(count)]


class TestRegistry:
    def test_register_by_parameters_and_instance(self):
        with ControlPlane() as plane:
            plane.register("a", n=6, k=2)
            plane.register("b", build(6, 2))
            assert set(plane.names) == {"a", "b"}
            assert len(plane) == 2

    def test_duplicate_name_rejected(self):
        with ControlPlane() as plane:
            plane.register("a", n=6, k=2)
            with pytest.raises(ReproError):
                plane.register("a", n=6, k=2)

    def test_bad_arguments_rejected(self):
        with ControlPlane() as plane:
            with pytest.raises(ReproError):
                plane.register("x")
            with pytest.raises(ReproError):
                plane.register("y", build(6, 2), n=6, k=2)

    def test_unknown_network_is_keyerror(self):
        with ControlPlane() as plane:
            with pytest.raises(KeyError):
                plane.submit_fault("ghost", "p0")


class TestConcurrentEvents:
    def test_concurrent_faults_across_four_networks(self):
        """Interleaved fault/repair streams on >= 4 networks, all futures
        resolve and every final pipeline validates."""
        with ControlPlane(ControlPlaneConfig(workers=4)) as plane:
            names = make_fleet(plane, count=4)
            futures = []
            for wave in ("p1", "p2"):
                for name in names:
                    futures.append(plane.submit_fault(name, wave))
            for name in names:
                futures.append(plane.submit_repair(name, "p1"))
            records = [f.result(timeout=60) for f in futures]
            assert len(records) == 12
            plane.wait()
            for name in names:
                m = plane.managed(name)
                assert m.session.faults == {"p2"}
                assert is_pipeline(m.network, m.session.pipeline.nodes, {"p2"})
            snap = plane.snapshot()
            assert snap.totals["faults"] == 8
            assert snap.totals["repairs"] == 4
            assert snap.latency.count == 12
            assert all(r.latency >= 0 for r in snap.records)

    def test_per_network_serialization(self):
        """Events for one network apply strictly in submission order —
        fault/repair pairs for the same node would raise out of order."""
        with ControlPlane(ControlPlaneConfig(workers=4)) as plane:
            plane.register("solo", n=9, k=2)
            futures = []
            for _ in range(6):
                futures.append(plane.submit_fault("solo", "p1"))
                futures.append(plane.submit_repair("solo", "p1"))
            records = [f.result(timeout=60) for f in futures]
            assert [r.kind for r in records] == ["fault", "repair"] * 6
            assert [r.node for r in records] == ["p1"] * 12
            assert plane.managed("solo").session.faults == set()

    def test_fault_beyond_tolerance_surfaces_error(self):
        with ControlPlane() as plane:
            plane.register("frail", n=6, k=2)
            plane.submit_fault("frail", "p0").result(timeout=30)
            plane.submit_fault("frail", "p1").result(timeout=30)
            fut = plane.submit_fault("frail", "p3")  # {p0,p1,p3} is infeasible
            with pytest.raises(ReconfigurationError):
                fut.result(timeout=30)
            assert plane.snapshot().totals["errors"] == 1

    def test_repair_of_healthy_node_surfaces_error(self):
        with ControlPlane() as plane:
            plane.register("a", n=6, k=2)
            with pytest.raises(ReconfigurationError):
                plane.submit_repair("a", "p0").result(timeout=30)


class TestAdmissionAndDegradation:
    def test_load_shedding_and_degraded_answers(self):
        config = ControlPlaneConfig(workers=2, max_pending=2)
        with ControlPlane(config) as plane:
            plane.register("busy", n=9, k=2)
            baseline = plane.query_pipeline("busy")
            assert not baseline.degraded
            plane.pause("busy")
            f1 = plane.submit_fault("busy", "p1")
            f2 = plane.submit_fault("busy", "p2")
            with pytest.raises(ServiceOverloadError):
                plane.submit_fault("busy", "p3")
            answer = plane.query_pipeline("busy")
            assert answer.degraded
            assert answer.pending >= 2
            # the degraded answer is the last-known-good pipeline: valid
            # for the fault set it was solved under
            m = plane.managed("busy")
            assert is_pipeline(m.network, answer.pipeline.nodes, answer.faults)
            assert answer.faults == frozenset()
            plane.resume("busy")
            f1.result(timeout=30)
            f2.result(timeout=30)
            plane.wait()
            fresh = plane.query_pipeline("busy")
            assert not fresh.degraded
            assert fresh.faults == frozenset({"p1", "p2"})
            snap = plane.snapshot()
            assert snap.totals["shed"] == 1
            assert snap.totals["degraded_served"] >= 1

    def test_queries_never_shed(self):
        config = ControlPlaneConfig(max_pending=1)
        with ControlPlane(config) as plane:
            plane.register("q", n=6, k=2)
            plane.pause("q")
            plane.submit_fault("q", "p0")
            for _ in range(5):
                assert plane.query_pipeline("q").pipeline.length == 8
            plane.resume("q")
            plane.wait()


class TestDeadlineFastPath:
    def test_ewma_over_deadline_switches_policy(self):
        """deadline=0.0: the first solve measures, later solves degrade to
        the trimmed fast-path policy."""
        config = ControlPlaneConfig(workers=1, deadline=0.0)
        with ControlPlane(config) as plane:
            plane.register("slow", n=9, k=2)
            first = plane.submit_fault("slow", "p1").result(timeout=30)
            assert first.solver == "full"
            second = plane.submit_fault("slow", "p2").result(timeout=30)
            assert second.solver == "fast"
            m = plane.managed("slow")
            assert is_pipeline(
                m.network, m.session.pipeline.nodes, {"p1", "p2"}
            )
            assert plane.snapshot().totals["fast_path"] == 1

    def test_no_deadline_never_fast(self):
        with ControlPlane(ControlPlaneConfig(deadline=None)) as plane:
            plane.register("a", n=9, k=2)
            plane.submit_fault("a", "p1").result(timeout=30)
            rec = plane.submit_fault("a", "p2").result(timeout=30)
            assert rec.solver == "full"


class TestSnapshot:
    def test_snapshot_shape_and_summary(self):
        with ControlPlane() as plane:
            make_fleet(plane, count=4)
            plane.submit_fault("net0", "p1").result(timeout=30)
            plane.query_pipeline("net1")
            snap = plane.snapshot()
            assert len(snap.networks) == 4
            assert snap.events == 1
            assert snap.totals["queries"] == 1
            d = snap.as_dict()
            assert d["networks"]["net0"]["counters"]["faults"] == 1
            assert d["cache"]["stores"] >= 4  # one seed row per network
            text = snap.summary()
            assert "witness cache" in text and "net0" in text

    def test_trivial_fault_paths(self):
        """Off-pipeline and duplicate faults skip the solver entirely."""
        with ControlPlane() as plane:
            plane.register("a", n=9, k=2)
            plane.submit_fault("a", "p1").result(timeout=30)
            dup = plane.submit_fault("a", "p1").result(timeout=30)
            assert dup.solver == "none" and dup.moved == 0

    def test_closed_plane_rejects_events(self):
        plane = ControlPlane()
        plane.register("a", n=6, k=2)
        plane.close()
        with pytest.raises(ReproError):
            plane.submit_fault("a", "p0")


class TestLedgerSelfHealing:
    """PR 10 regression tests: the admitted-intent ledger must re-derive
    from ground truth on every failure path, never from stale snapshots.
    """

    def test_unadmit_path_preserves_racing_admission(self):
        """A ``RuntimeError`` from the pool (close raced the submit) must
        un-admit only the doomed event; an admission that raced in
        between offer and un-admit survives and later drains."""
        with ControlPlane(ControlPlaneConfig(workers=1)) as plane:
            plane.register("net", n=6, k=2)
            m = plane.managed("net")
            raced: list = []

            def broken_submit(fn, *args, **kwargs):
                # a second producer races in while the first holds the
                # mailbox claim (its offer gets schedule=False, so it
                # never reaches the executor), then the pool "shuts down"
                raced.append(plane.submit_fault("net", "p2"))
                raise RuntimeError(
                    "cannot schedule new futures after shutdown"
                )

            plane._executor.submit = broken_submit
            try:
                with pytest.raises(ReproError):
                    plane.submit_fault("net", "p1")
            finally:
                del plane._executor.submit  # restore the real pool
            # the raced admission survived the un-admit rebuild
            assert m.mailbox.intended_published == frozenset({"p2"})
            # the claim was handed back: resume drains the raced event
            plane.resume("net")
            record = raced[0].result(timeout=30)
            assert record.kind == "fault" and record.node == "p2"
            plane.wait()
            answer = plane.query_pipeline("net")
            assert answer.faults == frozenset({"p2"})
            assert not answer.stale

    def test_unknown_node_repair_raises_and_ledger_self_heals(self):
        with ControlPlane() as plane:
            plane.register("net", n=6, k=2)
            fut = plane.submit_repair("net", "ghost")
            with pytest.raises(ReconfigurationError):
                fut.result(timeout=30)
            plane.wait()
            answer = plane.query_pipeline("net")
            assert answer.stale is False
            assert answer.faults_outstanding == frozenset()
            assert answer.omitted == frozenset()
            assert plane.snapshot().totals["errors"] == 1

    def test_failed_fault_drops_phantom_intent(self):
        """A fault whose apply fails (not a node of the network) must not
        leave its node in the intent ledger — pre-fix, queries reported
        it as ``faults_outstanding`` forever."""
        with ControlPlane() as plane:
            plane.register("net", n=6, k=2)
            fut = plane.submit_fault("net", "not-a-node")
            with pytest.raises(ReconfigurationError):
                fut.result(timeout=30)
            plane.wait()
            m = plane.managed("net")
            assert m.mailbox.intended_published == frozenset()
            answer = plane.query_pipeline("net")
            assert answer.stale is False
            assert answer.faults_outstanding == frozenset()


class TestFailedEventRecovery:
    def test_duplicate_fault_after_a_failed_fault_serves_no_dead_node(self):
        """After a fault whose re-embed raised, a duplicate fault must not
        publish the old pipeline (still through the dead node) as a fresh
        answer for the enlarged fault set."""
        net = build(60, 4)
        bare = PipelineNetwork(net.graph, net.inputs, net.outputs, n=60, k=4)
        with ControlPlane() as plane:
            plane.register("g", bare, policy=SolvePolicy(budget=20000))
            for node in ("c14", "c15", "c20"):
                plane.submit_fault("g", node).result(timeout=60)
            with pytest.raises(BudgetExceededError):
                plane.submit_fault("g", "c13").result(timeout=60)
            try:
                plane.submit_fault("g", "c14").result(timeout=60)
            except ReproError:
                pass
            plane.wait()
            answer = plane.query_pipeline("g")
        assert is_pipeline(bare, answer.pipeline.nodes, answer.faults)
        assert answer.faults | answer.faults_outstanding == {
            "c13", "c14", "c15", "c20"
        }
