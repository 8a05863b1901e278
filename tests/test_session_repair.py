"""Session repair and candidate-pipeline adoption (the control plane's
entry points into :class:`ReconfigurationSession`)."""

import tracemalloc

import pytest

import repro.core.pipeline
import repro.core.session
from repro.core.constructions import build
from repro.core.hamilton import SolvePolicy
from repro.core.model import PipelineNetwork
from repro.core.pipeline import Pipeline, is_pipeline
from repro.core.session import ReconfigurationSession
from repro.errors import BudgetExceededError, ReconfigurationError, ReproError


def bare_g60():
    """G(60,4) without construction metadata, so ``reconfigure`` cannot
    take the asymptotic fast path: with faults {c13, c14, c15, c20} the
    generic solvers exhaust a small budget."""
    net = build(60, 4)
    return PipelineNetwork(net.graph, net.inputs, net.outputs, n=60, k=4)


class TestRepair:
    def test_fail_then_repair_round_trip(self):
        s = ReconfigurationSession(build(9, 2))
        baseline_len = s.pipeline.length
        s.fail("p3")
        assert s.pipeline.length == baseline_len - 1
        rec = s.repair("p3")
        assert s.faults == set()
        assert s.pipeline.length == baseline_len
        assert is_pipeline(s.network, s.pipeline.nodes, set())
        assert rec.was_on_pipeline
        assert rec.moved + rec.kept > 0

    def test_repair_healthy_node_raises(self):
        s = ReconfigurationSession(build(6, 2))
        with pytest.raises(ReconfigurationError):
            s.repair("p0")

    def test_repair_terminal_is_trivial(self):
        s = ReconfigurationSession(build(6, 2))
        term = sorted(s.network.inputs, key=repr)[1]
        s.fail(term)
        before = s.pipeline
        rec = s.repair(term)
        assert not rec.was_on_pipeline and rec.moved == 0
        assert s.pipeline is before

    def test_repair_history_feeds_churn_metrics(self):
        s = ReconfigurationSession(build(9, 2))
        recs = [s.fail("p2"), s.repair("p2")]
        assert [r.fault_index for r in recs] == [0, 1]
        assert s.total_moved() == sum(r.moved for r in recs)
        assert s.mean_churn() == sum(r.churn for r in recs) / 2
        assert 0.0 <= s.mean_churn() <= 1.0

    def test_multi_fault_repair_interleaving(self):
        s = ReconfigurationSession(build(9, 2))
        s.fail("p1")
        s.fail("p4")
        s.repair("p1")
        s.fail("p2")
        s.repair("p4")
        s.repair("p2")
        assert s.faults == set()
        assert is_pipeline(s.network, s.pipeline.nodes, set())


class TestCandidateAdoption:
    def test_fail_adopts_valid_candidate_without_solving(self):
        probe = ReconfigurationSession(build(9, 2))
        probe.fail("p3")
        witness = probe.pipeline

        s = ReconfigurationSession(build(9, 2))
        s.fail("p3", pipeline=witness)
        assert s.pipeline is witness  # adopted verbatim, no re-solve

    def test_repair_adopts_valid_candidate_without_solving(self):
        s = ReconfigurationSession(build(9, 2))
        original = s.pipeline
        s.fail("p3")
        s.repair("p3", pipeline=original)
        assert s.pipeline is original

    def test_invalid_candidate_is_ignored(self):
        s = ReconfigurationSession(build(9, 2))
        bogus = Pipeline(list(s.pipeline.nodes))  # still contains p3
        s.fail("p3", pipeline=bogus)
        assert s.pipeline is not bogus
        assert is_pipeline(s.network, s.pipeline.nodes, {"p3"})

    def test_candidate_for_wrong_fault_set_is_ignored(self):
        probe = ReconfigurationSession(build(9, 2))
        probe.fail("p5")
        wrong = probe.pipeline  # misses p3, includes p5's absence

        s = ReconfigurationSession(build(9, 2))
        s.fail("p3", pipeline=wrong)
        assert s.pipeline is not wrong
        assert is_pipeline(s.network, s.pipeline.nodes, {"p3"})

    def test_node_sequence_candidate_is_adopted(self):
        probe = ReconfigurationSession(build(9, 2))
        probe.fail("p3")

        s = ReconfigurationSession(build(9, 2))
        rec = s.fail("p3", pipeline=probe.pipeline.nodes[::-1])
        assert rec.adopted
        assert s.pipeline.nodes == probe.pipeline.nodes  # input first

    @pytest.mark.parametrize(
        "row",
        [("i0", "o0"), ("zz", "p0", "zz")],
        ids=["too-short", "foreign-labels"],
    )
    def test_malformed_sequence_is_rejected_not_raised(self, row):
        s = ReconfigurationSession(build(9, 2))
        rec = s.fail("p3", pipeline=row)
        assert not rec.adopted
        assert is_pipeline(s.network, s.pipeline.nodes, {"p3"})


class TestServes:
    def test_needs_every_healthy_processor_and_no_fault(self):
        s = ReconfigurationSession(build(9, 2))
        assert s.serves(set())
        stage = s.pipeline.stages[0]
        assert not s.serves({stage})        # routes through a fault
        s.fail(stage)
        assert s.serves({stage})
        assert not s.serves(set())          # leaves a healthy processor out
        spare = next(t for t in s.network.inputs if t not in s.pipeline.nodes)
        assert s.serves({stage, spare})     # a terminal it does not use


class TestFailedReembed:
    """A re-embed that raises leaves the dead node in ``faults`` and the
    pipeline still routed through it; no later event may keep it."""

    def test_duplicate_fault_after_a_failed_fault_re_embeds(self):
        s = ReconfigurationSession(bare_g60(), SolvePolicy(budget=20000))
        s.fail_many(["c14", "c15", "c20"])
        with pytest.raises(BudgetExceededError):
            s.fail("c13")
        try:
            s.fail("c14")
        except ReproError:
            return
        assert is_pipeline(s.network, s.pipeline.nodes, s.faults)


class TestOneValidation:
    def test_single_faults_validate_once(self, monkeypatch):
        """A local repair or seeded solve is checked once where it is
        produced, not again by :meth:`fail`."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return repro.core.pipeline.is_pipeline(*args, **kwargs)

        monkeypatch.setattr(repro.core.session, "is_pipeline", counting)
        net = build(9, 2)
        stages = ReconfigurationSession(net).pipeline.stages
        per_fault = []
        for stage in stages:
            s = ReconfigurationSession(net)
            del calls[:]
            s.fail(stage)
            per_fault.append(len(calls))
        assert per_fault == [1] * len(stages)


class TestRunningTotals:
    def test_churn_events_retain_no_memory(self):
        """Churn accounting is O(1): 2,000 fail/repair events keep no
        per-event state, and the totals equal the sums over the records."""
        s = ReconfigurationSession(build(9, 2))
        nodes = sorted(s.network.processors, key=repr)
        # the sums over the returned records, in event order
        sums = {"moved": 0, "churn": 0.0, "reembeds": 0}

        def churn(events):
            for i in range(events // 2):
                node = nodes[i % len(nodes)]
                for rec in (s.fail(node), s.repair(node)):
                    sums["moved"] += rec.moved
                    if rec.was_on_pipeline:
                        sums["churn"] += rec.churn
                        sums["reembeds"] += 1

        churn(200)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            churn(2000)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024
        assert s.total_moved() == sums["moved"]
        assert s.mean_churn() == sums["churn"] / sums["reembeds"]
