"""Session repair and candidate-pipeline adoption (the control plane's
entry points into :class:`ReconfigurationSession`)."""

import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline
import repro.core.session
from repro.core.constructions import build
from repro.core.hamilton import SolvePolicy
from repro.core.model import PipelineNetwork
from repro.core.pipeline import Pipeline, is_pipeline
from repro.core.session import ReconfigurationSession, pipeline_churn
from repro.errors import BudgetExceededError, ReconfigurationError, ReproError
from repro.service.trace import demo_ring_network


def bare(net):
    """*net* without construction metadata, so ``reconfigure`` falls back
    to the generic solvers."""
    return PipelineNetwork(net.graph, net.inputs, net.outputs, n=net.n, k=net.k)


def bare_g60():
    """G(60,4) without construction metadata, so ``reconfigure`` cannot
    take the asymptotic fast path: with faults {c13, c14, c15, c20} the
    generic solvers exhaust a small budget."""
    return bare(build(60, 4))


def count_is_pipeline(monkeypatch) -> list:
    """Count the session's ``is_pipeline`` calls; returns the list the
    calls append to."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return repro.core.pipeline.is_pipeline(*args, **kwargs)

    monkeypatch.setattr(repro.core.session, "is_pipeline", counting)
    return calls


def forbid_reconfigure(monkeypatch) -> None:
    """Fail the test if the session falls back to full reconfiguration,
    so a passing event re-embedded in the bit space."""

    def unexpected(*args, **kwargs):
        raise AssertionError("fell back to full reconfiguration")

    monkeypatch.setattr(repro.core.session, "reconfigure", unexpected)


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


class TestValidationBoundary:
    """Untrusted candidates are checked with ``is_pipeline`` once, where
    they are adopted; the session's own bit-space re-embeds are spanning
    paths by construction and are not re-walked."""

    def test_bit_space_reembeds_call_is_pipeline_zero_times(self, monkeypatch):
        """Failing and then repairing each stage of G(9,2) re-embeds in
        the bit space without one ``is_pipeline`` call."""
        net = build(9, 2)
        stages = ReconfigurationSession(net).pipeline.stages
        # built before reconfigure is forbidden: construction embeds
        sessions = [ReconfigurationSession(net) for _ in stages]
        calls = count_is_pipeline(monkeypatch)
        forbid_reconfigure(monkeypatch)
        per_event = []
        for s, stage in zip(sessions, stages):
            for event in (s.fail, s.repair):
                rec = event(stage)
                per_event.append(len(calls))
                assert rec.was_on_pipeline and not rec.adopted
                assert is_pipeline(net, s.pipeline, s.faults)
        assert per_event == [0] * (2 * len(sessions))

    def test_cached_candidate_is_checked_once(self, monkeypatch):
        probe = ReconfigurationSession(build(9, 2))
        probe.fail("p3")
        s = ReconfigurationSession(build(9, 2))
        calls = count_is_pipeline(monkeypatch)
        rec = s.fail("p3", pipeline=probe.pipeline.nodes)
        assert rec.adopted
        assert len(calls) == 1


def two_terminal_network():
    """K4 on p0..p3 whose only input-attached processor p0 carries two
    input terminals and whose only output-attached processor p3 carries
    two output terminals: every pipeline runs p0 ... p3."""
    g = nx.complete_graph(["p0", "p1", "p2", "p3"])
    g.add_edges_from([("ia", "p0"), ("ib", "p0"), ("p3", "oa"), ("p3", "ob")])
    return PipelineNetwork(g, ["ia", "ib"], ["oa", "ob"], n=3, k=1)


def end_only_network(end):
    """A path a - b - c with chord a - c and a processor r that is adjacent
    only to a (``end="head"``) or only to c (``end="tail"``), with its own
    terminal on that side: r fits into the pipeline only at that end."""
    g = nx.Graph([("a", "b"), ("b", "c"), ("a", "c"), ("ia", "a"), ("c", "oc")])
    if end == "head":
        g.add_edges_from([("r", "a"), ("ir", "r")])
        return PipelineNetwork(g, ["ia", "ir"], ["oc"], n=3, k=1)
    g.add_edges_from([("c", "r"), ("r", "or")])
    return PipelineNetwork(g, ["ia"], ["oc", "or"], n=3, k=1)


class TestBitSpaceReembed:
    def test_dead_terminal_endpoint_keeps_stage_order(self, monkeypatch):
        s = ReconfigurationSession(two_terminal_network())
        stages, source = s.pipeline.stages, s.pipeline.source
        forbid_reconfigure(monkeypatch)
        rec = s.fail(source)
        assert s.pipeline.stages == stages
        assert s.pipeline.source == ({"ia", "ib"} - {source}).pop()
        assert rec.was_on_pipeline and rec.moved == 0
        assert is_pipeline(s.network, s.pipeline, s.faults)

    @pytest.mark.parametrize("end", ["head", "tail"])
    def test_revived_processor_fits_only_at_an_end(self, monkeypatch, end):
        s = ReconfigurationSession(end_only_network(end))
        s.fail("r")
        assert s.pipeline.stages == ("a", "b", "c")
        forbid_reconfigure(monkeypatch)
        s.repair("r")
        expected = ("r", "a", "b", "c") if end == "head" else ("a", "b", "c", "r")
        assert s.pipeline.stages == expected
        assert is_pipeline(s.network, s.pipeline, s.faults)


def bare_ring(m):
    """C_m(1,2) with one input and one output terminal per node."""
    return bare(demo_ring_network(m))


@pytest.mark.parametrize(
    "network",
    [bare_ring(10), bare(build(9, 2)), bare(build(7, 3))],
    ids=["ring-C10(1,2)", "G(9,2)", "G(7,3)"],
)
@settings(derandomize=True, max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(min_value=0), max_size=14))
def test_random_fail_repair_sequences(network, picks):
    """Random fail/repair sequences of at most k faults on networks
    without construction metadata: every pipeline passes the reference
    ``is_pipeline``, and the running churn totals equal the sums of
    ``pipeline_churn`` recomputed from the pipelines."""
    nodes = sorted(network.graph.nodes, key=repr)
    s = ReconfigurationSession(network)
    moved = reembeds = 0
    churn = 0.0
    for pick in picks:
        node = nodes[pick % len(nodes)]
        if node not in s.faults and len(s.faults) == network.k:
            node = sorted(s.faults, key=repr)[pick % network.k]
        old = s.pipeline
        (s.repair if node in s.faults else s.fail)(node)
        assert is_pipeline(network, s.pipeline, s.faults)
        if s.pipeline is not old:
            m, kept = pipeline_churn(old, s.pipeline)
            moved += m
            churn += m / (m + kept)
            reembeds += 1
    assert s.total_moved() == moved
    assert s.mean_churn() == (churn / reembeds if reembeds else 0.0)


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
