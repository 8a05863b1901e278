"""Tests for repro.core.witnesses and repro.core.session."""

import networkx as nx
import pytest

from repro import build, is_pipeline
from repro.core.model import PipelineNetwork
from repro.core.session import ChurnRecord, ReconfigurationSession, pipeline_churn
from repro.core.pipeline import Pipeline
from repro.core.witnesses import candidate_witnesses, disprove_gd, find_fatal_witness
from repro.errors import ReconfigurationError


def weak_network():
    """A network violating Lemma 3.1 at k=2 (p1 has degree 3 < 4)."""
    g = nx.Graph()
    procs = ["p0", "p1", "p2", "p3"]
    for i, a in enumerate(procs):
        for b in procs[i + 1 :]:
            g.add_edge(a, b)
    g.remove_edge("p1", "p3")  # p1 now has 2 processor neighbors
    for j in range(3):
        g.add_edge(f"i{j}", procs[j])
        g.add_edge(f"o{j}", procs[(j + 1) % 3])
    return PipelineNetwork(
        g, [f"i{j}" for j in range(3)], [f"o{j}" for j in range(3)], n=2, k=2
    )


class TestWitnesses:
    @pytest.mark.parametrize("n,k", [(1, 2), (3, 2), (6, 2), (4, 3), (14, 4)])
    def test_constructions_have_no_fatal_witness(self, n, k):
        assert find_fatal_witness(build(n, k)) is None

    def test_weak_network_disproved(self):
        wit = disprove_gd(weak_network())
        assert wit is not None
        assert len(wit.faults) <= 2
        assert "Lemma" in wit.lemma

    def test_witness_is_actually_fatal(self):
        from repro.core.hamilton import find_pipeline

        net = weak_network()
        wit = find_fatal_witness(net)
        assert find_pipeline(net, wit.faults) is None

    def test_candidates_cover_terminal_starvation(self):
        # fewer terminals than k+1: starvation witness appears
        g = nx.Graph([("i0", "p0"), ("p0", "p1"), ("p1", "o0")])
        net = PipelineNetwork(g, ["i0"], ["o0"], n=1, k=1)
        kinds = [w.lemma for w in candidate_witnesses(net)]
        assert any("starvation" in s for s in kinds)

    def test_candidates_respect_k(self):
        net = build(6, 2)
        for wit in list(candidate_witnesses(net))[:20]:
            # candidates may exceed k (they are filtered downstream);
            # but every candidate must be a real node subset
            assert wit.faults <= set(net.graph.nodes)


class TestPipelineChurn:
    def test_identical_pipelines_zero_churn(self):
        pl = Pipeline(["i", "a", "b", "c", "o"])
        moved, kept = pipeline_churn(pl, pl)
        assert moved == 0 and kept == 3

    def test_fully_reordered(self):
        old = Pipeline(["i", "a", "b", "c", "o"])
        new = Pipeline(["i", "c", "b", "a", "o"])
        moved, kept = pipeline_churn(old, new)
        assert moved == 3 and kept == 0

    def test_partial(self):
        old = Pipeline(["i", "a", "b", "c", "d", "o"])
        new = Pipeline(["i", "a", "b", "d", "c", "o"])
        moved, kept = pipeline_churn(old, new)
        assert kept == 1  # only a keeps its successor b
        assert moved == 3


class TestSession:
    def test_initial_pipeline_valid(self):
        s = ReconfigurationSession(build(9, 2))
        assert is_pipeline(s.network, s.pipeline.nodes)

    def test_fail_sequence_stays_valid(self):
        s = ReconfigurationSession(build(22, 4))
        for i, node in enumerate(["c3", "c8", "i2", "ti1"]):
            assert s.fail(node).fault_index == i
            assert is_pipeline(s.network, s.pipeline.nodes, s.faults)

    def test_unused_terminal_fault_is_free(self):
        s = ReconfigurationSession(build(6, 2))
        unused = next(
            t for t in sorted(s.network.terminals) if t not in s.pipeline.nodes
        )
        rec = s.fail(unused)
        assert not rec.was_on_pipeline
        assert rec.moved == 0

    def test_duplicate_fault_is_free(self):
        s = ReconfigurationSession(build(6, 2))
        s.fail("p0")
        rec = s.fail("p0")
        assert rec.moved == 0 and not rec.was_on_pipeline

    def test_unknown_node_rejected(self):
        s = ReconfigurationSession(build(6, 2))
        with pytest.raises(ReconfigurationError):
            s.fail("nope")

    def test_beyond_tolerance_raises(self):
        s = ReconfigurationSession(build(1, 1))
        s.fail("p0")
        with pytest.raises(ReconfigurationError):
            s.fail("p1")

    def test_churn_metrics(self):
        s = ReconfigurationSession(build(22, 4))
        recs = s.fail_many(["c3", "c8"])
        assert all(0 <= r.churn <= 1 for r in recs)
        assert s.total_moved() == sum(r.moved for r in recs)
        assert 0 <= s.mean_churn() <= 1

    def test_stability_bias_reduces_churn(self):
        # churn-minimizing sessions should move (weakly) fewer stages
        # than fresh full reconfiguration, on average over several faults
        net = build(40, 4)
        stable = ReconfigurationSession(net, minimize_churn=True)
        naive = ReconfigurationSession(net, minimize_churn=False)
        faults = ["c5", "c12", "c20", "c9"]
        for v in faults:
            stable.fail(v)
            naive.fail(v)
        assert stable.total_moved() <= naive.total_moved() + 5

    def test_healthy_processors_tracked(self):
        s = ReconfigurationSession(build(9, 2))
        before = len(s.healthy_processors)
        s.fail("p0")
        assert len(s.healthy_processors) == before - 1

    def test_churn_record_fields(self):
        rec = ChurnRecord("x", 0, 10, moved=2, kept=8, was_on_pipeline=True)
        assert rec.churn == pytest.approx(0.2)
