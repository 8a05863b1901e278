"""Tests for repro.core.verify (exhaustive + sampled verification,
adversarial generators, certificates)."""

import random

import networkx as nx
import pytest

from repro.core.constructions import build, build_g1k, build_g3k
from repro.core.hamilton import SolvePolicy
from repro.core.model import PipelineNetwork
from repro.core.verify import (
    ADVERSARIAL_GENERATORS,
    VerificationMode,
    attachment_attack,
    neighborhood_attack,
    segment_attack,
    terminal_attack,
    uniform_faults,
    verify_exhaustive,
    verify_sampled,
)
from repro.core.verify.adversarial import generate_fault_sets, matched_pair_attack
from repro.core.verify.exhaustive import iter_fault_sets


def broken_network():
    """A network that is NOT 1-gracefully-degradable: a bare path."""
    g = nx.Graph(
        [("i0", "p0"), ("i1", "p0"), ("p0", "p1"), ("p1", "p2"),
         ("p2", "o0"), ("p2", "o1")]
    )
    return PipelineNetwork(g, ["i0", "i1"], ["o0", "o1"], n=2, k=1)


class TestIterFaultSets:
    def test_counts(self):
        sets = list(iter_fault_sets(range(5), 2))
        assert len(sets) == 1 + 5 + 10

    def test_sizes_filter(self):
        sets = list(iter_fault_sets(range(5), 2, sizes=[2]))
        assert len(sets) == 10
        assert all(len(s) == 2 for s in sets)

    def test_smallest_first(self):
        sets = list(iter_fault_sets(range(3), 2))
        assert [len(s) for s in sets] == sorted(len(s) for s in sets)


class TestExhaustive:
    def test_proof_on_valid(self):
        cert = verify_exhaustive(build_g1k(2))
        assert cert.is_proof and cert.mode is VerificationMode.EXHAUSTIVE
        assert cert.checked == cert.tolerated

    def test_counterexample_on_broken(self):
        cert = verify_exhaustive(broken_network())
        assert not cert.ok
        assert cert.counterexample == ("p0",)  # first fatal singleton

    def test_disproof_counts_all_when_asked(self):
        cert = verify_exhaustive(
            broken_network(), stop_on_counterexample=False
        )
        assert cert.checked == 1 + 7  # empty set + 7 singletons
        assert cert.tolerated < cert.checked

    def test_fault_universe_restriction(self):
        net = build_g1k(2)
        cert = verify_exhaustive(net, fault_universe=net.processors)
        assert cert.checked == 1 + 3 + 3  # C(3,0)+C(3,1)+C(3,2)
        assert cert.is_proof

    def test_explicit_k_override(self):
        net = build_g1k(3)
        cert = verify_exhaustive(net, k=1)
        assert cert.k == 1 and cert.is_proof

    def test_partial_sizes_certify_only_the_covered_budget(self):
        net = build(3, 2)
        # sizes 0..1 of 0..2: a proof of 1-GD, not of 2-GD
        cert = verify_exhaustive(net, sizes=[0, 1])
        assert (cert.checked, cert.k, cert.is_proof) == (12, 1, True)
        # size 2 alone covers no budget and proves nothing
        cert = verify_exhaustive(net, sizes=[2])
        assert (cert.checked, cert.k, cert.ok) == (55, -1, True)
        assert not cert.is_proof
        assert "PROOF" not in cert.summary()

    def test_sizes_above_the_universe_count_as_swept(self):
        net = build(3, 2)
        two = sorted(net.processors, key=repr)[:2]
        cert = verify_exhaustive(net, k=3, fault_universe=two, sizes=[0, 1, 2])
        assert (cert.checked, cert.k, cert.is_proof) == (4, 3, True)

    def test_progress_callback(self):
        ticks = []
        verify_exhaustive(build_g3k(2), progress=lambda c: ticks.append(c))
        # 67 checks -> no 1000-tick, but callback wiring shouldn't crash
        assert ticks == []

    def test_undecided_reported_not_hidden(self):
        net = build(22, 4)
        policy = SolvePolicy(posa_restarts=0, budget=3)
        cert = verify_exhaustive(net, policy=policy, sizes=[0])
        assert cert.undecided and cert.ok
        assert not cert.is_proof


class TestSampled:
    def test_ok_on_valid(self):
        cert = verify_sampled(build(14, 4), trials=60, rng=2)
        assert cert.ok and cert.mode is VerificationMode.SAMPLED

    def test_never_a_proof(self):
        cert = verify_sampled(build_g1k(1), trials=10, rng=0)
        assert not cert.is_proof

    def test_finds_counterexample_on_broken(self):
        cert = verify_sampled(broken_network(), trials=300, rng=1)
        assert not cert.ok

    def test_deduplicates(self):
        cert = verify_sampled(build_g1k(1), trials=500, rng=3)
        # tiny universe: far fewer distinct fault sets than trials
        assert cert.checked < 500

    def test_reproducible(self):
        a = verify_sampled(build(14, 4), trials=40, rng=7)
        b = verify_sampled(build(14, 4), trials=40, rng=7)
        assert a.checked == b.checked and a.tolerated == b.tolerated


class TestAdversarialGenerators:
    @pytest.mark.parametrize("gen", ADVERSARIAL_GENERATORS, ids=lambda g: g.__name__)
    def test_respects_budget(self, gen):
        net = build(14, 4)
        rng = random.Random(5)
        for _ in range(20):
            faults = gen(net, net.k, rng)
            assert len(faults) <= net.k
            assert faults <= set(net.graph.nodes)

    def test_terminal_attack_hits_terminals(self):
        net = build(9, 2)
        rng = random.Random(0)
        hits = set()
        for _ in range(30):
            hits |= terminal_attack(net, 2, rng)
        assert hits <= net.terminals

    def test_neighborhood_attack_is_local(self):
        net = build(14, 4)
        rng = random.Random(1)
        faults = neighborhood_attack(net, 4, rng)
        # all faults share a common neighbor
        assert any(
            faults <= set(net.graph.neighbors(v)) for v in net.graph.nodes
        )

    def test_segment_attack_consecutive_on_circulant(self):
        net = build(22, 4)
        rng = random.Random(2)
        for _ in range(10):
            faults = segment_attack(net, 4, rng)
            assert faults, "segment attack returns something"

    def test_matched_pair_attack_targets_matching(self):
        net = build_g3k(3)
        rng = random.Random(3)
        faults = matched_pair_attack(net, 3, rng)
        matched_nodes = {v for e in net.meta["removed_matching"] for v in e}
        assert faults <= matched_nodes

    def test_generate_fault_sets_count(self):
        net = build_g1k(2)
        sets = list(generate_fault_sets(net, 2, 12, rng=0))
        assert len(sets) == 12

    def test_uniform_faults_size_distribution(self):
        net = build(14, 4)
        rng = random.Random(9)
        sizes = {len(uniform_faults(net, 4, rng)) for _ in range(100)}
        assert sizes == {0, 1, 2, 3, 4}

    def test_attachment_attack_within_budget(self):
        net = build(9, 2)
        rng = random.Random(4)
        for _ in range(20):
            assert len(attachment_attack(net, 2, rng)) <= 2


class TestCertificates:
    def test_summary_mentions_proof(self):
        cert = verify_exhaustive(build_g1k(1))
        assert "PROOF" in cert.summary()

    def test_summary_mentions_counterexample(self):
        cert = verify_exhaustive(broken_network())
        assert "COUNTEREXAMPLE" in cert.summary()

    def test_bool_protocol(self):
        assert verify_exhaustive(build_g1k(1))
        assert not verify_exhaustive(broken_network())
