"""Tests for the G(1,k) and G(2,k) constructions (Lemmas 3.7, 3.9)."""

import pytest

from repro.core.bounds import degree_lower_bound
from repro.core.constructions import build_g1k, build_g2k
from repro.core.verify import verify_exhaustive
from repro.errors import InvalidParameterError
from repro.graphs.degrees import degree_histogram

K_RANGE = [1, 2, 3, 4]


class TestG1kStructure:
    @pytest.mark.parametrize("k", K_RANGE)
    def test_standard(self, k):
        assert build_g1k(k).is_standard()

    @pytest.mark.parametrize("k", K_RANGE)
    def test_counts(self, k):
        net = build_g1k(k)
        assert len(net.processors) == k + 1
        assert len(net.inputs) == k + 1
        assert len(net.outputs) == k + 1

    @pytest.mark.parametrize("k", K_RANGE)
    def test_processors_form_clique(self, k):
        net = build_g1k(k)
        procs = sorted(net.processors)
        for i, a in enumerate(procs):
            for b in procs[i + 1 :]:
                assert net.graph.has_edge(a, b)

    @pytest.mark.parametrize("k", K_RANGE)
    def test_I_equals_O_equals_processors(self, k):
        net = build_g1k(k)
        assert net.I == net.O == net.processors

    @pytest.mark.parametrize("k", K_RANGE)
    def test_degree_optimal(self, k):
        net = build_g1k(k)
        assert net.max_processor_degree() == k + 2 == degree_lower_bound(1, k)

    @pytest.mark.parametrize("k", K_RANGE)
    def test_regular(self, k):
        net = build_g1k(k)
        hist = degree_histogram(net.graph, net.processors)
        assert hist == {k + 2: k + 1}

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            build_g1k(0)


class TestG1kGracefulDegradability:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_proof(self, k):
        cert = verify_exhaustive(build_g1k(k))
        assert cert.is_proof

    def test_does_not_tolerate_k_plus_1(self):
        # killing one full (input, processor, output) part per fault is
        # the tight case: k+1 processor faults kill everything
        net = build_g1k(2)
        cert = verify_exhaustive(net, k=3, sizes=[3], stop_on_counterexample=True)
        assert cert.counterexample is not None


class TestG2kStructure:
    @pytest.mark.parametrize("k", K_RANGE)
    def test_standard(self, k):
        assert build_g2k(k).is_standard()

    @pytest.mark.parametrize("k", K_RANGE)
    def test_counts(self, k):
        net = build_g2k(k)
        assert len(net.processors) == k + 2

    @pytest.mark.parametrize("k", K_RANGE)
    def test_distinguished_nodes(self, k):
        net = build_g2k(k)
        a, b = net.meta["a"], net.meta["b"]
        assert a in net.I and a not in net.O
        assert b in net.O and b not in net.I
        # every other processor carries both kinds
        for p in net.processors - {a, b}:
            assert p in net.I and p in net.O

    @pytest.mark.parametrize("k", K_RANGE)
    def test_degree_optimal_k_plus_3(self, k):
        net = build_g2k(k)
        assert net.max_processor_degree() == k + 3 == degree_lower_bound(2, k)

    @pytest.mark.parametrize("k", K_RANGE)
    def test_a_b_have_lower_degree(self, k):
        net = build_g2k(k)
        assert net.graph.degree(net.meta["a"]) == k + 2
        assert net.graph.degree(net.meta["b"]) == k + 2


class TestG2kGracefulDegradability:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exhaustive_proof(self, k):
        cert = verify_exhaustive(build_g2k(k))
        assert cert.is_proof

    def test_partition_tightness(self):
        # the Lemma 3.9 proof partitions into k+2 parts; killing one node
        # in each of k parts must still leave a pipeline
        net = build_g2k(2)
        cert = verify_exhaustive(net, sizes=[2])
        # size 2 alone: every set tolerated, but no proof of any budget
        assert cert.ok and not cert.undecided
