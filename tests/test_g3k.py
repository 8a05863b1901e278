"""Tests for the G(3,k) construction (Figures 2-3, Lemma 3.12)."""

import pytest

from repro.core.bounds import degree_lower_bound
from repro.core.constructions import build_g3k
from repro.core.constructions.g3k import (
    g3k_input_indices,
    g3k_output_indices,
    g3k_removed_matching,
)
from repro.core.verify import verify_exhaustive
from repro.graphs.degrees import degree_histogram

K_RANGE = [1, 2, 3, 4, 5]


class TestIndices:
    def test_input_indices_paper_set(self):
        # Ti = {i0..i_{k-2}, i_k, i_{k+2}}
        assert g3k_input_indices(4) == [0, 1, 2, 4, 6]
        assert g3k_input_indices(1) == [1, 3]

    def test_output_indices_paper_set(self):
        # To = {o0..o_{k-1}, o_{k+1}}
        assert g3k_output_indices(4) == [0, 1, 2, 3, 5]
        assert g3k_output_indices(1) == [0, 2]

    @pytest.mark.parametrize("k", K_RANGE)
    def test_sizes(self, k):
        assert len(g3k_input_indices(k)) == k + 1
        assert len(g3k_output_indices(k)) == k + 1

    @pytest.mark.parametrize("k", K_RANGE)
    def test_missing_indices(self, k):
        # i_{k-1}, o_k, i_{k+1}, o_{k+2} are deliberately absent
        assert k - 1 not in g3k_input_indices(k)
        assert k + 1 not in g3k_input_indices(k)
        assert k not in g3k_output_indices(k)
        assert k + 2 not in g3k_output_indices(k)


class TestMatching:
    @pytest.mark.parametrize("k", K_RANGE)
    def test_matching_within_range(self, k):
        for a, b in g3k_removed_matching(k):
            assert 0 <= a < b <= k + 2
            assert b == a + 1 and a % 2 == 0

    def test_parity_even_total(self):
        # k odd -> k+3 even -> perfect matching (Figure 2)
        pairs = g3k_removed_matching(3)  # 6 processors
        covered = {v for p in pairs for v in p}
        assert covered == set(range(6))

    def test_parity_odd_total(self):
        # k even -> k+3 odd -> last processor unmatched (Figure 3)
        pairs = g3k_removed_matching(2)  # 5 processors
        covered = {v for p in pairs for v in p}
        assert covered == set(range(4))
        assert 4 not in covered


class TestStructure:
    @pytest.mark.parametrize("k", K_RANGE)
    def test_standard(self, k):
        assert build_g3k(k).is_standard()

    @pytest.mark.parametrize("k", K_RANGE)
    def test_removed_edges_absent(self, k):
        net = build_g3k(k)
        for a, b in net.meta["removed_matching"]:
            assert not net.graph.has_edge(a, b)

    @pytest.mark.parametrize("k", K_RANGE)
    def test_other_clique_edges_present(self, k):
        net = build_g3k(k)
        removed = {frozenset(e) for e in net.meta["removed_matching"]}
        procs = sorted(net.processors, key=lambda p: int(p[1:]))
        for i, a in enumerate(procs):
            for b in procs[i + 1 :]:
                if frozenset((a, b)) not in removed:
                    assert net.graph.has_edge(a, b), (a, b)

    def test_degree_k1_is_k_plus_2(self):
        net = build_g3k(1)
        assert net.max_processor_degree() == 3 == degree_lower_bound(3, 1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_degree_k_ge_2_is_k_plus_3(self, k):
        net = build_g3k(k)
        assert net.max_processor_degree() == k + 3 == degree_lower_bound(3, k)

    def test_k1_is_four_cycle(self):
        # G(3,1)'s processor subgraph is K4 minus a perfect matching = C4
        import networkx as nx

        net = build_g3k(1)
        sub = net.processor_subgraph()
        assert nx.is_isomorphic(sub, nx.cycle_graph(4))

    @pytest.mark.parametrize("k", K_RANGE)
    def test_min_processor_neighbors(self, k):
        # Lemma 3.4: every processor keeps >= k+1 processor neighbors
        net = build_g3k(k)
        procs = net.processors
        for p in procs:
            pn = sum(1 for u in net.graph.neighbors(p) if u in procs)
            assert pn >= k + 1


class TestGracefulDegradability:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_exhaustive_proof(self, k):
        cert = verify_exhaustive(build_g3k(k))
        assert cert.is_proof, cert.summary()

    def test_double_terminal_attack(self):
        # kill both terminals of a double-terminal processor: it becomes
        # interior-only, which the matching must accommodate
        net = build_g3k(3)
        cert = verify_exhaustive(net, sizes=[2])
        # size 2 alone: every set tolerated, but no proof of any budget
        assert cert.ok and not cert.undecided
