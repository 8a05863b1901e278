"""Tests for the warm-started verification engine: revolving-door
enumeration, witness adaptation, the incremental instance builder, and
cold/warm/parallel certificate equivalence."""

from math import comb

import networkx as nx
import pytest

from repro.core.constructions import build, build_special
from repro.core.hamilton import (
    IncrementalInstanceBuilder,
    SolvePolicy,
    SpanningPathInstance,
    Status,
    solve,
)
from repro.core.model import PipelineNetwork
from repro.core.repair import adapt_witness, splice_in_bit, splice_out_bit
from repro.core.verify import (
    iter_fault_sets,
    iter_fault_sets_gray,
    orbit_representatives,
    verify_exhaustive,
    verify_exhaustive_parallel,
    verify_exhaustive_warm,
)
from repro.core.verify.symmetry import enumerate_group
from repro.core.verify.warm import WitnessSweeper


def broken_network():
    """NOT 1-gracefully-degradable: p0 is a cut vertex for the inputs."""
    g = nx.Graph(
        [("i0", "p0"), ("i1", "p0"), ("p0", "p1"), ("p1", "p2"),
         ("p2", "o0"), ("p2", "o1")]
    )
    return PipelineNetwork(g, ["i0", "i1"], ["o0", "o1"], n=2, k=1)


SPECIALS = [(6, 2), (8, 2), (4, 3), (7, 3)]
#: every special under both parallel paths: the Gray-range default keeps
#: the bare "n-k" ids, the opt-in orbit item path gets an "-auto" suffix
PARALLEL_SPECIALS = [
    pytest.param(n, k, symmetry, id=f"{n}-{k}" + ("-auto" if symmetry else ""))
    for symmetry in (False, "auto")
    for n, k in SPECIALS
]


class TestRevolvingDoor:
    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (8, 4), (4, 4)])
    def test_exact_binomial_counts_per_size(self, n, k):
        nodes = [f"v{i}" for i in range(n)]
        by_size: dict[int, list] = {}
        for fs in iter_fault_sets_gray(nodes, k):
            by_size.setdefault(len(fs), []).append(fs)
        for j in range(k + 1):
            sets = by_size.get(j, [])
            assert len(sets) == comb(n, j), f"size {j}"
            assert len(set(sets)) == len(sets)  # no duplicates

    @pytest.mark.parametrize("n,j", [(6, 2), (7, 3), (8, 4), (9, 1)])
    def test_single_swap_deltas_within_size(self, n, j):
        nodes = list(range(n))
        sets = [
            frozenset(fs)
            for fs in iter_fault_sets_gray(nodes, j, sizes=[j])
        ]
        for a, b in zip(sets, sets[1:]):
            assert len(a ^ b) == 2, f"{sorted(a)} -> {sorted(b)}"

    def test_same_fault_sets_as_plain_enumeration(self):
        nodes = [f"v{i}" for i in range(7)]
        gray = {frozenset(fs) for fs in iter_fault_sets_gray(nodes, 3)}
        plain = {frozenset(fs) for fs in iter_fault_sets(nodes, 3)}
        assert gray == plain

    def test_sizes_ascending_and_tuples_sorted(self):
        sets = list(iter_fault_sets_gray(range(5), 2))
        lengths = [len(s) for s in sets]
        assert lengths == sorted(lengths)
        assert all(tuple(sorted(s, key=repr)) == s for s in sets)


class TestSpliceRepairs:
    # path graph 0-1-2-3 plus chord 0-2
    ADJ = [0b0110, 0b0101, 0b1011, 0b0100]

    def test_splice_out_bridge(self):
        # remove 1 from [0,1,2,3]: 0-2 chord bridges directly
        assert splice_out_bit([0, 1, 2, 3], 1, self.ADJ) == [0, 2, 3]

    def test_splice_out_endpoint(self):
        assert splice_out_bit([0, 1, 2, 3], 0, self.ADJ) == [1, 2, 3]
        assert splice_out_bit([0, 1, 2, 3], 3, self.ADJ) == [0, 1, 2]

    def test_splice_out_impossible(self):
        # removing 2 from [1,2,3] strands 3 (only neighbor is 2)
        assert splice_out_bit([1, 2, 3], 1, self.ADJ) is None

    def test_splice_in_interior(self):
        # 1 sits between 0 and 2
        assert splice_in_bit([0, 2, 3], 1, self.ADJ) == [0, 1, 2, 3]

    def test_splice_in_at_end(self):
        # 3's only neighbor is 2, 0 is not adjacent to 3: end insertions
        assert splice_in_bit([1, 2], 3, self.ADJ) == [1, 2, 3]
        assert splice_in_bit([2, 3], 0, self.ADJ) == [0, 2, 3]

    def test_adapt_witness_swap(self):
        # K4 on bits 0..3: any permutation is a path; swap 3 out, 0 in
        adj = [0b1110, 0b1101, 0b1011, 0b0111]
        full = 0b0111
        got = adapt_witness([1, 2, 3], adj, full, 0b1111, 0b1111)
        assert got is not None
        assert sorted(got) == [0, 1, 2]

    def test_adapt_witness_respects_attachment(self):
        # path 0-1-2, start attachment only at 0, end only at 2
        adj = [0b010, 0b101, 0b010]
        assert adapt_witness([2, 1, 0], adj, 0b111, 0b001, 0b100) == [0, 1, 2]
        assert adapt_witness([0, 1, 2], adj, 0b111, 0b010, 0b010) is None


class TestIncrementalBuilder:
    def test_matches_cold_instances(self):
        net = build_special(6, 2)
        builder = IncrementalInstanceBuilder(net)
        policy = SolvePolicy()
        for fs in iter_fault_sets_gray(net.graph.nodes, 2):
            inst, in_global = builder.instance(fs)
            cold = SpanningPathInstance(net.surviving(fs))
            assert solve(inst, policy).status is solve(cold, policy).status

    def test_global_space_survivor_counts(self):
        net = build(3, 2)
        builder = IncrementalInstanceBuilder(net)
        procs = sorted(net.processors, key=repr)
        inst, in_global = builder.instance((procs[0],))
        assert in_global
        assert inst.full.bit_count() == len(procs) - 1
        assert not inst.full >> builder.index[procs[0]] & 1


class TestWarmEquivalence:
    @pytest.mark.parametrize("n,k", SPECIALS)
    def test_specials_certificates_match_cold(self, n, k):
        net = build_special(n, k)
        cold = verify_exhaustive(net)
        warm = verify_exhaustive_warm(net)
        assert (warm.is_proof, warm.checked, warm.tolerated) == (
            cold.is_proof, cold.checked, cold.tolerated
        )
        # the tentpole claim: most fault sets never reach a solver
        assert warm.solver_calls < cold.solver_calls / 2

    @pytest.mark.parametrize("n,k,symmetry", PARALLEL_SPECIALS)
    def test_specials_certificates_match_parallel(self, n, k, symmetry):
        net = build_special(n, k)
        cold = verify_exhaustive(net)
        par = verify_exhaustive_parallel(net, workers=2, symmetry=symmetry)
        assert (par.is_proof, par.checked, par.tolerated) == (
            cold.is_proof, cold.checked, cold.tolerated
        )

    @pytest.mark.parametrize(
        "symmetry,path", [(False, "gray ranges"), ("auto", "orbit reps")]
    )
    def test_symmetric_network_takes_the_chosen_path(self, symmetry, path):
        # the specials' automorphism groups are trivial, so only a
        # symmetric build shows "auto" taking the orbit item path
        net = build(2, 2)
        cold = verify_exhaustive(net)
        par = verify_exhaustive_parallel(net, workers=2, symmetry=symmetry)
        assert path in par.network_description
        assert (par.is_proof, par.checked, par.tolerated) == (
            cold.is_proof, cold.checked, cold.tolerated
        )

    def test_broken_network_disproved_by_all_engines(self):
        net = broken_network()
        cold = verify_exhaustive(net)
        warm = verify_exhaustive_warm(net)
        par = verify_exhaustive_parallel(net, workers=2)
        assert not cold.ok and not warm.ok and not par.ok
        # every reported counterexample must be genuinely intolerable
        for cert in (cold, warm, par):
            inst = SpanningPathInstance(net.surviving(cert.counterexample))
            assert solve(inst, SolvePolicy()).status is not Status.FOUND

    def test_warm_full_scan_counts_intolerable(self):
        cold = verify_exhaustive(broken_network(), stop_on_counterexample=False)
        warm = verify_exhaustive_warm(
            broken_network(), stop_on_counterexample=False
        )
        assert (warm.checked, warm.tolerated) == (cold.checked, cold.tolerated)

    def test_warm_fault_universe_and_sizes(self):
        net = build(3, 2)
        cold = verify_exhaustive(
            net, fault_universe=sorted(net.processors, key=repr), sizes=[1, 2]
        )
        warm = verify_exhaustive_warm(
            net, fault_universe=sorted(net.processors, key=repr), sizes=[1, 2]
        )
        assert (warm.is_proof, warm.checked, warm.tolerated) == (
            cold.is_proof, cold.checked, cold.tolerated
        )

    def test_sweeper_counters_cover_every_set(self):
        net = build_special(4, 3)
        sweeper = WitnessSweeper(net)
        total = 0
        for fs in iter_fault_sets_gray(net.graph.nodes, 3):
            total += 1
            assert sweeper.decide(fs) is Status.FOUND
        assert (
            sweeper.adapted + sweeper.warm_heuristic + sweeper.solver_calls
            <= total
        )
        assert sweeper.adapted > 0


class TestOrbitRepresentatives:
    def test_multiplicities_sum_to_full_sweep(self):
        net = build(2, 2)
        group = enumerate_group(net, 5000)
        assert group is not None
        universe = list(net.graph.nodes)
        reps = orbit_representatives(universe, 2, group)
        full = sum(comb(len(universe), j) for j in range(3))
        assert sum(mult for _, mult in reps) == full
        assert len(reps) < full  # the reduction actually reduces

    def test_representatives_are_canonical_and_unique(self):
        net = build(2, 2)
        group = enumerate_group(net, 5000)
        reps = orbit_representatives(list(net.graph.nodes), 2, group)
        seen = {rep for rep, _ in reps}
        assert len(seen) == len(reps)


class TestParallelOptions:
    def test_progress_callback_reaches_total(self):
        net = build_special(6, 2)
        ticks: list[int] = []
        cert = verify_exhaustive_parallel(
            net, workers=2, progress=ticks.append
        )
        assert cert.is_proof
        assert ticks and ticks[-1] == cert.checked

    def test_fixed_chunk_cold_symmetry_off(self):
        # pinned chunks on a pool, checked against the cold reference
        net = build(3, 2)
        cert = verify_exhaustive_parallel(
            net, workers=2, chunk_size=8, symmetry=False
        )
        cold = verify_exhaustive(net)
        assert (cert.is_proof, cert.checked, cert.tolerated) == (
            cold.is_proof, cold.checked, cold.tolerated
        )

    def test_workers_one_falls_back_to_serial(self, monkeypatch):
        # workers=1 runs the chunks one after another in this process
        from repro.core.verify import parallel

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was forked")

        monkeypatch.setattr(parallel, "ShmWorkerPool", no_pool)
        net = build(2, 2)
        cert = verify_exhaustive_parallel(net, workers=1)
        assert cert.is_proof
        assert "[parallel x1:" in cert.network_description
