"""Tests for the witness kernel and the sweep that drives it: Gray-code
rank addressing, witness-kernel soundness, the vectorized tier against
its scalar oracle, in-process/warm certificate equivalence, and
dispatch."""

from math import comb

import networkx as nx
import numpy as np
import pytest

from repro.core.constructions import build, build_special
from repro.core.hamilton import (
    IncrementalInstanceBuilder,
    SolvePolicy,
    SpanningPathInstance,
    solve,
)
from repro.core.model import PipelineNetwork
from repro.core.verify import (
    gray_unrank,
    iter_gray_indices,
    verify_exhaustive,
    verify_exhaustive_parallel,
    verify_exhaustive_warm,
)
from repro.core.verify import batch, parallel
from repro.core.verify.batch import WitnessKernel, gray_index_array
from repro.core.verify.bench import _big_ring, _kernel_accepted
from repro.core.verify.exhaustive import _revolving
from repro.core.verify.warm import WitnessSweeper


def broken_network():
    """NOT 1-gracefully-degradable: p0 is a cut vertex for the inputs."""
    g = nx.Graph(
        [("i0", "p0"), ("i1", "p0"), ("p0", "p1"), ("p1", "p2"),
         ("p2", "o0"), ("p2", "o1")]
    )
    return PipelineNetwork(g, ["i0", "i1"], ["o0", "o1"], n=2, k=1)


def seed_kernel(net):
    """A kernel holding one solved fault-free witness: general only."""
    universe = sorted(net.graph.nodes, key=repr)
    kern = WitnessKernel(net, universe, net.k)
    inst = SpanningPathInstance(net.surviving())
    report = solve(inst, SolvePolicy())
    index = {p: i for i, p in enumerate(sorted(net.processors, key=repr))}
    assert kern.add_witness([index[p] for p in report.path[1:-1]])
    return kern, universe


def grown_kernel(net):
    """The kernel of an in-process chunk worker after it has swept
    every rank of every size up to k, seeded like
    ``verify_exhaustive_parallel`` seeds it: its residue solves grow the
    conditional witnesses."""
    universe = sorted(net.graph.nodes, key=repr)
    policy = SolvePolicy()
    sweeper = WitnessSweeper(net, policy)
    assert sweeper.decide(()).name == "FOUND"
    seed = WitnessKernel(net, universe, net.k)
    assert seed.add_witness(sweeper.prev_bits)
    seed.diversify(policy)
    witnesses = [list(w.bits) for w in seed.general]
    st = parallel._SweepWorker.init(
        0, (net, policy, None, None, universe, net.k, witnesses, None, True)
    )
    for j in range(1, net.k + 1):
        task = ("range", j, j, 0, comb(len(universe), j), 0)
        assert parallel._SweepWorker.run(st, task)[2] is None
    return st.kernel, universe


KERNELS = {
    "G(4,3)-seed": lambda: seed_kernel(build_special(4, 3)),
    "G(14,4)-grown": lambda: grown_kernel(build(14, 4)),
    "ring-C32(1,2,3)k2-grown": lambda: grown_kernel(_big_ring(32, 2, (1, 2, 3))),
}


def certs_agree(a, b):
    assert a.checked == b.checked
    assert a.tolerated == b.tolerated
    assert a.counterexample == b.counterexample
    assert a.undecided == b.undecided
    assert a.is_proof == b.is_proof


class TestGrayRankAddressing:
    @pytest.mark.parametrize("n,j", [(6, 2), (7, 3), (8, 4), (9, 1), (5, 5)])
    def test_unrank_matches_enumeration(self, n, j):
        expected = list(_revolving(n, j))
        assert len(expected) == comb(n, j)
        for rank, idxs in enumerate(expected):
            assert gray_unrank(n, j, rank) == tuple(idxs)

    @pytest.mark.parametrize("n,j,start,count", [
        (7, 3, 0, None), (7, 3, 10, 11), (8, 2, 27, 1), (6, 4, 5, 100),
    ])
    def test_iter_gray_indices_resumes_mid_stream(self, n, j, start, count):
        full = list(_revolving(n, j))
        stop = len(full) if count is None else min(len(full), start + count)
        expected = [tuple(x) for x in full[start:stop]]
        got = list(iter_gray_indices(n, j, start, count))
        assert got == expected

    @pytest.mark.parametrize("n,j", [(6, 2), (9, 3), (12, 3), (5, 1)])
    def test_gray_index_array_matches_generator(self, n, j):
        arr = gray_index_array(n, j)
        assert arr.shape == (comb(n, j), j)
        for row, idxs in zip(arr, _revolving(n, j)):
            assert list(row) == list(idxs)


class TestWitnessKernelSoundness:
    def test_every_accept_is_independently_tolerable(self):
        net = build_special(4, 3)
        kern, universe = seed_kernel(net)
        accepted = 0
        for j in range(net.k + 1):
            for idxs in iter_gray_indices(len(universe), j):
                if not kern.accept_row(list(idxs)):
                    continue
                accepted += 1
                fs = frozenset(universe[i] for i in idxs)
                inst = SpanningPathInstance(net.surviving(fs))
                assert solve(inst, SolvePolicy()).status.name == "FOUND", fs
        # the seed witness alone must decide the majority of the sweep
        assert accepted > 300

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_scalar_and_vector_tiers_agree_row_for_row(self, kernel, monkeypatch):
        kern, universe = KERNELS[kernel]()
        grown = kernel.endswith("-grown")
        # the grown kernels carry conditional witnesses; the ring's 64
        # terminals plus the outside bit need two bitset words
        assert (len(kern.conditional) > 0) == grown
        calls = {"general": 0, "conditional": 0}
        accept_pairs = kern._accept_pairs

        def counted(cols, alive, ri, wid):
            tier = "general" if np.ndim(wid) == 0 else "conditional"
            calls[tier] += 1
            return accept_pairs(cols, alive, ri, wid)

        monkeypatch.setattr(kern, "_accept_pairs", counted)
        for j in range(1, kern.k + 1):
            rows = gray_index_array(len(universe), j)
            # repeated until the batch spans more than one row block
            rows = np.tile(rows, (batch.ROW_BLOCK // len(rows) + 1, 1))
            mask = kern.accept_batch(rows)
            assert mask.tolist() == [kern.accept_row(r) for r in rows.tolist()]
            # a row is a set: its column order cannot change the verdict
            assert (kern.accept_batch(rows[:, ::-1]) == mask).all()
        assert calls["general"] >= 4 * kern.k
        assert (calls["conditional"] > 0) == grown

    def test_kernel_beyond_the_key_limit_keeps_no_conditional_witnesses(self):
        grown, universe = KERNELS["ring-C32(1,2,3)k2-grown"]()
        # sized for 10-sets over 96 nodes, its required-set keys would
        # overflow int64: conditional witnesses are refused
        wide = WitnessKernel(grown.network, universe, 10)
        assert (len(universe) + 1) ** wide.k >= batch.KEY_LIMIT
        for w in grown.general:
            assert wide.add_witness(w.bits)
        for w in grown.conditional:
            assert not wide.add_witness(w.bits)
        assert not wide.conditional
        for j in (1, 2):
            rows = gray_index_array(len(universe), j)
            mask = wide.accept_batch(rows)
            assert mask.tolist() == [wide.accept_row(r) for r in rows.tolist()]
            # sound: never more than the fully grown kernel accepts
            assert not (mask & ~grown.accept_batch(rows)).any()


class TestBatchedSweepEquivalence:
    @pytest.mark.parametrize("builder", [
        lambda: build(2, 2),
        lambda: build(3, 2),
        lambda: build_special(6, 2),
        lambda: build_special(4, 3),
    ])
    def test_matches_warm_certificate(self, builder):
        net = builder()
        warm = verify_exhaustive_warm(net)
        batched = verify_exhaustive_parallel(net, workers=1)
        certs_agree(warm, batched)
        assert batched.is_proof

    def test_broken_network_same_counterexample(self):
        warm = verify_exhaustive_warm(broken_network())
        batched = verify_exhaustive_parallel(broken_network(), workers=1)
        certs_agree(warm, batched)
        assert batched.counterexample is not None
        # rank-order accounting: the sweep stops at the same set
        assert batched.checked == warm.checked

    def test_fault_universe_and_sizes_respected(self):
        net = build_special(6, 2)
        warm = verify_exhaustive_warm(
            net, fault_universe=net.processors, sizes=[2]
        )
        batched = verify_exhaustive_parallel(
            net, workers=1, fault_universe=net.processors, sizes=[2]
        )
        certs_agree(warm, batched)
        assert batched.checked == comb(len(net.processors), 2)

    @pytest.mark.parametrize("builder,sizes", [
        (lambda: build(3, 2), [3]),
        (lambda: build(3, 2), [0, 1, 2, 3]),
        (lambda: build_special(4, 3), [4]),
    ], ids=["G(3,2)-3", "G(3,2)-0123", "G(4,3)-4"])
    @pytest.mark.parametrize("stop", [True, False], ids=["stop", "full"])
    def test_sizes_above_k_match_the_warm_sweep(self, builder, sizes, stop):
        # the kernel is sized for the widest swept set, not for k
        net = builder()
        warm = verify_exhaustive_warm(
            net, sizes=sizes, stop_on_counterexample=stop
        )
        cert = verify_exhaustive_parallel(
            net, sizes=sizes, workers=1, stop_on_counterexample=stop
        )
        certs_agree(warm, cert)
        assert cert.counterexample is not None

    def test_small_batch_rows_change_nothing(self):
        net = build_special(6, 2)
        a = verify_exhaustive_parallel(net, workers=1)
        b = verify_exhaustive_parallel(net, workers=1, chunk_size=7)
        certs_agree(a, b)
        assert a.solver_calls == b.solver_calls

    @pytest.mark.parametrize("options", [
        {"workers": 1},
        {"workers": 2, "chunk_size": 4},
    ], ids=["in-process", "pool"])
    def test_full_scan_counts_match_the_cold_sweep(self, options):
        # without stopping, every set of every chunk is decided: the
        # totals are the cold sweep's, not a chunk cut at its first
        # counterexample
        net = broken_network()
        cold = verify_exhaustive(net, k=2, stop_on_counterexample=False)
        cert = verify_exhaustive_parallel(
            net, k=2, stop_on_counterexample=False, **options
        )
        assert (cold.checked, cold.tolerated) == (29, 9)
        assert (cert.checked, cert.tolerated) == (cold.checked, cold.tolerated)
        assert cert.counterexample is not None


class TestDispatchFallback:
    def _forbid_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was forked")

        monkeypatch.setattr(parallel, "ShmWorkerPool", no_pool)

    def test_small_sweep_takes_the_kernel_path(self, monkeypatch):
        self._forbid_pool(monkeypatch)
        cert = verify_exhaustive_parallel(build(2, 2))
        assert cert.is_proof
        assert "[parallel x1:" in cert.network_description
        assert _kernel_accepted(cert) > 0

    def test_mid_sweep_routes_to_batch_kernel(self, monkeypatch):
        self._forbid_pool(monkeypatch)
        cert = verify_exhaustive_parallel(build_special(4, 3))
        assert "[parallel x1:" in cert.network_description
        assert _kernel_accepted(cert) > 0
        assert cert.is_proof

    def test_one_usable_cpu_forks_no_pool(self, monkeypatch):
        self._forbid_pool(monkeypatch)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        net = _big_ring(32, 2, (1, 2, 3))
        cert = verify_exhaustive_parallel(net)
        assert cert.is_proof
        assert cert.checked >= parallel.POOL_MIN_SETS
        assert "[parallel x1:" in cert.network_description
