"""Tests for symmetry-reduced verification (the engine's orbit path),
heterogeneous runtime, and the DCT kernel."""

import numpy as np
import pytest

from repro import build, build_g1k, build_g2k, build_g3k
from repro.core.verify import verify_exhaustive, verify_exhaustive_parallel
from repro.core.verify.symmetry import canonical_fault_set, enumerate_group
from repro.errors import InvalidParameterError
from repro.simulator import GracefulPipelineRuntime, ct_reconstruction_chain
from repro.simulator.faults import scheduled_faults
from repro.simulator.stages import BlockDCT, Quantizer
from repro.simulator.workloads import ct_phantom


def reduced_sweep(net, **kwargs):
    return verify_exhaustive_parallel(net, symmetry=True, workers=1, **kwargs)


class TestSymmetryReduction:
    @pytest.mark.parametrize(
        "factory,k",
        [(build_g1k, 2), (build_g1k, 3), (build_g2k, 2), (build_g3k, 2)],
    )
    def test_matches_plain_sweep(self, factory, k):
        net = factory(k)
        plain = verify_exhaustive(net)
        reduced = reduced_sweep(net)
        # multiplicity-weighted totals: the full sweep's counts
        assert reduced.checked == plain.checked
        assert reduced.tolerated == plain.tolerated
        assert reduced.is_proof == plain.is_proof

    def test_fewer_solver_calls_on_symmetric_graph(self):
        net = build_g1k(3)  # |Aut| = 24
        cert = reduced_sweep(net)
        # the orbit representative count is embedded in the description
        reps = int(cert.network_description.split("x1: ")[1].split()[0])
        assert cert.solver_calls <= reps < cert.checked / 3

    def test_group_enumeration(self):
        group = enumerate_group(build_g1k(2))
        assert len(group) == 6

    def test_group_cap(self):
        assert enumerate_group(build_g1k(3), cap=5) is None
        with pytest.raises(InvalidParameterError):
            reduced_sweep(build_g1k(3), group_cap=5)

    def test_canonicalization_idempotent(self):
        net = build_g1k(2)
        group = enumerate_group(net)
        fs = ("p2", "i1")
        canon = canonical_fault_set(fs, group)
        assert canonical_fault_set(canon, group) == canon

    def test_canonical_sets_equivalent_tolerance(self):
        from repro.core.hamilton import has_pipeline

        net = build_g2k(2)
        group = enumerate_group(net)
        for fs in [("p2", "o2"), ("p3", "i3"), ("p0", "p1")]:
            canon = canonical_fault_set(fs, group)
            assert has_pipeline(net, fs) == has_pipeline(net, canon)

    def test_detects_broken_network(self):
        import networkx as nx

        from repro.core.model import PipelineNetwork

        g = nx.Graph(
            [("i0", "p0"), ("i1", "p0"), ("p0", "p1"), ("p1", "p2"),
             ("p2", "o0"), ("p2", "o1")]
        )
        net = PipelineNetwork(g, ["i0", "i1"], ["o0", "o1"], n=2, k=1)
        cert = reduced_sweep(net)
        assert not cert.ok


class TestHeterogeneousRuntime:
    def test_faster_processors_raise_throughput(self):
        net = build(8, 2)
        chain = ct_reconstruction_chain()
        hom = GracefulPipelineRuntime(net.copy(), chain)
        fast_map = {p: 3.0 for p in net.processors}
        het = GracefulPipelineRuntime(net.copy(), chain, speed_map=fast_map)
        assert het.throughput() == pytest.approx(3.0 * hom.throughput())

    def test_uniform_map_equals_homogeneous(self):
        net = build(6, 2)
        chain = ct_reconstruction_chain()
        hom = GracefulPipelineRuntime(net.copy(), chain)
        het = GracefulPipelineRuntime(
            net.copy(), chain, speed_map={p: 1.0 for p in net.processors}
        )
        assert het.throughput() == pytest.approx(hom.throughput())

    def test_reassignment_respects_speeds_after_fault(self):
        net = build(6, 2)
        smap = {p: 1.0 for p in net.processors}
        smap["p0"] = 4.0
        rt = GracefulPipelineRuntime(
            net, ct_reconstruction_chain(), speed_map=smap
        )
        res = rt.run(scheduled_faults([(5.0, "p0")]), horizon=20.0)
        assert res.survived
        # after losing the fast node, the assignment covers 7 stages
        assert len(rt.assignment.speeds) == 7

    def test_missing_nodes_default_speed(self):
        net = build(6, 2)
        rt = GracefulPipelineRuntime(
            net, ct_reconstruction_chain(), speed=2.0, speed_map={"p0": 2.0}
        )
        assert all(sp == 2.0 for sp in rt.assignment.speeds)


class TestBlockDCT:
    def test_roundtrip(self):
        img = ct_phantom(32, seed=3)
        dct = BlockDCT(8)
        coeffs = dct.apply(img)
        back = dct.invert(coeffs, img.shape)
        assert np.allclose(back, img, atol=1e-10)

    def test_pads_non_multiple(self):
        img = ct_phantom(30, seed=1)  # 30 not a multiple of 8
        coeffs = BlockDCT(8).apply(img)
        assert coeffs.shape == (32, 32)

    def test_energy_preserved(self):
        # orthonormal transform: Parseval
        img = ct_phantom(32, seed=2)
        coeffs = BlockDCT(8).apply(img)
        assert np.sum(coeffs**2) == pytest.approx(np.sum(img**2))

    def test_energy_compaction(self):
        # most energy lands in few coefficients — the codec rationale
        img = ct_phantom(32, seed=4)
        coeffs = np.abs(BlockDCT(8).apply(img)).ravel()
        coeffs.sort()
        top = coeffs[-len(coeffs) // 10 :]
        assert np.sum(top**2) > 0.9 * np.sum(coeffs**2)

    def test_composes_with_quantizer(self):
        img = ct_phantom(32, seed=5)
        out = Quantizer(32).apply(BlockDCT(8).apply(img))
        assert out.dtype == int

    def test_bad_block(self):
        with pytest.raises(InvalidParameterError):
            BlockDCT(1)

    def test_non_2d_rejected(self):
        with pytest.raises(InvalidParameterError):
            BlockDCT(8).apply(np.zeros(16))
