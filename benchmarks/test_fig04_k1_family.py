"""F4 — Figure 4: the ``k = 1`` solutions for ``n = 1, 2, 3``.

Regenerates all three graphs, checks the paper's note that applying
Lemma 3.6 to ``G(1,1)`` yields ``G(3,1)``, and proves each graph
1-gracefully-degradable exhaustively.
"""

from repro.analysis import network_summary
from repro.core.constructions import build_g1k, build_g2k, build_g3k, extend
from repro.core.verify import verify_exhaustive_parallel
from repro.graphs.isomorphism import labeled_isomorphic


def test_fig04_k1_family(benchmark, artifact):
    def build_all_and_prove():
        nets = [build_g1k(1), build_g2k(1), build_g3k(1)]
        certs = [verify_exhaustive_parallel(net) for net in nets]
        return nets, certs

    nets, certs = benchmark(build_all_and_prove)

    expected_degrees = [3, 4, 3]
    for net, cert, deg in zip(nets, certs, expected_degrees):
        assert cert.is_proof
        assert net.max_processor_degree() == deg
        artifact(f"--- Figure 4, n={net.n}, k=1 ---")
        artifact(network_summary(net))
        artifact(cert.summary())

    # the paper: "applying Lemma 3.6 to G(1,1) gives a graph G(3,1)"
    via_ext = extend(build_g1k(1))
    direct = build_g3k(1)
    assert labeled_isomorphic(
        via_ext.graph, via_ext.inputs, via_ext.outputs,
        direct.graph, direct.inputs, direct.outputs,
    )
    artifact("extend(G(1,1)) is label-isomorphic to G(3,1): confirmed")
