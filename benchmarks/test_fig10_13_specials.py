"""F10–F13 — Figures 10–13: the special solutions ``G(6,2)``,
``G(8,2)``, ``G(7,3)``, ``G(4,3)``.

Regenerates the paper's own standard of evidence: exhaustive fault
verification of each special, plus the degree-optimality facts the
theorems cite (``k+2`` for the three Corollary-3.3 cases, ``k+3`` for
``G(4,3)`` by Lemma 3.5).  The benchmarked operation is the full
verification sweep over all four graphs — 106 + 137 + 988 + 576 = 1807
exact pipeline-existence decisions.
"""

from repro.analysis import network_summary
from repro.core.bounds import degree_lower_bound
from repro.core.constructions import SPECIAL_PARAMETERS, build_special
from repro.core.verify import verify_exhaustive_parallel

EXPECTED_CHECKS = {(6, 2): 106, (8, 2): 137, (7, 3): 988, (4, 3): 576}


def test_fig10_13_special_solutions(benchmark, artifact):
    def verify_all():
        return {
            (n, k): verify_exhaustive_parallel(build_special(n, k))
            for (n, k) in SPECIAL_PARAMETERS
        }

    certs = benchmark(verify_all)

    figure = {(6, 2): "Figure 10", (8, 2): "Figure 11",
              (7, 3): "Figure 12", (4, 3): "Figure 13"}
    for (n, k), cert in sorted(certs.items()):
        net = build_special(n, k)
        assert cert.is_proof, (n, k)
        assert cert.checked == EXPECTED_CHECKS[(n, k)]
        assert net.max_processor_degree() == degree_lower_bound(n, k)
        artifact(f"--- {figure[(n, k)]}: G({n},{k}) ---")
        artifact(network_summary(net))
        artifact(cert.summary())
