"""C38 — Corollary 3.8: for every ``k`` and every ``l >= 0`` there is a
degree-optimal solution with degree ``k + 2`` for
``n = (k+1) * l + 1``.

Regenerates the family over a (k, l) grid, asserting degree exactly
``k + 2`` (strictly below the ``k + 3`` the asymptotic construction
needs when ``n`` is even and ``k`` odd — which cannot happen here since
``(k+1) * l + 1`` is odd whenever ``k`` is odd).
"""

from repro.analysis import format_table
from repro.core.constructions import build, construction_plan
from repro.core.verify import verify_exhaustive_parallel, verify_sampled

GRID = [(k, l) for k in (1, 2, 3, 4, 5, 6) for l in (0, 1, 2, 3)]


def test_cor38_family(benchmark, artifact):
    def build_family():
        return {
            (k, l): build((k + 1) * l + 1, k) for (k, l) in GRID
        }

    nets = benchmark.pedantic(build_family, rounds=1, iterations=1)

    rows = []
    for (k, l), net in sorted(nets.items()):
        n = (k + 1) * l + 1
        plan = construction_plan(n, k)
        if n > 3:
            assert plan.base == "g1k" and plan.extensions == l
        # (n <= 3 is served by the dedicated small-n constructions, which
        # are isomorphic to the Corollary 3.8 chain at the same degree)
        assert net.is_standard()
        assert net.max_processor_degree() == k + 2
        rows.append([k, l, n, net.max_processor_degree()])
    artifact("Corollary 3.8 family n = (k+1)l + 1, degree k+2 throughout:")
    artifact(format_table(["k", "l", "n", "max degree"], rows))

    # verification layer: exhaustive where cheap, sampled otherwise
    assert verify_exhaustive_parallel(nets[(2, 2)]).is_proof
    assert verify_exhaustive_parallel(nets[(3, 1)]).is_proof
    assert verify_sampled(nets[(5, 3)], trials=80, rng=3).ok
    artifact("k-GD checks: exhaustive (k=2,l=2), (k=3,l=1); sampled (k=5,l=3) — all pass")
