"""F2–F3 — Figures 2 and 3: the ``G(3,k)`` construction, even and odd
``n + k``.

Regenerates both figure variants (perfect matching removed when ``k``
is odd, Figure 2; trailing unmatched processor when ``k`` is even,
Figure 3), checks the degree claims, and proves k-graceful-degradability
exhaustively for every rendered instance.  The benchmarked operation is
the full build + exhaustive verification at k = 3.
"""

import pytest

from repro.analysis import network_summary
from repro.core.constructions import build_g3k
from repro.core.constructions.g3k import g3k_removed_matching
from repro.core.verify import verify_exhaustive_parallel


def test_fig02_03_g3k_constructions(benchmark, artifact):
    def build_and_prove():
        net = build_g3k(3)
        return net, verify_exhaustive_parallel(net)

    net, cert = benchmark(build_and_prove)
    assert cert.is_proof

    for k in range(1, 7):
        g = build_g3k(k)
        matching = g3k_removed_matching(k)
        covered = {v for p in matching for v in p}
        parity = "even (Figure 2: perfect matching)" if (k + 3) % 2 == 0 else \
                 "odd (Figure 3: last processor unmatched)"
        artifact(f"--- G(3,{k}), n+k = {k+3} {parity} ---")
        artifact(network_summary(g))
        if (k + 3) % 2 == 0:
            assert covered == set(range(k + 3))
        else:
            assert covered == set(range(k + 2))
        want = k + 2 if k == 1 else k + 3
        assert g.max_processor_degree() == want
        small = verify_exhaustive_parallel(g) if k <= 4 else None
        if small is not None:
            assert small.is_proof
            artifact(f"exhaustive 3.12 check: {small.summary()}")
