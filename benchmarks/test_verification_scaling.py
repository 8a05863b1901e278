"""VRF — verification cost scaling.

Quantifies the paper's implicit methodology ("exhaustively verified by
computer checking"): how exhaustive-verification cost scales with the
fault budget and instance size, and how far sampled+adversarial
verification stretches beyond it.  Shape claim: exhaustive cost follows
``sum_j C(|V|, j)``; per-query solve time stays roughly flat thanks to
the portfolio solver.
"""

import math
import time

from repro.analysis import format_table
from repro.core.constructions import build
from repro.core.verify import verify_exhaustive_parallel, verify_sampled

EXHAUSTIVE_CASES = [(3, 1), (6, 2), (4, 3), (7, 3)]
SAMPLED_CASES = [(22, 4), (40, 4), (26, 5), (30, 6)]


def test_verification_scaling(benchmark, artifact):
    net62 = build(6, 2)
    cert = benchmark(lambda: verify_exhaustive_parallel(net62))
    assert cert.is_proof

    rows = []
    for n, k in EXHAUSTIVE_CASES:
        net = build(n, k)
        t0 = time.perf_counter()
        c = verify_exhaustive_parallel(net)
        dt = time.perf_counter() - t0
        v = len(net)
        expected = sum(math.comb(v, j) for j in range(k + 1))
        assert c.is_proof and c.checked == expected
        rows.append(
            [f"G({n},{k})", v, k, c.checked, f"{dt*1e3:.0f} ms",
             f"{dt/c.checked*1e6:.0f} us/set"]
        )
    artifact("Exhaustive verification cost (machine proofs):")
    artifact(
        format_table(
            ["instance", "|V|", "k", "fault sets", "total", "per set"], rows
        )
    )

    rows2 = []
    for n, k in SAMPLED_CASES:
        net = build(n, k)
        t0 = time.perf_counter()
        c = verify_sampled(net, trials=80, rng=5)
        dt = time.perf_counter() - t0
        assert c.ok, c.summary()
        rows2.append(
            [f"G({n},{k})", len(net), k, c.checked, len(c.undecided),
             f"{dt*1e3:.0f} ms"]
        )
    artifact("")
    artifact("Sampled adversarial verification (beyond exhaustible sizes):")
    artifact(
        format_table(
            ["instance", "|V|", "k", "distinct sets", "undecided", "total"],
            rows2,
        )
    )
