"""T317 — Theorem 3.17: the Section 3.4 construction is
k-gracefully-degradable for ``k >= 4`` and ``n`` sufficiently large
(linear in ``k``).

The paper's proof is in the (unavailable) tech report; the reproduction
is evidence by verification: for a (k, n) sweep starting at this
implementation's structural floor, every instance passes an adversarial
sampled check, and the smallest instance for k = 4 and k = 5 is
machine-proved: an exhaustive sweep over every fault set of size <= k.
Node- and degree-optimality are asserted throughout.
"""

from math import comb

from repro.analysis import format_table
from repro.core.bounds import degree_lower_bound
from repro.core.constructions import build_asymptotic, minimum_asymptotic_n
from repro.core.verify import verify_exhaustive_parallel, verify_sampled

SWEEP = [
    (k, n)
    for k in (4, 5, 6, 7)
    for n in (
        minimum_asymptotic_n(k),
        minimum_asymptotic_n(k) + 1,
        minimum_asymptotic_n(k) + 7,
        3 * k + 10,
    )
]


def test_thm317_sampled_sweep(benchmark, artifact):
    def sweep():
        out = []
        for k, n in SWEEP:
            net = build_asymptotic(n, k)
            cert = verify_sampled(net, trials=90, rng=17)
            out.append((k, n, net, cert))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = []
    for k, n, net, cert in results:
        assert net.is_standard()
        assert net.max_processor_degree() == degree_lower_bound(n, k)
        assert cert.ok, cert.summary()
        rows.append(
            [k, n, len(net), net.max_processor_degree(), cert.checked, "ok"]
        )
    artifact("Theorem 3.17 adversarial verification sweep:")
    artifact(
        format_table(["k", "n", "|V|", "max deg", "fault sets", "verdict"], rows)
    )

    # machine proof at full k on the smallest instance for k = 4, 5
    for k in (4, 5):
        net = build_asymptotic(minimum_asymptotic_n(k), k)
        cert = verify_exhaustive_parallel(net)
        assert cert.is_proof and cert.k == k, cert.summary()
        assert cert.checked == sum(comb(len(net), j) for j in range(k + 1))
        artifact(f"exhaustive |F|<={k} sweep, n={net.n}: {cert.summary()}")
