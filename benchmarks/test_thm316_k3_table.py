"""T316 — Theorem 3.16: degree-optimal solutions for ``k = 3`` and every
``n``: degree ``k+2 = 5`` for odd ``n`` (except ``n = 3``, where
Lemma 3.11 forces ``k+3``), degree ``k+3 = 6`` for even ``n``
(Lemma 3.5 parity bound).

Regenerates the degree table over ``n = 1..40`` and proves the
``n <= 7`` instances 3-GD exhaustively.
"""

from repro.analysis.tables import degree_table, theorem_degree_claims
from repro.core.constructions import build
from repro.core.verify import verify_exhaustive_parallel

N_RANGE = range(1, 41)


def test_thm316_degree_table(benchmark, artifact):
    rows, rendered = benchmark(lambda: degree_table(3, N_RANGE))

    artifact("Theorem 3.16 (k = 3) degree table, n = 1..40:")
    artifact(rendered)
    assert len(rows) == 40
    for row in rows:
        want = 5 if (row.n % 2 == 1 and row.n != 3) else 6
        assert row.max_degree == want == theorem_degree_claims(row.n, 3)
        assert row.optimal

    for n in range(1, 8):
        cert = verify_exhaustive_parallel(build(n, 3))
        assert cert.is_proof, n
    artifact("exhaustive 3-GD proofs for n = 1..7: all pass")
