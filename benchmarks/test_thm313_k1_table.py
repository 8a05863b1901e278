"""T313 — Theorem 3.13: degree-optimal solutions for ``k = 1`` and every
``n``: degree ``k+2 = 3`` for odd ``n``, ``k+3 = 4`` for even ``n``.

Regenerates the theorem's degree table over ``n = 1..40``, asserting the
parity pattern and optimality row by row; each ``n <= 10`` instance is
additionally proven 1-GD exhaustively.
"""

from repro.analysis.tables import degree_table, theorem_degree_claims
from repro.core.constructions import build
from repro.core.verify import verify_exhaustive_parallel

N_RANGE = range(1, 41)


def test_thm313_degree_table(benchmark, artifact):
    rows, rendered = benchmark(lambda: degree_table(1, N_RANGE))

    artifact("Theorem 3.13 (k = 1) degree table, n = 1..40:")
    artifact(rendered)
    assert len(rows) == 40
    for row in rows:
        want = 3 if row.n % 2 == 1 else 4
        assert row.max_degree == want == theorem_degree_claims(row.n, 1)
        assert row.optimal

    for n in range(1, 11):
        cert = verify_exhaustive_parallel(build(n, 1))
        assert cert.is_proof, n
    artifact("exhaustive 1-GD proofs for n = 1..10: all pass")
