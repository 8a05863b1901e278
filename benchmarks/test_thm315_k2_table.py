"""T315 — Theorem 3.15: degree-optimal solutions for ``k = 2`` and every
``n``: degree ``k+3 = 5`` exactly for ``n in {2, 3, 5}`` (Lemmas 3.9,
3.11, 3.14), degree ``k+2 = 4`` for every other ``n``.

Regenerates the degree table over ``n = 1..40`` and proves the
``n <= 9`` instances 2-GD exhaustively.
"""

from repro.analysis.tables import degree_table, theorem_degree_claims
from repro.core.constructions import build
from repro.core.verify import verify_exhaustive_parallel

N_RANGE = range(1, 41)


def test_thm315_degree_table(benchmark, artifact):
    rows, rendered = benchmark(lambda: degree_table(2, N_RANGE))

    artifact("Theorem 3.15 (k = 2) degree table, n = 1..40:")
    artifact(rendered)
    assert len(rows) == 40
    for row in rows:
        want = 5 if row.n in (2, 3, 5) else 4
        assert row.max_degree == want == theorem_degree_claims(row.n, 2)
        assert row.optimal

    # the exception set is exact: 5 only where the paper's lemmas force it
    exceptional = [r.n for r in rows if r.max_degree == 5]
    assert exceptional == [2, 3, 5]

    for n in range(1, 10):
        cert = verify_exhaustive_parallel(build(n, 2))
        assert cert.is_proof, n
    artifact("exhaustive 2-GD proofs for n = 1..9: all pass")
