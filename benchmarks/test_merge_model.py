"""MRG — the merged-terminal model (Section 3).

The paper: merging ``Ti`` into one node ``i`` and ``To`` into ``o``
adapts every construction to the fault-free-terminal model, with the
merged terminal reaching the minimum possible degree ``k + 1``.

Regenerates the transformation across construction families, asserting
the degree claim and re-proving graceful degradability under
processor-only faults.
"""

from repro.analysis import format_table
from repro.core.bounds import merged_terminal_degree_bound
from repro.core.constructions import build, merge_terminals
from repro.core.verify import verify_exhaustive_parallel

CASES = [(1, 2), (2, 2), (3, 2), (6, 2), (4, 3), (9, 2)]


def test_merged_model(benchmark, artifact):
    def merge_and_prove():
        out = {}
        for n, k in CASES:
            merged = merge_terminals(build(n, k))
            cert = verify_exhaustive_parallel(merged, fault_universe=merged.processors)
            out[(n, k)] = (merged, cert)
        return out

    results = benchmark.pedantic(merge_and_prove, rounds=1, iterations=1)

    rows = []
    for (n, k), (merged, cert) in sorted(results.items()):
        din = merged.graph.degree("INPUT")
        dout = merged.graph.degree("OUTPUT")
        assert din == dout == k + 1 == merged_terminal_degree_bound(k)
        assert cert.is_proof, (n, k)
        rows.append([n, k, din, cert.checked, "proof"])
    artifact("Merged fault-free-terminal model:")
    artifact(
        format_table(
            ["n", "k", "terminal degree (= k+1 minimum)", "fault sets", "verdict"],
            rows,
        )
    )
