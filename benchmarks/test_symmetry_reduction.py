"""SYM — symmetry-reduced verification (methodology).

The constructions' automorphism groups (e.g. ``(k+1)!`` for ``G(1,k)``)
let the exhaustive sweep check one representative per fault-set orbit.
This harness runs the engine's opt-in orbit path
(``verify_exhaustive_parallel(..., symmetry=True)``), reports the orbit
representatives it decided per fault set, and asserts the certificates
match the default Gray-range sweep exactly.
"""

from repro.analysis import format_table
from repro.core.constructions import build_g1k, build_g2k, build_g3k
from repro.core.verify import verify_exhaustive_parallel
from repro.core.verify.symmetry import enumerate_group

CASES = [
    ("G(1,2)", lambda: build_g1k(2)),
    ("G(1,3)", lambda: build_g1k(3)),
    ("G(2,2)", lambda: build_g2k(2)),
    ("G(3,3)", lambda: build_g3k(3)),
]


def _orbit_reps(cert) -> int:
    return int(cert.network_description.split("x1: ")[1].split()[0])


def test_symmetry_reduction(benchmark, artifact):
    def run():
        out = []
        for name, factory in CASES:
            net = factory()
            plain = verify_exhaustive_parallel(net, workers=1)
            reduced = verify_exhaustive_parallel(net, workers=1, symmetry=True)
            group = enumerate_group(net)
            out.append((name, net, plain, reduced, len(group)))
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, net, plain, reduced, group_order in results:
        assert reduced.checked == plain.checked
        assert reduced.tolerated == plain.tolerated
        assert reduced.is_proof == plain.is_proof
        reps = _orbit_reps(reduced)
        rows.append(
            [name, group_order, plain.checked, reps,
             f"{reps / plain.checked:.3f}", f"{plain.checked / reps:.1f}x"]
        )
        assert reps <= plain.checked
    artifact("Symmetry-reduced exhaustive verification (orbit path):")
    artifact(
        format_table(
            ["instance", "|Aut|", "fault sets", "orbit reps", "reps/set",
             "collapse"],
            rows,
        )
    )
    # the highly symmetric clique collapses the most
    g13 = next(r for r in rows if r[0] == "G(1,3)")
    assert float(g13[5].rstrip("x")) > 5.0
