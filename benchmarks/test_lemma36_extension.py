"""L36 — Lemma 3.6: extending a standard k-GD graph for ``n`` yields a
standard k-GD graph for ``n + k + 1`` with the same maximum degree.

Regenerates the lemma as data: extension chains from every base family,
with exhaustive re-verification at each step (small parameters) and the
degree/standardness invariants asserted along deep chains.
"""

from repro.analysis import format_table
from repro.core.constructions import (
    build_g1k,
    build_g2k,
    build_g3k,
    build_special,
    extend,
)
from repro.core.verify import verify_exhaustive_parallel

BASES = [
    ("G(1,2)", lambda: build_g1k(2)),
    ("G(2,2)", lambda: build_g2k(2)),
    ("G(3,2)", lambda: build_g3k(2)),
    ("G(6,2)", lambda: build_special(6, 2)),
]


def test_lemma36_chains(benchmark, artifact):
    def chain_and_verify():
        rows = []
        for name, factory in BASES:
            net = factory()
            for step in range(3):
                net = extend(net)
                cert = verify_exhaustive_parallel(net) if step < 2 else None
                rows.append((name, step + 1, net, cert))
        return rows

    rows = benchmark.pedantic(chain_and_verify, rounds=1, iterations=1)

    table = []
    for name, depth, net, cert in rows:
        base_degree = dict(BASES)[name]().max_processor_degree()
        assert net.is_standard()
        assert net.max_processor_degree() == base_degree, (name, depth)
        if cert is not None:
            assert cert.is_proof, (name, depth)
        table.append(
            [name, depth, net.n, net.max_processor_degree(),
             "proved" if cert is not None else "invariants only"]
        )
    artifact("Lemma 3.6 extension chains (k = 2):")
    artifact(format_table(["base", "extensions", "n", "max deg", "k-GD check"], table))
