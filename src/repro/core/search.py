"""Solution-graph search.

Three computational reproductions live here:

1. :func:`random_search_standard_solution` — the constrained randomized
   search that (re-)derives the paper's *special solutions* (Figures
   10-13): sample processor graphs with the exact degree sequence forced
   by the bounds, attach terminals, verify exhaustively.

2. :func:`prove_lemma_3_14` — the impossibility result for
   ``(n, k) = (5, 2)`` at maximum degree ``k + 2 = 4``: the degree
   arithmetic forces the processor degree sequence ``(4, 3^6)`` with one
   terminal on each degree-3 processor, so the finitely many candidates
   (enumerated via the 7-node graph atlas) can each be refuted
   exhaustively — a machine version of the paper's Figures 5–9 case
   analysis.

3. :func:`enumerate_standard_solutions` / :func:`prove_uniqueness` — the
   uniqueness claims of Lemmas 3.7 and 3.9: for ``n in {1, 2}`` the
   bounds force the processor subgraph to be a clique, leaving only the
   terminal placement free; enumerating placements and verifying shows
   every solution is label-isomorphic to ``G(1,k)`` / ``G(2,k)``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence

import networkx as nx

from .._util import as_rng, check_nk
from ..errors import InvalidParameterError
from ..graphs.isomorphism import labeled_isomorphic
from .constructions.g1k import build_g1k
from .constructions.g2k import build_g2k
from .hamilton import SolvePolicy
from .model import PipelineNetwork
from .verify.certificates import VerificationCertificate

Node = Hashable


def _prove(
    cand: PipelineNetwork, k: int, policy: SolvePolicy
) -> VerificationCertificate:
    """Exhaustive verdict for one candidate, in-process: a search
    decides hundreds of small candidates and must not fork a worker
    pool for each."""
    # lazy: the numpy-backed engine loads on first use, not on import
    from .verify.parallel import verify_exhaustive_parallel

    return verify_exhaustive_parallel(cand, k, policy, workers=1)


# ----------------------------------------------------------------------
# candidate assembly
# ----------------------------------------------------------------------
def assemble_candidate(
    n: int,
    k: int,
    proc_edges: Sequence[tuple[int, int]],
    input_at: Sequence[int],
    output_at: Sequence[int],
) -> PipelineNetwork:
    """Build a candidate standard network from a processor edge list and
    terminal attachment indices (the exchange format used by the search
    and by :mod:`repro.core.constructions.special`)."""
    check_nk(n, k)
    nprocs = n + k
    g = nx.Graph()
    procs = [f"p{j}" for j in range(nprocs)]
    g.add_nodes_from(procs)
    for a, b in proc_edges:
        g.add_edge(procs[a], procs[b])
    inputs, outputs = [], []
    for j, at in enumerate(input_at):
        g.add_edge(f"i{j}", procs[at])
        inputs.append(f"i{j}")
    for j, at in enumerate(output_at):
        g.add_edge(f"o{j}", procs[at])
        outputs.append(f"o{j}")
    return PipelineNetwork(
        g, inputs, outputs, n=n, k=k, meta={"construction": "search-candidate"}
    )


def _random_graph_with_degrees(
    degseq: Sequence[int], rng: random.Random, tries: int = 200
) -> nx.Graph | None:
    """Configuration-model sampling of a simple graph with the given
    degree sequence (rejection on loops/multi-edges)."""
    for _ in range(tries):
        stubs: list[int] = []
        for v, d in enumerate(degseq):
            stubs.extend([v] * d)
        rng.shuffle(stubs)
        edges: set[tuple[int, int]] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if ok:
            g = nx.Graph()
            g.add_nodes_from(range(len(degseq)))
            g.add_edges_from(edges)
            return g
    return None


@dataclass
class SearchResult:
    """Outcome of a randomized special-solution search."""

    network: PipelineNetwork | None
    trials_used: int
    proc_edges: tuple[tuple[int, int], ...] = ()
    input_at: tuple[int, ...] = ()
    output_at: tuple[int, ...] = ()

    @property
    def found(self) -> bool:
        return self.network is not None


def random_search_standard_solution(
    n: int,
    k: int,
    max_degree: int,
    trials: int = 20_000,
    rng: random.Random | int | None = 0,
    policy: SolvePolicy | None = None,
) -> SearchResult:
    """Search for a standard k-GD graph with the given maximum processor
    degree, exhaustively verifying each candidate.

    Terminal placement: when the ``2(k+1)`` terminals fit on distinct
    processors they are placed on distinct ones; otherwise input and
    output sets are sampled independently (processors may carry one of
    each).  Each processor's clique degree is then forced to
    ``max_degree - (#terminals)`` — infeasible placements are skipped.

    >>> random_search_standard_solution(6, 2, 4, trials=2000, rng=42).found
    True
    """
    check_nk(n, k)
    r = as_rng(rng)
    policy = policy or SolvePolicy()
    nprocs = n + k
    nterm = 2 * (k + 1)
    for trial in range(1, trials + 1):
        procs = list(range(nprocs))
        if nterm <= nprocs:
            holders = r.sample(procs, nterm)
            input_at = holders[: k + 1]
            output_at = holders[k + 1 :]
        else:
            input_at = r.sample(procs, k + 1)
            output_at = r.sample(procs, k + 1)
        tcount = [0] * nprocs
        for v in input_at:
            tcount[v] += 1
        for v in output_at:
            tcount[v] += 1
        degseq = []
        feasible = True
        for v in range(nprocs):
            d = max_degree - tcount[v]
            if d < k + 1 or d > nprocs - 1:
                feasible = False
                break
            degseq.append(d)
        if not feasible or sum(degseq) % 2:
            continue
        pg = _random_graph_with_degrees(degseq, r)
        if pg is None or not nx.is_connected(pg):
            continue
        proc_edges = tuple(sorted(pg.edges))
        cand = assemble_candidate(n, k, proc_edges, input_at, output_at)
        cert = _prove(cand, k, policy)
        if cert.is_proof:
            return SearchResult(
                cand, trial, proc_edges, tuple(input_at), tuple(output_at)
            )
    return SearchResult(None, trials)


# ----------------------------------------------------------------------
# Lemma 3.14: impossibility for (5, 2) at degree 4
# ----------------------------------------------------------------------
@dataclass
class ImpossibilityReport:
    """Outcome of the Lemma 3.14 machine proof."""

    candidate_graphs: int = 0
    labelings_checked: int = 0
    solutions_found: tuple[PipelineNetwork, ...] = field(default_factory=tuple)

    @property
    def impossible(self) -> bool:
        return not self.solutions_found


def _atlas_graphs_with_degrees(degseq: Sequence[int]) -> Iterator[nx.Graph]:
    """All 7-or-fewer-node graphs (up to isomorphism) with the given
    degree sequence, via the networkx graph atlas."""
    want = sorted(degseq)
    if len(want) > 7:
        raise InvalidParameterError(
            "the graph atlas only enumerates graphs on up to 7 nodes"
        )
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() != len(want):
            continue
        if sorted(d for _, d in g.degree()) == want:
            yield g


def prove_lemma_3_14(policy: SolvePolicy | None = None) -> ImpossibilityReport:
    """Machine proof of Lemma 3.14: no standard 2-GD graph for ``n = 5``
    has maximum processor degree ``k + 2 = 4``.

    The degree arithmetic in the lemma's proof (reproduced in the module
    docstring) forces 7 processors with degree sequence ``(4, 3^6)`` and
    one terminal on each degree-3 processor.  For every atlas graph with
    that degree sequence and every split of the six terminal holders into
    3 inputs + 3 outputs (input/output swap symmetry halves the count),
    the candidate is refuted by exhaustive fault checking.
    """
    n, k = 5, 2
    policy = policy or SolvePolicy()
    report_graphs = 0
    labelings = 0
    solutions: list[PipelineNetwork] = []
    for pg in _atlas_graphs_with_degrees([4, 3, 3, 3, 3, 3, 3]):
        report_graphs += 1
        if not nx.is_connected(pg):
            continue  # a disconnected processor graph has no spanning path
        nodes = sorted(pg.nodes)
        relabel = {v: i for i, v in enumerate(nodes)}
        edges = tuple(
            tuple(sorted((relabel[a], relabel[b]))) for a, b in pg.edges
        )
        holders = [relabel[v] for v in nodes if pg.degree(v) == 3]
        seen_splits: set[frozenset[int]] = set()
        for ins in itertools.combinations(holders, k + 1):
            outs = tuple(v for v in holders if v not in ins)
            # swapping all inputs with all outputs mirrors the pipeline,
            # so only one of each complementary split needs checking
            key = frozenset(ins)
            if frozenset(outs) in seen_splits:
                continue
            seen_splits.add(key)
            labelings += 1
            cand = assemble_candidate(n, k, edges, ins, outs)
            cert = _prove(cand, k, policy)
            if cert.is_proof:
                solutions.append(cand)
    return ImpossibilityReport(report_graphs, labelings, tuple(solutions))


# ----------------------------------------------------------------------
# Lemmas 3.7 / 3.9: uniqueness for n = 1, 2
# ----------------------------------------------------------------------
def _terminal_placements(
    nprocs: int, k: int, per_proc_max: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (input-count, output-count) vectors over processors with
    column sums ``k + 1`` and per-processor terminal totals bounded by
    *per_proc_max*, emitted as attachment index tuples."""
    options = [
        (i, o)
        for i in range(per_proc_max + 1)
        for o in range(per_proc_max + 1)
        if i + o <= per_proc_max
    ]
    for combo in itertools.product(options, repeat=nprocs):
        if sum(c[0] for c in combo) != k + 1:
            continue
        if sum(c[1] for c in combo) != k + 1:
            continue
        input_at = tuple(
            v for v, (ci, _) in enumerate(combo) for _r in range(ci)
        )
        output_at = tuple(
            v for v, (_, co) in enumerate(combo) for _r in range(co)
        )
        yield input_at, output_at


def enumerate_standard_solutions(
    n: int, k: int, policy: SolvePolicy | None = None
) -> list[PipelineNetwork]:
    """All standard k-GD solutions for ``n in {1, 2}``, up to labeled
    isomorphism.

    The paper's bounds force the processor subgraph to be the complete
    graph for these ``n`` (Lemma 3.1 + node-optimality for ``n = 1``;
    Lemma 3.4 for ``n = 2``), so only terminal placement is enumerated.
    Per-processor terminal counts are capped at 3 (more would leave some
    processor with none, violating Lemma 3.1 on a clique).
    """
    if n not in (1, 2):
        raise InvalidParameterError(
            f"uniqueness enumeration is defined for n in {{1, 2}}, got {n}"
        )
    check_nk(n, k)
    policy = policy or SolvePolicy()
    nprocs = n + k
    clique_edges = tuple(itertools.combinations(range(nprocs), 2))
    found: list[PipelineNetwork] = []
    for input_at, output_at in _terminal_placements(nprocs, k, per_proc_max=3):
        cand = assemble_candidate(n, k, clique_edges, input_at, output_at)
        cert = _prove(cand, k, policy)
        if not cert.is_proof:
            continue
        if any(
            labeled_isomorphic(
                cand.graph, cand.inputs, cand.outputs,
                prev.graph, prev.inputs, prev.outputs,
            )
            for prev in found
        ):
            continue
        found.append(cand)
    return found


@dataclass
class UniquenessReport:
    """Outcome of a uniqueness check for ``n in {1, 2}``."""

    n: int
    k: int
    solutions: tuple[PipelineNetwork, ...]
    matches_paper: bool

    @property
    def unique(self) -> bool:
        return len(self.solutions) == 1 and self.matches_paper


def prove_uniqueness(n: int, k: int, policy: SolvePolicy | None = None) -> UniquenessReport:
    """Check Lemma 3.7 (``n = 1``) / Lemma 3.9 (``n = 2``): the paper's
    construction is the only standard solution up to labeled isomorphism."""
    sols = enumerate_standard_solutions(n, k, policy)
    reference = build_g1k(k) if n == 1 else build_g2k(k)
    matches = any(
        labeled_isomorphic(
            s.graph, s.inputs, s.outputs,
            reference.graph, reference.inputs, reference.outputs,
        )
        for s in sols
    )
    return UniquenessReport(n, k, tuple(sols), matches)
