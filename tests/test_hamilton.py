"""Tests for repro.core.hamilton (spanning-path solvers)."""

import functools
import hashlib
import itertools

import networkx as nx
import pytest

from repro.core.constructions import build, build_g1k, build_g3k
from repro.core.hamilton import (
    SolvePolicy,
    SpanningPathInstance,
    Status,
    count_spanning_paths,
    find_pipeline,
    has_pipeline,
    solve,
    solve_backtracking,
    solve_held_karp,
    solve_posa,
)
from repro.core.model import PipelineNetwork
from repro.core.pipeline import is_pipeline
from repro.errors import BudgetExceededError
from repro.service.trace import demo_ring_network


def path_network():
    """i0 - p0 - p1 - p2 - o0 with extra terminals for fault play."""
    g = nx.Graph(
        [
            ("i0", "p0"), ("i1", "p1"),
            ("p0", "p1"), ("p1", "p2"),
            ("o0", "p2"), ("o1", "p1"),
        ]
    )
    return PipelineNetwork(g, ["i0", "i1"], ["o0", "o1"], n=2, k=1)


class TestInstanceTrivia:
    def test_all_inputs_dead_is_none(self):
        net = path_network()
        inst = SpanningPathInstance(net.surviving(["i0", "i1"]))
        assert inst.trivial.status is Status.NONE

    def test_single_processor_found(self):
        net = build_g1k(1)
        inst = SpanningPathInstance(net.surviving(["p1"]))
        assert inst.trivial.status is Status.FOUND
        assert len(inst.trivial.path) == 3

    def test_single_processor_without_output_none(self):
        net = path_network()
        # only p0 healthy; p0 has no output terminal
        inst = SpanningPathInstance(net.surviving(["p1", "p2"]))
        assert inst.trivial.status is Status.NONE

    def test_no_processors_no_terminal_edge(self):
        net = path_network()
        inst = SpanningPathInstance(net.surviving(["p0", "p1", "p2"]))
        assert inst.trivial.status is Status.NONE

    def test_start_mask_respects_terminal_faults(self):
        net = path_network()
        inst = SpanningPathInstance(net.surviving(["i0"]))
        # only p1 is input-attached now
        assert inst.start_mask == 1 << inst.index["p1"]


@pytest.mark.parametrize(
    "solver",
    [solve_backtracking, solve_held_karp],
    ids=["backtracking", "held-karp"],
)
class TestExactSolvers:
    def test_finds_valid_pipeline(self, solver):
        net = path_network()
        rep = solver(SpanningPathInstance(net.surviving()))
        assert rep.status is Status.FOUND
        assert is_pipeline(net, rep.path)

    def test_respects_faults(self, solver):
        net = path_network()
        rep = solver(SpanningPathInstance(net.surviving(["p0"])))
        assert rep.status is Status.FOUND
        assert is_pipeline(net, rep.path, ["p0"])

    def test_detects_impossible(self, solver):
        net = path_network()
        # kill o0: pipeline must end at p1 (o1), but p1 is interior of
        # any path spanning p0,p1,p2 -> impossible
        rep = solver(SpanningPathInstance(net.surviving(["o0"])))
        assert rep.status is Status.NONE

    def test_on_construction_with_all_single_faults(self, solver):
        net = build_g3k(2)
        for v in net.graph.nodes:
            rep = solver(SpanningPathInstance(net.surviving([v])))
            assert rep.status is Status.FOUND, v
            assert is_pipeline(net, rep.path, [v])


class TestSolversAgree:
    def test_exhaustive_agreement_small(self):
        net = build_g3k(1)
        nodes = sorted(net.graph.nodes)
        for size in range(0, 3):
            for faults in itertools.combinations(nodes, size):
                inst1 = SpanningPathInstance(net.surviving(faults))
                inst2 = SpanningPathInstance(net.surviving(faults))
                bt = solve_backtracking(inst1)
                hk = solve_held_karp(inst2)
                assert bt.status == hk.status, faults


class TestBudget:
    def test_budget_exhaustion_is_undecided(self):
        net = build(22, 4)
        inst = SpanningPathInstance(net.surviving())
        rep = solve_backtracking(inst, budget=5)
        assert rep.status is Status.UNDECIDED

    def test_policy_disallow_undecided_raises(self):
        net = build(22, 4)
        policy = SolvePolicy(posa_restarts=0, budget=5, allow_undecided=False)
        with pytest.raises(BudgetExceededError):
            find_pipeline(net, (), policy)


class TestPosa:
    def test_finds_on_dense_graph(self):
        net = build(22, 4)
        inst = SpanningPathInstance(net.surviving(["c3", "c7"]))
        rep = solve_posa(inst, restarts=64, rotations=800, seed=5)
        assert rep.status is Status.FOUND
        assert is_pipeline(net, rep.path, ["c3", "c7"])

    def test_failure_is_undecided_not_none(self):
        net = path_network()
        # o0 dead -> impossible; Posa must NOT claim NONE
        inst = SpanningPathInstance(net.surviving(["o0"]))
        rep = solve_posa(inst, restarts=4, rotations=10, seed=1)
        assert rep.status in (Status.UNDECIDED, Status.FOUND)
        assert rep.status is Status.UNDECIDED

    def test_initial_order_seed_accepted(self):
        net = build(22, 4)
        inst = SpanningPathInstance(net.surviving())
        order = [inst.index[p] for p in net.meta["canonical_order"]]
        rep = solve_posa(inst, restarts=8, seed=2, initial_order=order)
        assert rep.status is Status.FOUND


@functools.lru_cache(maxsize=None)
def posa_instance(case):
    if case == "G(13,2)":
        return SpanningPathInstance(build(13, 2).surviving(["p1"]))
    if case == "ring-C16(1,2)":
        net = demo_ring_network(16, (1, 2))
        return SpanningPathInstance(net.surviving(["c3", "c7"]))
    g60 = build(60, 4)
    bare = PipelineNetwork(g60.graph, g60.inputs, g60.outputs, n=60, k=4)
    return SpanningPathInstance(bare.surviving(["c14", "c15", "c20"]))


#: ``solve_posa`` reports recorded before the visited mask became a
#: running mask: (instance, seed, arguments) -> (status, nodes_expanded,
#: the first 16 hex digits of the sha256 of ``repr(path)``).  Same seed,
#: same RNG draws, same report.
POSA_PINNED = [
    ("G(13,2)", 0, "default", "found", 21, "12bd594cefd98973"),
    ("G(13,2)", 0, "short", "undecided", 15, None),
    ("G(13,2)", 0, "reversed-order", "found", 19, "37fdf746f2590af2"),
    ("G(13,2)", 7, "default", "found", 33, "e3b7f0fddc4ffcf6"),
    ("G(13,2)", 7, "short", "undecided", 15, None),
    ("G(13,2)", 7, "reversed-order", "found", 16, "46c25fc183ba6dcc"),
    ("ring-C16(1,2)", 0, "default", "found", 14, "b1762af989dc68a1"),
    ("ring-C16(1,2)", 0, "short", "found", 14, "b1762af989dc68a1"),
    ("ring-C16(1,2)", 0, "reversed-order", "found", 20, "bcd6f1a95452ef47"),
    ("ring-C16(1,2)", 7, "default", "found", 21, "4ff2a9ccbb33bdb5"),
    ("ring-C16(1,2)", 7, "short", "undecided", 15, None),
    ("ring-C16(1,2)", 7, "reversed-order", "found", 150, "71839cfdc557442e"),
    ("bare G(60,4)", 0, "default", "found", 191, "34c1001f09e7b916"),
    ("bare G(60,4)", 0, "short", "undecided", 48, None),
    ("bare G(60,4)", 0, "reversed-order", "found", 134, "e3de4b653ef95678"),
    ("bare G(60,4)", 7, "default", "found", 1946, "17d0fe897df91cd8"),
    ("bare G(60,4)", 7, "short", "undecided", 47, None),
    ("bare G(60,4)", 7, "reversed-order", "found", 70, "eac6fa03628d0735"),
]


@pytest.mark.parametrize("case,seed,args,status,expanded,digest", POSA_PINNED)
def test_posa_reports_are_pinned(case, seed, args, status, expanded, digest):
    inst = posa_instance(case)
    kwargs = {
        "default": {},
        "short": {"restarts": 1, "rotations": 3},
        "reversed-order": {"initial_order": list(range(inst.h))[::-1]},
    }[args]
    rep = solve_posa(inst, seed=seed, **kwargs)
    assert (rep.status.value, rep.nodes_expanded) == (status, expanded)
    if digest is not None:
        assert hashlib.sha256(repr(rep.path).encode()).hexdigest()[:16] == digest


class TestCountSpanningPaths:
    def test_g1k_count(self):
        # G(1,1): procs p0,p1 each with own terminals; paths p0-p1 and
        # p1-p0 are the same undirected pipeline; both endpoints are in
        # start&end sets -> count 1
        net = build_g1k(1)
        assert count_spanning_paths(SpanningPathInstance(net.surviving())) == 1

    def test_path_network_count(self):
        net = path_network()
        # spanning processor paths: p0-p1-p2 (i0->o0);
        # p2-p1-p0? p0 has no output terminal; p1 endpoints impossible
        # (interior); so exactly 1
        assert count_spanning_paths(SpanningPathInstance(net.surviving())) == 1

    def test_zero_when_impossible(self):
        net = path_network()
        assert (
            count_spanning_paths(SpanningPathInstance(net.surviving(["o0"]))) == 0
        )

    def test_counts_match_bruteforce(self):
        net = build_g3k(1)
        inst = SpanningPathInstance(net.surviving())
        # brute force over processor permutations
        surv = net.surviving()
        procs = sorted(surv.processors)
        starts = surv.input_attached()
        ends = surv.output_attached()
        count = 0
        for perm in itertools.permutations(procs):
            if perm[0] > perm[-1]:
                continue  # canonical orientation to count undirected once
            ok_path = all(
                net.graph.has_edge(a, b) for a, b in zip(perm, perm[1:])
            )
            fwd = perm[0] in starts and perm[-1] in ends
            bwd = perm[-1] in starts and perm[0] in ends
            if ok_path and (fwd or bwd):
                count += 1
        assert count_spanning_paths(inst) == count


class TestNetworkWrappers:
    def test_find_pipeline_returns_oriented(self):
        net = path_network()
        pl = find_pipeline(net)
        assert pl.source in net.inputs and pl.sink in net.outputs

    def test_find_pipeline_none(self):
        net = path_network()
        assert find_pipeline(net, ["o0"]) is None

    def test_has_pipeline(self):
        net = path_network()
        assert has_pipeline(net)
        assert not has_pipeline(net, ["o0"])

    def test_portfolio_small_uses_held_karp(self):
        net = build_g1k(2)
        rep = solve(SpanningPathInstance(net.surviving()))
        assert rep.method in ("held-karp", "trivial")
