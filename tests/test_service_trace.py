"""Trace drivers, the demo fleet, the fleet-scenario bridge and the
``serve`` CLI — including the ISSUE acceptance run."""

import pytest

from repro.cli import _parse_range, main
from repro.core.pipeline import is_pipeline
from repro.errors import InvalidParameterError, ReproError
from repro.service import (
    ControlPlane,
    TraceEvent,
    demo_plane,
    demo_ring_network,
    random_trace,
    run_demo,
    run_trace,
    warmup_trace,
)
from repro.simulator import fleet_trace, run_fleet_scenario, scheduled_faults


class TestRandomTrace:
    def test_reproducible_and_tolerance_respecting(self):
        with demo_plane() as plane:
            t1 = random_trace(plane, 80, seed=7)
            t2 = random_trace(plane, 80, seed=7)
            assert t1 == t2
            assert len(t1) == 80
            # replay the bookkeeping: never more than k simultaneous faults
            down = {m.name: set() for m in plane}
            for ev in t1:
                if ev.kind == "fault":
                    down[ev.network].add(ev.node)
                    assert len(down[ev.network]) <= plane.managed(ev.network).network.k
                elif ev.kind == "repair":
                    assert ev.node in down[ev.network]
                    down[ev.network].discard(ev.node)

    def test_empty_fleet_rejected(self):
        with ControlPlane() as plane:
            with pytest.raises(ReproError):
                random_trace(plane, 10)

    def test_unknown_event_kind_rejected(self):
        with ControlPlane() as plane:
            plane.register("a", n=6, k=2)
            report = run_trace(plane, [TraceEvent("a", "query")])
            assert report.ok and len(report.answers) == 1
            with pytest.raises(ReproError):
                run_trace(plane, [TraceEvent("a", "explode", "p0")])


class TestDemoRing:
    def test_too_small_rejected(self):
        with pytest.raises(ReproError):
            demo_ring_network(4)

    def test_ring_is_reconfigurable(self):
        ring = demo_ring_network(8)
        assert len(ring.processors) == 8
        with ControlPlane() as plane:
            plane.register("ring", ring)
            rec = plane.submit_fault("ring", "c3").result(timeout=30)
            assert rec.pipeline_length == 7  # all 7 surviving cores in use


class TestRunDemoAcceptance:
    """The ISSUE acceptance bar for the demo workload."""

    def test_demo_meets_acceptance_criteria(self):
        report, snap = run_demo(events=150, seed=0)
        # >= 100 fault/repair events through the worker pool, >= 4 networks
        assert len(report.records) >= 100
        assert len(snap.networks) >= 4
        assert {r.network for r in report.records} >= {
            "video-a", "video-b", "ct", "lz", "ring",
        }
        assert report.ok and not report.errors
        # every query answer validated inside run_trace; latencies recorded
        assert snap.latency.count >= 100
        assert snap.latency.mean > 0.0
        # the witness cache did real work
        assert snap.cache.hits > 0
        assert snap.totals["cache_hits"] > 0
        assert snap.totals["cache_hits"] + snap.totals["cache_misses"] > 0

    def test_warmup_hits_every_sharing_mode(self):
        with demo_plane(workers=1) as plane:  # serialized: hits deterministic
            report = run_trace(plane, warmup_trace(plane))
            assert report.ok
            by_key = {
                (r.network, r.kind, r.node, i): r
                for i, r in enumerate(report.records)
            }
            hits = [r for r in by_key.values() if r.cache_hit]
            nets = {r.network for r in hits}
            # replica sharing, and the ring's repair hitting its
            # fault-free row
            assert "video-b" in nets
            assert "ring" in nets


class TestFleetBridge:
    def test_fleet_trace_orders_and_repairs(self):
        sched = {
            "a": scheduled_faults([(1.0, "p0"), (4.0, "p1")]),
            "b": scheduled_faults([(2.0, "p0")]),
        }
        trace = fleet_trace(sched, repair_after=1.5, query_every=2.0, horizon=6.0)
        kinds = [(e.network, e.kind, e.node) for e in trace]
        assert kinds[0] == ("a", "fault", "p0")
        # repairs woven in 1.5 later; queries every 2.0 for both networks
        assert ("a", "repair", "p0") in kinds
        assert kinds.count(("a", "query", None)) == 3
        # a's p0 repair (t=2.5) lands after b's p0 fault (t=2.0)
        assert kinds.index(("b", "fault", "p0")) < kinds.index(("a", "repair", "p0"))

    def test_bad_parameters_rejected(self):
        sched = {"a": scheduled_faults([(1.0, "p0")])}
        with pytest.raises(InvalidParameterError):
            fleet_trace(sched, repair_after=0.0)
        with pytest.raises(InvalidParameterError):
            fleet_trace(sched, query_every=-1.0)

    def test_query_ticks_survive_float_drift(self):
        """PR 10 regression: the query tick loop used a running float sum
        (``t += query_every``), so representation error accumulated and
        boundary ticks silently dropped — ``0.1 * 3 > 0.3`` in binary
        floats lost the horizon tick.  Ticks are now exact multiples of
        the period with an epsilon at the boundary."""
        sched = {"a": scheduled_faults([(0.05, "p0")])}
        trace = fleet_trace(sched, query_every=0.1, horizon=0.3)
        queries = [e for e in trace if e.kind == "query"]
        assert len(queries) == 3  # t = 0.1, 0.2 and the 0.3 boundary tick

        # the same drift at larger scale: 0.7 is inexact, and 100 * 0.07
        # lands a few ulps above 7.0 — the final tick must still be there
        trace = fleet_trace(sched, query_every=0.07, horizon=7.0)
        assert sum(e.kind == "query" for e in trace) == 100

    def test_timed_query_ticks_are_exact_multiples(self):
        from repro.simulator import timed_fleet_trace

        sched = {"a": scheduled_faults([(0.05, "p0")])}
        timed = timed_fleet_trace(sched, query_every=0.1, horizon=0.3)
        tick_times = [at for at, e in timed if e.kind == "query"]
        assert tick_times == [1 * 0.1, 2 * 0.1, 3 * 0.1]

    def test_run_fleet_scenario_end_to_end(self):
        with ControlPlane() as plane:
            plane.register("a", n=9, k=2)
            plane.register("b", n=6, k=2)
            sched = {
                "a": scheduled_faults([(1.0, "p1"), (3.0, "p2")]),
                "b": scheduled_faults([(2.0, "p0")]),
            }
            report, snap = run_fleet_scenario(
                plane, sched, repair_after=1.5, query_every=2.0
            )
            assert report.ok
            assert snap.totals["faults"] == 3 and snap.totals["repairs"] == 3
            for m in plane:
                assert is_pipeline(m.network, m.session.pipeline.nodes, m.session.faults)

    def test_unregistered_network_rejected(self):
        with ControlPlane() as plane:
            plane.register("a", n=6, k=2)
            with pytest.raises(InvalidParameterError, match="ghost"):
                run_fleet_scenario(
                    plane, {"ghost": scheduled_faults([(1.0, "p0")])}
                )


class TestServeCli:
    def test_serve_demo_exits_clean(self, capsys):
        assert main(["serve", "--demo", "--events", "120"]) == 0
        out = capsys.readouterr().out
        assert "control plane snapshot" in out
        assert "witness cache" in out
        assert "trace:" in out

    def test_serve_custom_fleet(self, capsys):
        rc = main([
            "serve", "--network", "9x2", "--network", "6x2",
            "--events", "40", "--seed", "3",
        ])
        assert rc == 0
        assert "net0-9x2" in capsys.readouterr().out

    def test_serve_bad_spec_is_cli_error(self, capsys):
        assert main(["serve", "--network", "nine-by-two"]) == 2
        assert "NxK" in capsys.readouterr().err

    def test_serve_zero_events_is_cli_error(self):
        assert main(["serve", "--demo", "--events", "0"]) == 2

    @pytest.mark.parametrize(
        "flag", ["--workers", "--cache-size", "--max-pending"]
    )
    def test_serve_nonpositive_knobs_are_cli_errors(self, flag, capsys):
        assert main(["serve", "--demo", flag, "0"]) == 2
        assert flag in capsys.readouterr().err


class TestParseRange:
    def test_forms(self):
        assert _parse_range("3") == [3]
        assert _parse_range("1-4") == [1, 2, 3, 4]
        assert _parse_range("1,3,5") == [1, 3, 5]
        assert _parse_range("1-3,7") == [1, 2, 3, 7]

    def test_reversed_range_raises(self):
        with pytest.raises(ReproError, match="reversed range"):
            _parse_range("5-2")

    def test_reversed_range_in_cli_is_error_not_empty(self, capsys):
        assert main(["audit", "--n", "5-2", "--k", "2"]) == 2
        assert "reversed range" in capsys.readouterr().err
