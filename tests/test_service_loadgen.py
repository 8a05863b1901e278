"""Service-plane load harness: workload generation, the replay report,
the cold/warm bench payload, and the smoke gate."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.quantiles import SUB_BUCKETS, summarize_samples
from repro.service import ControlPlane, ControlPlaneConfig
from repro.service.loadgen import (
    SMOKE_EVENTS,
    build_workload,
    format_service_table,
    register_fleet,
    run_load,
    run_service_bench,
    service_smoke_regressions,
)

ROW_KEYS = {
    "phase", "events_submitted", "events_applied", "queries", "wall_time_s",
    "shed", "shed_rate", "errors", "degraded_served", "degraded_rate",
    "stale_served", "query_latency_s", "solve_latency_s", "cache_hits",
    "cache_misses", "cache_hit_rate", "store_rows",
    "warm_loaded", "persist_hits", "write_behind_depth",
    "validation_failures",
}


class TestPercentiles:
    """The harness's ``query_latency_s``/``solve_latency_s`` blocks are
    ``LatencyHistogram`` summaries of the raw samples: each percentile
    is at most 1/16 above the exact nearest-rank sample."""

    def test_empty_is_all_zero(self):
        s = summarize_samples([]).as_dict()
        assert s == {
            "count": 0, "mean": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_known_population(self):
        s = summarize_samples([i / 1000 for i in range(1, 101)]).as_dict()
        assert s["count"] == 100
        for key, exact in (("p50", 0.050), ("p95", 0.095), ("p99", 0.099)):
            assert exact <= s[key] <= exact * (1 + 1 / SUB_BUCKETS)
        assert s["max"] == 0.100

    def test_single_sample(self):
        s = summarize_samples([0.25]).as_dict()
        assert s["p50"] == s["p95"] == s["p99"] == s["max"] == 0.25

    def test_unsorted_input(self):
        s = summarize_samples([0.3, 0.1, 0.2]).as_dict()
        assert 0.2 <= s["p50"] <= 0.2 * (1 + 1 / SUB_BUCKETS)
        assert s["max"] == 0.3


class TestWorkload:
    def test_pool_profile_arrivals_monotone(self):
        with ControlPlane() as plane:
            register_fleet(plane, smoke=True)
            timed = build_workload(plane, events=40, rate=500.0, seed=3)
            assert len(timed) == 40
            times = [at for at, _ in timed]
            assert times == sorted(times)
            assert all(at > 0 for at in times)
            # same seed, same workload — the warm phase replays exactly
            again = build_workload(plane, events=40, rate=500.0, seed=3)
            assert timed == again

    def test_poisson_profile_covers_fleet(self):
        with ControlPlane() as plane:
            register_fleet(plane, smoke=True)
            timed = build_workload(
                plane, events=40, rate=400.0, profile="poisson"
            )
            assert timed
            kinds = {ev.kind for _, ev in timed}
            assert "fault" in kinds and "query" in kinds
            assert {ev.network for _, ev in timed} <= set(plane.names)

    def test_bad_parameters(self):
        with ControlPlane() as plane:
            register_fleet(plane, smoke=True)
            with pytest.raises(ReproError):
                build_workload(plane, events=5, rate=0.0)
            with pytest.raises(ReproError):
                build_workload(plane, events=5, rate=10.0, profile="nope")
            with pytest.raises(ReproError):
                run_load(plane, [], speed=0.0)


class TestRunLoad:
    def test_counts_reconcile(self):
        with ControlPlane(ControlPlaneConfig(workers=2)) as plane:
            register_fleet(plane, smoke=True)
            timed = build_workload(plane, events=60, rate=1000.0, seed=1)
            report = run_load(plane, timed)
            assert report.submitted == 60
            assert (
                report.applied + report.queries + report.shed + report.errors
                == 60
            )
            assert report.queries == report.query_latency.count
            assert report.applied == report.solve_latency.count
            assert report.errors == 0


class TestServiceBench:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_service_bench(smoke=True, events=60, rate=500.0)

    def test_payload_shape(self, payload):
        assert payload["meta"]["benchmark"] == "service"
        assert {"python", "machine", "cpus", "git_sha"} <= set(payload["meta"])
        assert [r["phase"] for r in payload["rows"]] == ["cold", "warm"]
        for row in payload["rows"]:
            assert ROW_KEYS <= set(row)
            for block in ("query_latency_s", "solve_latency_s"):
                lat = row[block]
                assert {"count", "mean", "max", "p50", "p95", "p99"} <= set(lat)
                assert lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        json.dumps(payload)  # JSON-serializable end to end

    def test_warm_phase_actually_warm(self, payload):
        cold, warm = payload["rows"]
        # the cold phase starts from an empty store, but replicas of one
        # build share a fingerprint: a later register may warm-load the
        # seed row an earlier register just pushed through the (eagerly
        # woken) write-behind thread.  Only genuinely cold rows — i.e.
        # fewer than the warm phase, which reloads the whole store — are
        # a correctness requirement.
        assert cold["warm_loaded"] < warm["warm_loaded"]
        assert warm["warm_loaded"] > 0
        assert warm["cache_hit_rate"] >= cold["cache_hit_rate"]
        assert cold["validation_failures"] == 0
        assert warm["validation_failures"] == 0

    def test_gate_passes_and_table_renders(self, payload):
        assert service_smoke_regressions(payload) == []
        table = format_service_table(payload)
        assert "cold" in table and "warm" in table

    def test_explicit_store_path_is_reset(self, tmp_path):
        path = tmp_path / "fleet.db"
        path.write_bytes(b"not a database at all")
        payload = run_service_bench(
            smoke=True, events=20, rate=500.0, store_path=str(path)
        )
        assert payload["rows"][0]["validation_failures"] == 0
        assert path.exists()  # explicit paths are kept for inspection


class TestSmokeGate:
    def row(self, phase, p95=0.001, **kw):
        base = {
            "phase": phase,
            "warm_loaded": 5 if phase == "warm" else 0,
            "validation_failures": 0,
            "query_latency_s": {"p95": p95},
        }
        base.update(kw)
        return base

    def test_validation_failures_always_flagged(self):
        payload = {"rows": [self.row("cold", validation_failures=1),
                            self.row("warm")]}
        assert any(
            "re-validation" in line
            for line in service_smoke_regressions(payload)
        )

    def test_missing_warm_start_flagged(self):
        payload = {"rows": [self.row("cold"),
                            self.row("warm", warm_loaded=0)]}
        assert any(
            "warm-loaded" in line
            for line in service_smoke_regressions(payload)
        )

    def test_latency_regression_needs_ratio_and_floor(self):
        # 50% worse but within the absolute noise floor: not flagged
        quiet = {"rows": [self.row("cold", p95=0.0002),
                          self.row("warm", p95=0.0003)]}
        assert service_smoke_regressions(quiet) == []
        # 50% worse and well past the floor: flagged
        loud = {"rows": [self.row("cold", p95=0.010),
                         self.row("warm", p95=0.015)]}
        assert any(
            "p95" in line for line in service_smoke_regressions(loud)
        )

    def test_doubled_warm_p95_fails(self):
        """A warm p95 at twice a typical smoke cold p95 clears both the
        10% tolerance and the 0.5 ms floor."""
        doubled = {"rows": [self.row("cold", p95=0.0006),
                            self.row("warm", p95=0.0012)]}
        assert any(
            "p95" in line for line in service_smoke_regressions(doubled)
        )

    def test_smoke_phase_leaves_ten_queries_beyond_p95(self):
        with ControlPlane(ControlPlaneConfig(workers=1)) as plane:
            register_fleet(plane, smoke=True)
            workload = build_workload(
                plane, events=SMOKE_EVENTS, rate=200.0, query_ratio=0.5
            )
        queries = sum(ev.kind == "query" for _, ev in workload)
        assert queries * (1 - 0.95) >= 10
