"""Exposition renderers and the stdlib metrics endpoint, exercised
against a live traced control plane."""

import json
import urllib.request

import pytest

from repro.obs.exposition import (
    phase_breakdown,
    render_metrics_json,
    render_prometheus,
)
from repro.obs.http import MetricsServer
from repro.obs.quantiles import summarize_samples
from repro.service.cache import CacheStats
from repro.service.control import ControlPlane, ControlPlaneConfig
from repro.service.metrics import MetricsSnapshot


@pytest.fixture(scope="module")
def traced_plane():
    with ControlPlane(ControlPlaneConfig(tracing=True, workers=2)) as plane:
        plane.register("edge-a", n=6, k=2)
        plane.submit_fault("edge-a", "p1").result(timeout=60)
        plane.query_pipeline("edge-a")
        plane.wait(timeout=60)
        yield plane


class TestPrometheus:
    def test_fleet_counters_and_types(self, traced_plane):
        text = render_prometheus(traced_plane.snapshot())
        assert "# TYPE repro_faults_total counter" in text
        assert "repro_faults_total 1" in text
        assert "repro_queries_total 1" in text
        # the satellite requirement: stale_served is exposed
        assert "repro_stale_served_total" in text

    def test_per_network_and_cache_families(self, traced_plane):
        text = render_prometheus(traced_plane.snapshot())
        assert 'repro_network_pending{network="edge-a"}' in text
        assert 'repro_network_faults_total{network="edge-a"} 1' in text
        assert "repro_cache_size" in text
        assert "repro_cache_misses_total" in text

    def test_anomaly_family_with_kind_labels(self, traced_plane):
        text = render_prometheus(traced_plane.snapshot())
        assert 'repro_anomalies_total{kind="shed"} 0' in text
        assert 'repro_anomalies_total{kind="torn_row"} 0' in text

    def test_latency_histogram_rows(self, traced_plane):
        text = render_prometheus(traced_plane.snapshot())
        assert 'repro_event_latency_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_event_latency_seconds_count 2" in text
        # per-network latency covers pool events; the query is fleet-only
        assert (
            'repro_network_event_latency_seconds_count{network="edge-a"} 1'
            in text
        )

    def test_store_family_only_with_store(self, traced_plane, tmp_path):
        assert "repro_store_rows" not in render_prometheus(
            traced_plane.snapshot()
        )
        config = ControlPlaneConfig(store_path=str(tmp_path / "w.db"))
        with ControlPlane(config) as plane:
            text = render_prometheus(plane.snapshot())
        assert "repro_store_rows 0" in text
        assert "repro_store_torn_rows_total 0" in text


class TestHistogramText:
    """The ``_bucket`` rows sit at the 27 octave bounds plus ``+Inf``
    whatever the layout inside an octave; the expected lines pin the
    text byte for byte."""

    SAMPLES = (
        5e-7, 1e-6, 3e-6, 4.1e-5, 0.000256, 0.0003, 0.000511, 0.002,
        0.0125, 0.9, 3.0, 67.108864, 200.0,
    )
    LE = (
        "1e-06", "2e-06", "4e-06", "8e-06", "1.6e-05", "3.2e-05",
        "6.4e-05", "0.000128", "0.000256", "0.000512", "0.001024",
        "0.002048", "0.004096", "0.008192", "0.016384", "0.032768",
        "0.065536", "0.131072", "0.262144", "0.524288", "1.048576",
        "2.097152", "4.194304", "8.388608", "16.777216", "33.554432",
        "67.108864", "+Inf",
    )
    CUMULATIVE = (
        2, 2, 3, 3, 3, 3, 4, 4, 5, 7, 7, 8, 8, 8, 9, 9, 9, 9, 9, 9, 10, 10,
        11, 11, 11, 11, 12, 13,
    )

    def test_fixed_snapshot_renders_the_octave_rows(self):
        snapshot = MetricsSnapshot(
            networks=(),
            cache=CacheStats(0, 8, 0, 0, 0, 0, 0),
            totals={},
            latency=summarize_samples(self.SAMPLES),
        )
        family = [
            line
            for line in render_prometheus(snapshot).splitlines()
            if "repro_event_latency_seconds" in line
        ]
        assert family == [
            "# TYPE repro_event_latency_seconds_bucket histogram",
            *(
                f'repro_event_latency_seconds_bucket{{le="{le}"}} {count}'
                for le, count in zip(self.LE, self.CUMULATIVE)
            ),
            "# TYPE repro_event_latency_seconds_sum histogram",
            "repro_event_latency_seconds_sum 271.0244765",
            "# TYPE repro_event_latency_seconds_count histogram",
            "repro_event_latency_seconds_count 13",
        ]


class TestJson:
    def test_sorted_parseable_with_anomalies(self, traced_plane):
        payload = json.loads(render_metrics_json(traced_plane.snapshot()))
        assert payload["totals"]["faults"] == 1
        assert payload["anomalies"]["shed"] == 0
        assert payload["latency"]["count"] == 2
        assert payload["networks"]["edge-a"]["latency_p95"] > 0


class TestSnapshotSummary:
    def test_summary_surfaces_anomaly_totals(self, traced_plane):
        summary = traced_plane.snapshot().summary()
        assert "anomalies: 0 total" in summary
        assert "torn rows 0" in summary


class TestPhaseBreakdown:
    def test_folds_spans_by_name(self):
        spans = [
            {"name": "solve", "duration_s": 0.2},
            {"name": "solve", "duration_s": 0.4},
            {"name": "queue_wait", "duration_s": 0.1},
        ]
        phases = phase_breakdown(spans)
        assert list(phases) == ["queue_wait", "solve"]  # sorted
        assert phases["solve"]["count"] == 2
        assert phases["solve"]["total"] == pytest.approx(0.6)
        assert phases["queue_wait"]["max"] == pytest.approx(0.1)

    def test_empty(self):
        assert phase_breakdown([]) == {}


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read()


class TestMetricsServer:
    def test_routes(self, traced_plane):
        with MetricsServer(traced_plane, port=0) as server:
            assert server.port > 0

            status, ctype, body = _get(f"{server.url}/metrics")
            assert status == 200
            assert ctype.startswith("text/plain")
            assert b"repro_faults_total 1" in body

            status, ctype, body = _get(f"{server.url}/metrics.json")
            assert status == 200 and ctype == "application/json"
            assert json.loads(body)["totals"]["faults"] == 1

            status, _, body = _get(f"{server.url}/trace?network=edge-a")
            assert status == 200
            payload = json.loads(body)
            assert payload["count"] > 0
            assert all(
                s["attrs"].get("network") == "edge-a"
                for s in payload["spans"]
            )

            status, _, body = _get(f"{server.url}/dumps")
            assert status == 200
            assert json.loads(body)["count"] == 0

            status, _, body = _get(f"{server.url}/healthz")
            assert status == 200
            assert body.startswith(b"ok 1 networks")

    def test_unknown_route_404_and_idempotent_close(self, traced_plane):
        server = MetricsServer(traced_plane, port=0)
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(f"{server.url}/nope")
            assert err.value.code == 404
        finally:
            server.close()
            server.close()  # idempotent
