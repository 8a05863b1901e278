"""The verification benchmark's smoke gate and host metadata.

``smoke_regressions`` gates CI's ``bench-smoke`` job, so every check it
makes is fed a regressed payload here and shown to fail, next to rows
that stay within tolerance and pass."""

import re

from repro._util import git_sha, host_meta
from repro.core.verify.bench import run_bench, smoke_regressions


def row(mode, wall, instance="I", checked=10):
    return {
        "instance": instance,
        "mode": mode,
        "wall_time_s": wall,
        "fault_sets_checked": checked,
    }


class TestSmokeGate:
    def test_warm_slower_than_cold_past_tolerance_and_slack_is_flagged(self):
        # 1.0 s cold allows 1.0 * 1.10 + 0.05 = 1.15 s warm
        payload = {"rows": [row("cold", 1.0), row("warm", 1.2)]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and "warm" in bad[0] and "cold" in bad[0]

    def test_warm_overrun_inside_the_slack_passes(self):
        # 50% slower, but only 5 ms in absolute terms: scheduler noise
        payload = {"rows": [row("cold", 0.010), row("warm", 0.015)]}
        assert smoke_regressions(payload) == []

    def test_parallel_slower_than_warm_is_flagged(self):
        payload = {"rows": [
            row("warm", 1.0, checked=20_000),
            row("parallel", 1.5, checked=20_000),
        ]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and "parallel" in bad[0] and "warm" in bad[0]

    def test_small_parallel_row_slower_than_warm_is_flagged(self):
        # every sweep size takes the kernel path, so no row is exempt
        payload = {"rows": [
            row("warm", 1.0, checked=46),
            row("parallel", 1.5, checked=46),
        ]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and "parallel" in bad[0]

    def test_rows_within_tolerance_pass(self):
        checked = 20_000
        payload = {"rows": [
            row("cold", 1.0, checked=checked),
            row("warm", 1.09, checked=checked),
            row("parallel", 1.19, checked=checked),
        ]}
        assert smoke_regressions(payload) == []

    def test_each_instance_is_judged_against_its_own_reference(self):
        payload = {"rows": [
            row("cold", 1.0, instance="fast"),
            row("warm", 0.5, instance="fast"),
            row("cold", 0.1, instance="slow"),
            row("warm", 0.5, instance="slow"),
        ]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and bad[0].startswith("slow:")


class TestBenchRows:
    def test_parallel_row_counts_kernel_accepts(self):
        # kernel_accepted is parsed out of the certificate description,
        # so a reworded description would zero it silently
        payload = run_bench(["G(4,3)"])
        (par,) = [r for r in payload["rows"] if r["mode"] == "parallel"]
        assert par["kernel_accepted"] > 0
        assert par["kernel_accepted"] <= par["fault_sets_checked"]


class TestHostMeta:
    def test_fields(self):
        meta = host_meta()
        assert set(meta) == {"python", "machine", "cpus", "git_sha"}
        assert meta["cpus"] >= 1
        sha = meta["git_sha"]
        assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)

    def test_git_sha_is_none_without_git(self, monkeypatch):
        monkeypatch.setenv("PATH", "")
        assert git_sha() is None

    def test_verify_bench_records_the_host(self):
        payload = run_bench(["G(3,2)"])
        meta = payload["meta"]
        assert meta["benchmark"] == "verify"
        assert {"python", "machine", "cpus", "git_sha"} <= set(meta)
        assert meta["cpus"] >= 1
