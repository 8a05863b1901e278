"""The verification benchmark's gates and host metadata.

CI's ``bench-smoke`` job fails on ``smoke_regressions`` (the engine
slower than its cold oracle) and on ``run_bench``'s certificate checks
(the engine disagreeing with cold, or short of the full fault-set count
where cold is skipped), so every check is fed a regressed input here
and shown to fail, next to inputs that stay within tolerance and
pass."""

import re
from dataclasses import replace

import pytest

from repro._util import git_sha, host_meta
from repro.core.verify import bench
from repro.core.verify.bench import run_bench, smoke_regressions
from repro.errors import VerificationError


def row(mode, wall, instance="I", checked=10):
    return {
        "instance": instance,
        "mode": mode,
        "wall_time_s": wall,
        "fault_sets_checked": checked,
    }


class TestSmokeGate:
    def test_parallel_slower_than_cold_past_tolerance_and_slack_is_flagged(
        self,
    ):
        # 1.0 s cold allows 1.0 * 1.10 + 0.05 = 1.15 s for the engine
        payload = {"rows": [row("cold", 1.0), row("parallel", 1.2)]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and "parallel" in bad[0] and "cold" in bad[0]

    def test_parallel_overrun_inside_the_slack_passes(self):
        # 50% slower, but only 5 ms in absolute terms: scheduler noise
        payload = {"rows": [row("cold", 0.010), row("parallel", 0.015)]}
        assert smoke_regressions(payload) == []

    def test_small_parallel_row_slower_than_cold_is_flagged(self):
        # every sweep size takes the kernel path, so no row is exempt
        payload = {"rows": [
            row("cold", 1.0, checked=46),
            row("parallel", 1.5, checked=46),
        ]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and "parallel" in bad[0]

    def test_rows_within_tolerance_pass(self):
        checked = 20_000
        payload = {"rows": [
            row("cold", 1.0, checked=checked),
            row("parallel", 1.09, checked=checked),
            # no cold row to compare with: gated by run_bench's counts
            row("parallel", 9.0, instance="big", checked=checked),
        ]}
        assert smoke_regressions(payload) == []

    def test_each_instance_is_judged_against_its_own_reference(self):
        payload = {"rows": [
            row("cold", 1.0, instance="fast"),
            row("parallel", 0.5, instance="fast"),
            row("cold", 0.1, instance="slow"),
            row("parallel", 0.5, instance="slow"),
        ]}
        bad = smoke_regressions(payload)
        assert len(bad) == 1 and bad[0].startswith("slow:")


def short_cert(cert):
    """*cert* one tolerated fault set short of its sweep."""
    return replace(cert, checked=cert.checked - 1, tolerated=cert.tolerated - 1)


class TestBenchRows:
    def test_parallel_row_counts_kernel_accepts(self):
        # kernel_accepted is parsed out of the certificate description,
        # so a reworded description would zero it silently
        payload = run_bench(["G(4,3)"])
        (par,) = [r for r in payload["rows"] if r["mode"] == "parallel"]
        assert par["kernel_accepted"] > 0
        assert par["kernel_accepted"] <= par["fault_sets_checked"]

    def test_engine_disagreeing_with_cold_fails_the_run(self, monkeypatch):
        real = bench.verify_exhaustive_parallel
        monkeypatch.setattr(
            bench, "verify_exhaustive_parallel",
            lambda *a, **kw: short_cert(real(*a, **kw)),
        )
        with pytest.raises(VerificationError, match="disagrees with cold"):
            run_bench(["G(3,2)"])

    def test_big_instance_short_of_the_full_count_fails_the_run(
        self, monkeypatch
    ):
        # G(14,4) has no cold row: its reference is sum C(28, j), j <= 4
        real = bench.verify_exhaustive_parallel
        monkeypatch.setattr(
            bench, "verify_exhaustive_parallel",
            lambda *a, **kw: short_cert(real(*a, **kw)),
        )
        monkeypatch.setattr(bench, "REPEATS", 1)
        with pytest.raises(VerificationError, match="of 24158 fault sets"):
            run_bench(["G(14,4)"])

    def test_big_instance_row_is_a_full_count_proof(self, monkeypatch):
        monkeypatch.setattr(bench, "REPEATS", 1)
        (par,) = run_bench(["G(14,4)"])["rows"]
        assert par["mode"] == "parallel" and par["verdict"] == "proof"
        assert par["fault_sets_checked"] == 24158


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
