"""Benchmark runner: certificates and the control plane.

    python3 bench/run.py [--workload W]... [--seed S] [--seconds N]
                         [--trace [0|1]] [--out F]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Each workload runs in fresh child processes (``child.py``): a few that
only set up (set-up time is the median over them and the measuring
run), then the measuring run.  Every metric is printed by name with its
unit; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer
metrics.  The exit code is 1 when any output failed its correctness
gate, and 2 (with no JSON line) when a step crashed.
"""

from __future__ import annotations

import argparse
import ctypes
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUP_REPEATS = 4
#: every step of one workload must end by then, so a run of one
#: workload exits within 180 s
RUN_BUDGET_S = 170.0
TRACEBACK = "Traceback (most recent call last):"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(rows: list[dict]) -> dict[str, str]:
    return {r["name"]: r["unit"] for r in rows}


def become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers, the resource tracker)
    so they can be waited for."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def reap_group(pgid: int, grace: float = 5.0) -> None:
    """Wait until no process of the child's group is left, killing
    stragglers after *grace* seconds."""
    deadline = time.monotonic() + grace
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                return  # unkillable: nothing more to do
            os.killpg(pgid, signal.SIGKILL)
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.02)


def shm_segments() -> int:
    try:
        return sum(1 for n in os.listdir("/dev/shm") if n.startswith("psm_"))
    except OSError:
        return 0


def host_probe_ms(rounds: int = 15) -> float:
    """Median time of a fixed pure-Python loop, in ms: how fast the host
    ran next to a workload, so that a spread between runs of the same
    commit can be told apart from the program's own variation."""
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        s = 0
        for i in range(100_000):
            s += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class StepFailed(Exception):
    pass


class WorkloadRun:
    """Every child process of one workload, and what they left."""

    def __init__(self, name: str, args, deadline: float) -> None:
        self.name = name
        self.args = args
        self.deadline = deadline
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        self.stderr: list[str] = []
        self.steps = 0

    def spawn(self, mode: str, store: Path | None = None) -> dict:
        self.steps += 1
        result = self.workdir / f"result-{self.steps}.json"
        log = self.workdir / f"stderr-{self.steps}.txt"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.name, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds),
               "--trace", str(self.args.trace), "--mode", mode,
               "--workdir", str(self.workdir), "--result", str(result)]
        if store is not None:
            cmd += ["--store", str(store)]
        env = dict(os.environ, PYTHONHASHSEED="0")
        with open(log, "w") as err:
            cmd += ["--t-spawn", repr(time.monotonic())]
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                    stderr=err, env=env,
                                    start_new_session=True)
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            rc = proc.wait()
        reap_group(proc.pid)
        self.stderr.append(log.read_text(errors="replace"))
        if not result.exists():
            tail = self.stderr[-1].strip().splitlines()[-5:]
            raise StepFailed(
                f"{self.name}: {mode} step exited {rc} without a result"
                + "".join(f"\n  {line}" for line in tail))
        return json.loads(result.read_text())

    def store_copy(self, label: str) -> Path:
        path = self.workdir / f"store-{label}.db"
        filled = self.workdir / "filled.db"
        if filled.exists():
            shutil.copyfile(filled, path)
        return path

    def execute(self) -> dict:
        import workloads  # no program import: the spec tables only

        spec = workloads.WORKLOADS[self.name]
        serve = isinstance(spec, workloads.ServeSpec)
        shm_before = shm_segments()
        probe_before = host_probe_ms()
        if serve and spec.prefill:
            self.spawn("fill", self.workdir / "filled.db")
        setups = []
        if not self.args.trace:
            for i in range(SETUP_REPEATS):
                store = self.store_copy(f"setup-{i}") if serve else None
                setups.append(self.spawn("setup", store)["setup_s"])
        res = self.spawn("run", self.store_copy("run") if serve else None)
        setups.append(res["setup_s"])
        errors = self.stderr_report()
        res["detail"]["setup_s_samples"] = setups
        res["detail"]["host_probe_ms"] = [probe_before, host_probe_ms()]
        res["detail"]["stderr_tracebacks"] = errors["tracebacks"]
        res["metrics"]["setup_s"] = median(setups)
        res["metrics"]["shm.leaked_segments"] = max(0, shm_segments() - shm_before)
        res["metrics"]["shm.tracker_errors"] = errors["tracker"]
        return res

    def stderr_report(self) -> dict:
        blocks = [b for text in self.stderr for b in text.split(TRACEBACK)[1:]]
        return {"tracebacks": len(blocks),
                "tracker": sum("resource_tracker" in b for b in blocks)}

    def keep(self, out: Path, several: bool) -> None:
        """Move the trace and any stack dumps next to *out*."""
        stem = f"{out}.{self.name}" if several else str(out)
        trace = self.workdir / "trace.json"
        if trace.exists():
            shutil.move(trace, f"{stem}.trace.json")
        for dump in [*self.workdir.glob("stacks-*.txt"),
                     *self.workdir.glob("watchdog-*.txt")]:
            if dump.stat().st_size:
                shutil.move(dump, out.parent / f"{self.name}-{dump.name}")
        shutil.rmtree(self.workdir, ignore_errors=True)


def main() -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append",
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--out", type=Path, default=WORK / "result.json",
                   help="results file (default: bench/.work/result.json)")
    args = p.parse_args()

    metric_units = units(spec["per_layer" if args.trace else "end_to_end"])
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    for name in names:
        if name not in known:
            p.error(f"unknown workload {name!r}")
    WORK.mkdir(exist_ok=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    become_subreaper()
    results = {}
    for name in names:
        run = WorkloadRun(name, args, time.monotonic() + RUN_BUDGET_S)
        try:
            res = run.execute()
        except StepFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            run.keep(args.out, len(names) > 1)
            return 2
        run.keep(args.out, len(names) > 1)
        missing = [m for m in metric_units if m not in res["metrics"]]
        res["unmeasured"] = missing
        res["correct"] = res["failed"] == 0 and res["attempted"] > 0
        results[name] = res
        for metric, unit in metric_units.items():
            value = res["metrics"].get(metric)
            shown = "-" if value is None else f"{value:.6g}"
            print(f"{name:<20} {metric:<32} {shown:>14} {unit}")
        samples = res["detail"].get("samples", {})
        if samples:
            print(f"{name:<20} samples: "
                  + ", ".join(f"{k} {v}" for k, v in samples.items()))
        for err in res["errors"]:
            print(f"{name:<20} gate failed: {err}")
        if res["detail"].get("drift"):
            print(f"{name:<20} live builds differ from frozen inputs: "
                  f"{', '.join(res['detail']['drift'])}")
        print(f"{name:<20} attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}", flush=True)

    meta = {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    args.out.write_text(json.dumps({"meta": meta, "workloads": results},
                                   indent=1, sort_keys=True) + "\n")

    def metrics_of(res: dict, prefix: str = "") -> dict:
        return {prefix + m: {"value": float(res["metrics"].get(m, 0.0)),
                             "unit": unit} for m, unit in metric_units.items()}

    if len(names) == 1:
        metrics = metrics_of(results[names[0]])
    else:
        metrics = {k: v for n in names
                   for k, v in metrics_of(results[n], f"{n}.").items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
