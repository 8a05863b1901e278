"""One workload step in a fresh process (spawned by ``run.py``).

Modes: ``fill`` prepares a store, ``setup`` stops once the workload is
ready for its first sweep or request (so set-up can be timed several
times per run), ``run`` measures.  The result goes to ``--result`` as
JSON; a failed gate is reported there, not by the exit code, except
that a run whose plane hung exits 1 without closing it.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

#: a child still running this long dumps every thread's stack and exits
WATCHDOG_S = 160.0


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--mode", choices=("fill", "setup", "run"), required=True)
    p.add_argument("--t-spawn", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--store", type=Path)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args()

    with open(args.workdir / f"watchdog-{args.mode}-{os.getpid()}.txt",
              "w") as watchdog:
        faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=watchdog)
        try:
            hung = run(args)
        finally:
            faulthandler.cancel_dump_traceback_later()
    if hung:
        sys.stdout.flush()
        os._exit(1)


def run(args) -> bool:
    """Run the step and write its result; ``True`` when a plane hung."""
    import repro  # set-up time includes the import
    import workloads

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"repro was imported from {repro.__file__}, not {SRC}")

    ctx = workloads.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), mode=args.mode, workdir=args.workdir,
        store=args.store, t_spawn=args.t_spawn,
    )
    traced = ctx.trace and ctx.mode == "run"
    if traced:
        import layers

        ctx.rec = layers.Recorder()
        ctx.rec.worker_dir = args.workdir
    workloads.run(ctx)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if traced:
        layers.write_trace(args.workdir / "trace.json", ctx.rec)
    args.result.write_text(json.dumps({
        "setup_s": ctx.setup_s,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "errors": ctx.errors,
        "metrics": {**ctx.metrics, "peak_rss_mb": rss_kb / 1024},
        "detail": ctx.detail,
    }))
    return ctx.hung


if __name__ == "__main__":
    main()
