"""Command-line interface: ``python -m repro <command> ...``.

Subcommands
-----------

``build``        construct G(n,k), print a structural summary
``verify``       exhaustive or sampled k-GD verification
``reconfigure``  embed a pipeline around a fault list
``audit``        degree-optimality table over an (n, k) grid
``export``       emit DOT / JSON / edge-list renderings
``search``       re-derive a special solution by constrained search
``serve``        drive the fleet control plane from a fault trace
``trace``        tail/filter/check trace files and flight-recorder dumps
``bench``        time the exhaustive engine (BENCH_verify.json) or, with
                 ``--service``, load-test the control plane
                 (BENCH_service.json)
``lint``         run the project's static analyzer against its baseline

Examples::

    python -m repro build 22 4
    python -m repro verify 6 2 --mode exhaustive
    python -m repro reconfigure 22 4 --fault c3 --fault ti2
    python -m repro audit --n 1-12 --k 1-3
    python -m repro export 8 2 --format dot
    python -m repro search 6 2 --max-degree 4 --trials 5000
    python -m repro serve --demo --events 200
    python -m repro serve --demo --trace-out TRACE.json --metrics-port 9100
    python -m repro serve --network 9x2 --network 13x2 --events 150
    python -m repro trace TRACE.json --waterfall
    python -m repro trace TRACE.json --check
    python -m repro bench --smoke
    python -m repro bench --instance "G(7,3)" --workers 4
    python -m repro bench --service --smoke
    python -m repro bench --service --events 600 --rate 300 --store fleet.db
    python -m repro lint --format json
    python -m repro lint src/repro/service --no-baseline
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import format_table, network_summary, optimality_audit, pipeline_ascii
from .analysis.export import to_adjacency_json, to_dot, to_edge_list
from .core.constructions import build
from .core.reconfigure import reconfigure
from .core.search import random_search_standard_solution
from .core.verify import verify_sampled
from .errors import ReproError


def _parse_range(spec: str) -> list[int]:
    """``"3"`` -> [3]; ``"1-4"`` -> [1, 2, 3, 4]; ``"1,3,5"`` -> [1,3,5].

    A reversed range like ``"5-2"`` is an error, not an empty list.
    """
    out: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = part.split("-", 1)
            if int(lo) > int(hi):
                raise ReproError(
                    f"reversed range {part!r}: lower bound {int(lo)} exceeds "
                    f"upper bound {int(hi)}"
                )
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def _add_nk(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("n", type=int, help="minimum pipeline length")
    parser.add_argument("k", type=int, help="fault tolerance")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gracefully degradable pipeline networks (Cypher & Laing, IPPS 1997)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct G(n,k) and summarize it")
    _add_nk(p)
    p.add_argument("--strict", action="store_true",
                   help="error on parameters the paper does not cover")

    p = sub.add_parser("verify", help="verify k-graceful-degradability")
    _add_nk(p)
    p.add_argument(
        "--mode",
        choices=["exhaustive", "sampled"],
        default="exhaustive",
        help="exhaustive: every fault set of size <= k on the witness "
        "kernel (a proof); sampled: random and adversarial fault sets",
    )
    p.add_argument("--trials", type=int, default=300, help="sampled mode trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=None,
                   help="exhaustive mode worker count (default: auto "
                        "dispatch, in-process for small sweeps or on one "
                        "CPU, else one worker per CPU)")

    p = sub.add_parser("reconfigure", help="embed a pipeline around faults")
    _add_nk(p)
    p.add_argument("--fault", action="append", default=[], metavar="NODE",
                   help="faulty node (repeatable)")

    p = sub.add_parser("audit", help="degree-optimality table")
    p.add_argument("--n", default="1-12", help="n range, e.g. 1-12 or 3,5,7")
    p.add_argument("--k", default="1-3", help="k range")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("export", help="emit a rendering of G(n,k)")
    _add_nk(p)
    p.add_argument("--format", choices=["dot", "json", "edges"], default="dot")

    p = sub.add_parser("search", help="search for a standard solution")
    _add_nk(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("catalog", help="list the construction families")
    p.add_argument("--n", type=int, default=None,
                   help="with --k: show only families covering (n, k)")
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser(
        "report",
        help="one-shot reproduction report (verify + audit + regression corpus)",
    )
    p.add_argument("--out", default="-",
                   help="output file ('-' = stdout)")
    p.add_argument("--quick", action="store_true",
                   help="skip the slower verification layers")

    p = sub.add_parser(
        "serve",
        help="run the fleet reconfiguration control plane on a fault trace",
    )
    p.add_argument("--demo", action="store_true",
                   help="use the built-in five-network demo fleet")
    p.add_argument("--network", action="append", default=[], metavar="NxK",
                   help="fleet member as NxK, e.g. 9x2 (repeatable)")
    p.add_argument("--events", type=int, default=150,
                   help="total fault/repair/query events to drive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=4,
                   help="worker pool size")
    p.add_argument("--cache-size", type=int, default=256,
                   help="witness cache capacity (rows)")
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="solve-latency budget; above it solves degrade to "
                        "the construction fast path")
    p.add_argument("--max-pending", type=int, default=64,
                   help="per-network admission bound (overflow is shed)")
    p.add_argument("--query-ratio", type=float, default=0.2,
                   help="fraction of trace events that are pipeline queries")
    p.add_argument("--trace", action="store_true",
                   help="enable causal tracing + the flight recorder")
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write finished spans to PATH as a trace file "
                        "(implies --trace; inspect with 'repro trace')")
    p.add_argument("--trace-dump-dir", default=None, metavar="DIR",
                   help="flight-recorder anomaly dumps go here "
                        "(implies --trace)")
    p.add_argument("--metrics-port", type=int, default=None, metavar="N",
                   help="serve Prometheus/JSON metrics over HTTP on port N "
                        "for the duration of the run (demo mode)")
    p.add_argument("--race-detect", action="store_true",
                   help="attach the runtime sanitizers (lock-order monitor "
                        "+ Eraser-style lockset race detector) to the plane; "
                        "exit nonzero on any observed race or order cycle")

    p = sub.add_parser(
        "trace",
        help="tail, filter, check and render trace files and "
             "flight-recorder dumps",
    )
    from .obs.cli import add_trace_arguments

    add_trace_arguments(p)

    p = sub.add_parser(
        "bench",
        help="benchmark the exhaustive engine against its cold oracle "
             "or, with --service, the control plane under open-loop load",
    )
    p.add_argument("--out", default="BENCH_verify.json",
                   help="JSON output path ('-' = stdout only; default "
                        "BENCH_service.json in --service mode)")
    p.add_argument("--smoke", action="store_true",
                   help="quick subset; exit nonzero when the engine runs "
                        ">10%% plus 50 ms slower than the cold sweep")
    p.add_argument("--instance", action="append", default=[], metavar="NAME",
                   help="catalog instance to run (repeatable; default all)")
    p.add_argument("--workers", type=int, default=None,
                   help="engine worker count (default: auto dispatch, "
                        "in-process for small sweeps or on one CPU, else "
                        "one worker per CPU; 4 in --service mode)")
    p.add_argument("--service", action="store_true",
                   help="benchmark the service plane instead: replay an "
                        "open-loop fault/repair/query trace against a live "
                        "control plane, cold store then warm store, writing "
                        "BENCH_service.json")
    p.add_argument("--events", type=int, default=None,
                   help="[service] trace events per phase")
    p.add_argument("--rate", type=float, default=None,
                   help="[service] open-loop arrival rate, events/second")
    p.add_argument("--seed", type=int, default=0,
                   help="[service] trace seed")
    p.add_argument("--profile", choices=["pool", "poisson"], default="pool",
                   help="[service] workload generator")
    p.add_argument("--store", default=None, metavar="PATH",
                   help="[service] witness store path (default: a temporary "
                        "file; an explicit path is truncated then kept)")
    p.add_argument("--dump-dir", default=None, metavar="DIR",
                   help="[service] write flight-recorder dumps here when "
                        "the load run raises anomalies")

    p = sub.add_parser(
        "lint",
        help="AST-based concurrency/determinism analyzer with a ratchet baseline",
    )
    from .lint.cli import add_lint_arguments

    add_lint_arguments(p)
    return parser


def cmd_build(args) -> int:
    net = build(args.n, args.k, strict=args.strict)
    print(network_summary(net))
    plan = net.meta.get("plan")
    if plan is not None:
        print(
            f"route: {plan.base}+{plan.extensions}ext per {plan.source}; "
            f"degree-optimal: {'yes' if plan.degree_optimal else 'no'}"
        )
    return 0


def cmd_verify(args) -> int:
    net = build(args.n, args.k)
    if args.mode == "exhaustive":
        from .core.verify import verify_exhaustive_parallel

        cert = verify_exhaustive_parallel(net, workers=args.workers)
    else:
        cert = verify_sampled(net, trials=args.trials, rng=args.seed)
    print(cert.summary())
    return 0 if cert.ok else 1


def cmd_reconfigure(args) -> int:
    net = build(args.n, args.k)
    pipeline = reconfigure(net, args.fault)
    print(pipeline_ascii(pipeline))
    print(f"{pipeline.length} stages (all healthy processors in use)")
    return 0


def cmd_audit(args) -> int:
    rows = optimality_audit(
        _parse_range(args.n), _parse_range(args.k), strict=args.strict
    )
    print(
        format_table(
            ["n", "k", "construction", "max deg", "bound", "optimal"],
            [
                [
                    r.n,
                    r.k,
                    f"{r.base}+{r.extensions}ext" if r.extensions else r.base,
                    r.max_degree,
                    r.lower_bound,
                    "yes" if r.optimal else f"+{r.overhead}",
                ]
                for r in rows
            ],
        )
    )
    return 0


def cmd_export(args) -> int:
    net = build(args.n, args.k)
    if args.format == "dot":
        print(to_dot(net))
    elif args.format == "json":
        print(to_adjacency_json(net, indent=2))
    else:
        print(to_edge_list(net))
    return 0


def cmd_search(args) -> int:
    result = random_search_standard_solution(
        args.n, args.k, args.max_degree, trials=args.trials, rng=args.seed
    )
    if not result.found:
        print(f"no solution in {result.trials_used} trials")
        return 1
    print(f"found after {result.trials_used} trials")
    print(network_summary(result.network))
    print(f"proc edges: {result.proc_edges}")
    print(f"inputs at {result.input_at}; outputs at {result.output_at}")
    return 0


def cmd_catalog(args) -> int:
    from .core.constructions.catalog import catalog_entries, supporting_entries

    if (args.n is None) != (args.k is None):
        print("error: --n and --k must be given together", file=sys.stderr)
        return 2
    entries = (
        supporting_entries(args.n, args.k)
        if args.n is not None
        else list(catalog_entries())
    )
    print(
        format_table(
            ["family", "source", "parameters", "degree"],
            [[e.name, e.source, e.parameters, e.degree] for e in entries],
        )
    )
    return 0


def cmd_report(args) -> int:
    from .analysis.reporting import format_markdown_table
    from .core.verify import verify_exhaustive_parallel
    from .core.verify.regression import replay

    lines: list[str] = [
        "# Reproduction report — Gracefully Degradable Pipeline Networks",
        "",
        "Generated by `python -m repro report`.",
        "",
        "## Degree optimality (Theorems 3.13/3.15/3.16)",
        "",
    ]
    rows = optimality_audit(range(1, 13), [1, 2, 3])
    lines.append(
        format_markdown_table(
            ["n", "k", "construction", "max degree", "bound", "optimal"],
            [
                [r.n, r.k, r.base, r.max_degree, r.lower_bound,
                 "yes" if r.optimal else "NO"]
                for r in rows
            ],
        )
    )
    bad = [r for r in rows if not r.optimal]
    lines += ["", f"Optimal rows: {len(rows) - len(bad)}/{len(rows)}.", ""]

    lines += ["## Exhaustive machine proofs", ""]
    proof_cases = [(1, 2), (2, 2), (3, 2), (6, 2)] if args.quick else [
        (1, 2), (2, 2), (3, 2), (6, 2), (8, 2), (4, 3), (7, 3)
    ]
    proof_rows = []
    all_proved = True
    for n, k in proof_cases:
        cert = verify_exhaustive_parallel(build(n, k))
        all_proved &= cert.is_proof
        proof_rows.append(
            [f"G({n},{k})", cert.checked,
             "PROOF" if cert.is_proof else "FAILED"]
        )
    lines.append(
        format_markdown_table(["instance", "fault sets", "verdict"], proof_rows)
    )

    lines += ["", "## Solver regression corpus", ""]
    failures = replay()
    lines.append(
        f"{'PASS' if not failures else 'FAIL'} — "
        f"{len(failures)} disagreement(s) out of the frozen corpus."
    )
    body = "\n".join(lines) + "\n"
    if args.out == "-":
        print(body)
    else:
        with open(args.out, "w") as fh:
            fh.write(body)
        print(f"wrote {args.out}")
    return 0 if (all_proved and not bad and not failures) else 1


def cmd_bench(args) -> int:
    if args.service:
        return _cmd_bench_service(args)
    from .core.verify.bench import (
        SMOKE_CATALOG,
        format_bench_table,
        run_bench,
        smoke_regressions,
        write_bench,
    )

    instances = args.instance or (list(SMOKE_CATALOG) if args.smoke else None)
    payload = run_bench(
        instances,
        workers=args.workers,
        progress=lambda name: print(f"benchmarking {name} ...", file=sys.stderr),
    )
    print(format_bench_table(payload))
    if args.out != "-":
        write_bench(payload, args.out)
        print(f"wrote {args.out}")
    if args.smoke:
        regressions = smoke_regressions(payload)
        for line in regressions:
            print(f"regression: {line}", file=sys.stderr)
        if regressions:
            return 1
        print(
            "smoke gate: engine certificates agree with cold (full counts "
            "where cold is skipped), engine within 10% + 50 ms of cold"
        )
    return 0


def _cmd_bench_service(args) -> int:
    from .core.verify.bench import write_bench
    from .service.loadgen import (
        format_service_table,
        run_service_bench,
        service_smoke_regressions,
    )

    print("replaying service load (cold store, then warm) ...", file=sys.stderr)
    payload = run_service_bench(
        smoke=args.smoke,
        events=args.events,
        rate=args.rate,
        seed=args.seed,
        workers=args.workers if args.workers is not None else 4,
        profile=args.profile,
        store_path=args.store,
        dump_dir=args.dump_dir,
    )
    print(format_service_table(payload))
    out = "BENCH_service.json" if args.out == "BENCH_verify.json" else args.out
    if out != "-":
        write_bench(payload, out)
        print(f"wrote {out}")
    if args.smoke:
        regressions = service_smoke_regressions(payload)
        for line in regressions:
            print(f"regression: {line}", file=sys.stderr)
        if regressions:
            return 1
        print(
            "smoke gate: warm start loaded, no validation failures, "
            "warm p95 query latency within 10% of cold"
        )
    return 0


def cmd_lint(args) -> int:
    from .lint.cli import cmd_lint as run

    return run(args)


def cmd_trace(args) -> int:
    from .obs.cli import cmd_trace as run

    return run(args)


def cmd_serve(args) -> int:
    from .service import (
        ControlPlane,
        ControlPlaneConfig,
        random_trace,
        run_demo,
        run_trace,
    )

    if args.events < 1:
        raise ReproError("--events must be >= 1")
    if args.workers < 1:
        raise ReproError("--workers must be >= 1")
    if args.cache_size < 1:
        raise ReproError("--cache-size must be >= 1")
    if args.max_pending < 1:
        raise ReproError("--max-pending must be >= 1")
    tracing = args.trace or args.trace_out is not None or args.trace_dump_dir is not None

    sanitizers: dict = {}
    instrument = None
    if args.race_detect:
        from .lint.sanitizer import (
            LockOrderMonitor,
            RaceDetector,
            default_guard_model,
            instrument_plane,
            instrument_races,
        )

        guards = default_guard_model()

        def instrument(plane):  # noqa: F811 - intentional rebind from None
            monitor = LockOrderMonitor(strict=True, recorder=plane.recorder)
            detector = RaceDetector(monitor, recorder=plane.recorder)
            instrument_plane(plane, monitor)
            instrument_races(plane, detector, guards)
            sanitizers.update(
                monitor=monitor, detector=detector, guards=guards
            )

    if args.demo or not args.network:
        report, snap = run_demo(
            events=args.events,
            seed=args.seed,
            workers=args.workers,
            cache_capacity=args.cache_size,
            deadline=args.deadline,
            query_ratio=args.query_ratio,
            tracing=tracing,
            trace_out=args.trace_out,
            trace_dump_dir=args.trace_dump_dir,
            metrics_port=args.metrics_port,
            instrument=instrument,
        )
    else:
        config = ControlPlaneConfig(
            workers=args.workers,
            cache_capacity=args.cache_size,
            deadline=args.deadline,
            max_pending=args.max_pending,
            tracing=tracing,
            trace_dump_dir=args.trace_dump_dir,
        )
        with ControlPlane(config) as plane:
            for i, spec in enumerate(args.network):
                try:
                    n_s, k_s = spec.lower().split("x", 1)
                    n, k = int(n_s), int(k_s)
                except ValueError:
                    raise ReproError(
                        f"bad --network spec {spec!r}: expected NxK, e.g. 9x2"
                    ) from None
                plane.register(f"net{i}-{n}x{k}", n=n, k=k)
            if instrument is not None:
                instrument(plane)
            trace = random_trace(
                plane,
                args.events,
                seed=args.seed,
                query_ratio=args.query_ratio,
            )
            report = run_trace(plane, trace)
            snap = plane.snapshot()
            if args.trace_out is not None:
                from .obs.cli import write_trace_file

                write_trace_file(
                    args.trace_out,
                    plane.tracer.spans(),
                    meta={"source": "serve", "events": len(trace),
                          "seed": args.seed},
                )
    if args.trace_out is not None:
        print(f"wrote {args.trace_out}")
    print(snap.summary())
    degraded = sum(1 for a in report.answers if a.degraded)
    stale = sum(1 for a in report.answers if a.stale)
    print(
        f"trace: {len(report.records)} applied, {len(report.answers)} answered "
        f"({degraded} degraded, {stale} stale), "
        f"{report.shed} shed, {len(report.errors)} errors"
    )
    for err in report.errors:
        print(f"  error: {err}", file=sys.stderr)
    sanitizer_ok = True
    if args.race_detect and sanitizers:
        from .lint.sanitizer import crosscheck_locksets

        detector = sanitizers["detector"]
        monitor = sanitizers["monitor"]
        races = detector.races()
        cycle = monitor.find_cycle()
        mismatches = crosscheck_locksets(detector, sanitizers["guards"])
        print(
            f"race-detect: {len(races)} race(s), "
            f"{len(detector.locksets())} narrowed lockset(s), "
            f"lock-order {'CYCLE' if cycle else 'acyclic'}, "
            f"{len(mismatches)} static/dynamic mismatch(es)"
        )
        for race in races:
            print(f"  race: {race.message}", file=sys.stderr)
        if cycle is not None:
            order = " -> ".join([*cycle, cycle[0]])
            print(f"  lock-order cycle: {order}", file=sys.stderr)
        for mismatch in mismatches:
            print(f"  lockset mismatch: {mismatch}", file=sys.stderr)
        sanitizer_ok = not races and cycle is None and not mismatches
    return 0 if report.ok and sanitizer_ok else 1


_COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "reconfigure": cmd_reconfigure,
    "audit": cmd_audit,
    "export": cmd_export,
    "search": cmd_search,
    "catalog": cmd_catalog,
    "report": cmd_report,
    "serve": cmd_serve,
    "trace": cmd_trace,
    "bench": cmd_bench,
    "lint": cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # output piped into a closed reader (e.g. head)
        try:
            sys.stdout.close()
        except (OSError, ValueError):
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
