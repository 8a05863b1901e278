"""Verification performance benchmark (``python -m repro bench``).

Times the three exhaustive sweep engines — cold serial
(:func:`~repro.core.verify.exhaustive.verify_exhaustive`), warm-started
serial (:func:`~repro.core.verify.warm.verify_exhaustive_warm`) and the
Gray-range witness-kernel sweep
(:func:`~repro.core.verify.parallel.verify_exhaustive_parallel`,
in-process or on a worker pool) — over a fixed catalog of instances:
the small standard constructions, the paper's four computer-checked
specials, a Theorem 3.17 instance at k=4 and vertex-transitive
circulants.  Every run cross-checks the engines against each other
(identical verdicts and multiplicity-weighted ``checked``/``tolerated``
counts) before reporting a speedup, so a "fast" result that changed an
answer fails loudly instead of flattering the benchmark.

Results go to ``BENCH_verify.json``; one row per (instance, mode):

``instance``            catalog name, e.g. ``"G(7,3)"``
``mode``                ``"cold"`` / ``"warm"`` / ``"parallel"``
``k``                   fault budget swept
``verdict``             ``"proof"`` / ``"counterexample"`` / ``"undecided"``
``fault_sets_checked``  multiplicity-weighted sets decided
``wall_time_s``         sweep wall-clock seconds, median of
                        :data:`REPEATS` runs
``fault_sets_per_sec``  checked / wall — the throughput headline
``solver_calls``        exact-solver invocations (< checked when warm)
``nodes_expanded``      total search nodes across those calls
``adapted``             sets decided by witness splicing alone
``kernel_accepted``     sets decided by the witness kernel
``speedup_vs_cold``     cold wall time / this mode's wall time
``parallel_vs_warm``    warm wall time / parallel wall time (parallel rows)

Instances in :data:`BIG_INSTANCES` skip the cold reference sweep (it
would take minutes for zero information — warm already agrees with cold
on the small catalog, so warm is the cross-check reference there).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Hashable

from ..._util import host_meta
from ...errors import VerificationError
from ...obs.exposition import phase_breakdown
from ...obs.spans import Tracer
from ..constructions import build, build_g1k, build_special
from ..hamilton import SolvePolicy
from ..model import PipelineNetwork
from .certificates import VerificationCertificate
from .exhaustive import verify_exhaustive
from .parallel import verify_exhaustive_parallel
from .warm import verify_exhaustive_warm

Node = Hashable

def _ring_instance() -> PipelineNetwork:
    # lazy: repro.service imports repro.core, so the reverse edge must
    # not run at module import time
    from ...service.trace import demo_ring_network

    return demo_ring_network()


def _big_ring(m: int, k: int, offsets: tuple[int, ...]) -> PipelineNetwork:
    """A circulant ring like :func:`demo_ring_network` but with a chosen
    fault budget *k* — the scale tier where the witness kernel's
    bit-parallelism dominates the per-set warm loop."""
    import networkx as nx

    from ...graphs.circulant import circulant_graph

    core = circulant_graph(m, offsets)
    g = nx.Graph()
    for a, b in core.edges:
        g.add_edge(f"c{a}", f"c{b}")
    inputs: list[str] = []
    outputs: list[str] = []
    for j in range(m):
        g.add_edge(f"ti{j}", f"c{j}")
        g.add_edge(f"c{j}", f"to{j}")
        inputs.append(f"ti{j}")
        outputs.append(f"to{j}")
    return PipelineNetwork(
        g, inputs, outputs, n=m - 2, k=k, meta={"construction": "demo-ring"}
    )


#: the full catalog: standard constructions G(1,k)/G(2,k)/G(3,k) at k=2,
#: the paper's four specials, a vertex-transitive circulant, the
#: Theorem 3.17 instance G(14,4) (28 nodes, 24,158 fault sets), and two
#: big k=3 circulants sized so only the witness kernel finishes quickly.
CATALOG: tuple[tuple[str, Callable[[], PipelineNetwork]], ...] = (
    ("G(1,2)", lambda: build_g1k(2)),
    ("G(2,2)", lambda: build(2, 2)),
    ("G(3,2)", lambda: build(3, 2)),
    ("G(6,2)", lambda: build_special(6, 2)),
    ("G(8,2)", lambda: build_special(8, 2)),
    ("G(4,3)", lambda: build_special(4, 3)),
    ("G(7,3)", lambda: build_special(7, 3)),
    ("G(14,4)", lambda: build(14, 4)),
    ("ring-C8(1,2)", _ring_instance),
    ("ring-C16(1,2)k3", lambda: _big_ring(16, 3, (1, 2))),
    ("ring-C48(1,2,3)k3", lambda: _big_ring(48, 3, (1, 2, 3))),
)

#: instances too large for the cold per-set rebuild sweep: skip the cold
#: reference and cross-check parallel against warm instead.
BIG_INSTANCES: frozenset[str] = frozenset(
    {"G(14,4)", "ring-C16(1,2)k3", "ring-C48(1,2,3)k3"}
)

#: quick subset for the CI smoke gate: one construction, two specials,
#: and two instances big enough for automatic dispatch to fork a pool;
#: G(14,4)'s residue grows hundreds of conditional witnesses, so the
#: engine cross-check covers the kernel's conditional tier.
SMOKE_CATALOG: tuple[str, ...] = (
    "G(3,2)",
    "G(6,2)",
    "G(4,3)",
    "G(14,4)",
    "ring-C16(1,2)k3",
)


#: timed runs per (instance, engine); a row reports the median run, so
#: one scheduler stall cannot set a millisecond-scale row.
REPEATS = 3


def _verdict(cert: VerificationCertificate) -> str:
    if cert.counterexample is not None:
        return "counterexample"
    if cert.undecided:
        return "undecided"
    return "proof"


def _desc_count(cert: VerificationCertificate, marker: str) -> int:
    """Counter recovered from the sweep description (``"N <marker>"``)."""
    desc = cert.network_description
    if f" {marker}" in desc:
        head = desc.split(f" {marker}")[0]
        tail = head.rsplit(" ", 1)[-1].lstrip("[:,")
        if tail.isdigit():
            return int(tail)
    return 0


def _adapted(cert: VerificationCertificate) -> int:
    """Witness-splice count, recovered from the sweep description."""
    return _desc_count(cert, "adapted")


def _kernel_accepted(cert: VerificationCertificate) -> int:
    """Witness-kernel accept count, from the description."""
    return _desc_count(cert, "kernel")


def _median_run(
    sweep: Callable[[], VerificationCertificate],
    tracer: Tracer | None = None,
    **attrs,
) -> tuple[VerificationCertificate, float, dict | None]:
    """Run *sweep* :data:`REPEATS` times; the certificate, wall time and
    phase breakdown (traced runs only) of the median-time run."""
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        if tracer is None:
            cert = sweep()
        else:
            with tracer.span("sweep", **attrs):
                cert = sweep()
        wall = time.perf_counter() - t0
        phases = phase_breakdown(tracer.drain()) if tracer else None
        runs.append((wall, cert, phases))
    runs.sort(key=lambda run: run[0])
    wall, cert, phases = runs[len(runs) // 2]
    return cert, wall, phases


def _row(
    instance: str,
    mode: str,
    cert: VerificationCertificate,
    wall: float,
    cold_wall: float | None,
    phases: dict | None = None,
    warm_wall: float | None = None,
) -> dict:
    return {
        "instance": instance,
        "mode": mode,
        "k": cert.k,
        "verdict": _verdict(cert),
        "fault_sets_checked": cert.checked,
        "wall_time_s": round(wall, 6),
        "fault_sets_per_sec": (
            round(cert.checked / wall, 1) if wall > 0 else None
        ),
        "solver_calls": cert.solver_calls,
        "nodes_expanded": cert.nodes_expanded,
        "adapted": _adapted(cert),
        "kernel_accepted": _kernel_accepted(cert),
        "speedup_vs_cold": (
            round(cold_wall / wall, 3) if cold_wall and wall > 0 else None
        ),
        "parallel_vs_warm": (
            round(warm_wall / wall, 3)
            if mode == "parallel" and warm_wall and wall > 0
            else None
        ),
        #: per-phase latency breakdown (span name -> histogram summary);
        #: empty for the untraced cold reference sweep
        "phases": phases or {},
    }


def run_bench(
    instances: list[str] | None = None,
    *,
    workers: int | None = None,
    policy: SolvePolicy | None = None,
    progress: Callable[[str], None] | None = None,
) -> dict:
    """Benchmark every requested catalog instance across all three
    engines, each timed as the median of :data:`REPEATS` runs; returns
    the ``BENCH_verify.json`` payload.

    Raises :class:`~repro.errors.VerificationError` when any engine
    disagrees with the cold sweep on verdict or counts — a benchmark
    must never trade correctness for speed silently.
    """
    policy = policy or SolvePolicy()
    catalog = dict(CATALOG)
    names = list(catalog) if instances is None else list(instances)
    unknown = [n for n in names if n not in catalog]
    if unknown:
        raise VerificationError(f"unknown bench instances: {unknown!r}")
    rows: list[dict] = []
    # per-phase timing: the warm and parallel sweeps run under a root
    # span, so their solver-tier child spans (warm_rotate / exact_solve /
    # verify_chunk) fold into a phase breakdown per row.  The cold sweep
    # stays untraced — it is the overhead-free reference the speedup and
    # regression gates compare against.
    tracer = Tracer(ring=1 << 16)
    for name in names:
        network = catalog[name]()
        if progress is not None:
            progress(name)
        cold = cold_wall = None
        if name not in BIG_INSTANCES:
            cold, cold_wall, _ = _median_run(
                lambda: verify_exhaustive(network, policy=policy)
            )
        warm, warm_wall, warm_phases = _median_run(
            lambda: verify_exhaustive_warm(network, policy=policy),
            tracer, instance=name, mode="warm",
        )
        par, par_wall, par_phases = _median_run(
            lambda: verify_exhaustive_parallel(
                network, policy=policy, workers=workers
            ),
            tracer, instance=name, mode="parallel",
        )
        reference = cold if cold is not None else warm
        ref_name = "cold" if cold is not None else "warm"
        for mode, cert in (("warm", warm), ("parallel", par)):
            if cert is reference:
                continue
            if (
                _verdict(cert) != _verdict(reference)
                or cert.checked != reference.checked
                or cert.tolerated != reference.tolerated
            ):
                raise VerificationError(
                    f"{name}: {mode} sweep disagrees with {ref_name} sweep "
                    f"({cert.summary()} vs {reference.summary()})"
                )
        if cold is not None:
            rows.append(_row(name, "cold", cold, cold_wall, None))
        rows.append(
            _row(name, "warm", warm, warm_wall, cold_wall, warm_phases)
        )
        rows.append(
            _row(
                name,
                "parallel",
                par,
                par_wall,
                cold_wall,
                par_phases,
                warm_wall=warm_wall,
            )
        )
    return {
        "meta": {
            "benchmark": "verify",
            **host_meta(),
            "workers": workers,
            "instances": names,
        },
        "rows": rows,
    }


def write_bench(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_bench_table(payload: dict) -> str:
    """Human-readable rendering of a bench payload."""
    lines = [
        f"{'instance':<18} {'mode':<9} {'sets':>7} {'solves':>7} "
        f"{'kernel':>7} {'wall_s':>9} {'sets/s':>10} {'speedup':>8}  verdict"
    ]
    for row in payload["rows"]:
        speedup = row["speedup_vs_cold"] or row.get("parallel_vs_warm")
        rate = row.get("fault_sets_per_sec")
        lines.append(
            f"{row['instance']:<18} {row['mode']:<9} "
            f"{row['fault_sets_checked']:>7} {row['solver_calls']:>7} "
            f"{row.get('kernel_accepted', 0):>7} {row['wall_time_s']:>9.4f} "
            f"{(f'{rate:,.0f}' if rate else '-'):>10} "
            f"{(f'{speedup:.1f}x' if speedup else '-'):>8}  {row['verdict']}"
        )
    return "\n".join(lines)


def smoke_regressions(
    payload: dict, tolerance: float = 0.10, slack_s: float = 0.05
) -> list[str]:
    """Performance regressions the CI smoke gate fails on.

    Two checks per instance:

    * the warm sweep must not run more than *tolerance* slower than the
      cold reference (keeps the warm path from quietly rotting);
    * the parallel sweep must not run more than *tolerance* slower than
      warm — the witness kernel's whole reason to exist is beating the
      per-set warm loop, so losing to it is a regression, not noise.

    *slack_s* is an absolute allowance on top of the relative tolerance:
    the millisecond-scale instances sit well inside scheduler noise (a
    single ~20 ms stall lands on a random row), so only overruns that
    clear both the ratio and the absolute slack count as regressions.
    """
    cold_by_instance = {
        r["instance"]: r["wall_time_s"]
        for r in payload["rows"]
        if r["mode"] == "cold"
    }
    warm_by_instance = {
        r["instance"]: r["wall_time_s"]
        for r in payload["rows"]
        if r["mode"] == "warm"
    }
    bad: list[str] = []
    for row in payload["rows"]:
        if row["mode"] == "warm":
            cold_wall = cold_by_instance.get(row["instance"])
            if cold_wall and row["wall_time_s"] > (
                cold_wall * (1 + tolerance) + slack_s
            ):
                bad.append(
                    f"{row['instance']}: warm {row['wall_time_s']:.4f}s vs "
                    f"cold {cold_wall:.4f}s"
                )
        elif row["mode"] == "parallel":
            warm_wall = warm_by_instance.get(row["instance"])
            if warm_wall and row["wall_time_s"] > (
                warm_wall * (1 + tolerance) + slack_s
            ):
                bad.append(
                    f"{row['instance']}: parallel {row['wall_time_s']:.4f}s "
                    f"vs warm {warm_wall:.4f}s"
                )
    return bad
