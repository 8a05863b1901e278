"""The four workloads, each run in a fresh child process.

Verification (``verify_exhaustive_parallel`` with default arguments):

* ``verify-ring`` — ring-C16(1,2) k=3 and ring-C32(1,2,3) k=2.  Rings
  are vertex-transitive, so automatic dispatch takes the orbit "items"
  path: dispatch, the pool, shared memory and symmetry carry the time.
* ``verify-asym`` — G(22,4) and G(18,5) from Theorem 3.17.  Their
  automorphism group is trivial, so the sweep takes the Gray-range path
  where the kernel accepts most sets and the residue carries the rest.

Each verify workload also sweeps a negative control at k+1, where the
engine must find a counterexample that an exact solve confirms.

Control plane (a default ``ControlPlane`` over a SQLite store):

* ``serve-churn`` — six large, distinct networks, victims drawn from
  every processor, 10% queries: canonicalize, solve and the write-behind
  store carry the work.
* ``serve-restart-reads`` — a store filled by a closed-loop pass, then a
  fresh plane on it (timed as set-up), 80% queries over a replica-heavy
  fleet whose victim pools are k+3 nodes: warm start, store reads and
  the lock-free query path carry the work.

An untraced serve run warms the plane up, then alternates closed-loop
slices with one event in flight (latency) and with one event per plane
worker in flight (capacity), so both metrics sample the whole run.  A
traced serve run plays an open loop at the workload's nominal rate.
"""

from __future__ import annotations

import faulthandler
import itertools
import shutil
import time
from dataclasses import asdict, dataclass, field
from math import comb

import gates
import networks
from stats import geomean, median, quantile
from traffic import Generator, Member, combine, reduce_timer_slack

#: how long the drain after a phase may take before its undrained
#: events count as failed and every thread's stack is dumped
DRAIN_DEADLINE_S = 20.0
#: events kept in flight by the closed loops: one for latency, one per
#: plane worker for capacity
LATENCY_WINDOW = 1
CAPACITY_WINDOW = 4
#: share of an untraced serve run spent warming up before any timing
WARMUP_SHARE = 0.05
#: how many latency slices and capacity slices alternate in the rest
SLICE_PAIRS = 6


@dataclass(frozen=True)
class VerifySpec:
    instances: tuple[str, ...]
    control: str


@dataclass(frozen=True)
class ServeSpec:
    fleet: tuple[tuple[str, str], ...]  # (registry name, input name)
    victims: str                        # "all" | "k+3"
    query_ratio: float
    nominal_rate: float                 # requests/s of the traced run
    prefill: bool


WORKLOADS = {
    "verify-ring": VerifySpec(
        ("ring-C16-1-2-k3", "ring-C32-1-2-3-k2"), "ring-C8-1-2-k3"),
    "verify-asym": VerifySpec(("G-22-4", "G-18-5"), "G-14-4"),
    "serve-churn": ServeSpec(
        fleet=(("g60-a", "G-60-4"), ("g60-b", "G-60-4"),
               ("g100-a", "G-100-5"), ("g100-b", "G-100-5"),
               ("ring48", "ring-C48-1-2-3-k3"),
               ("ring96", "ring-C96-1-2-3-k3")),
        victims="all", query_ratio=0.1, nominal_rate=100, prefill=False),
    "serve-restart-reads": ServeSpec(
        fleet=tuple((f"g9-{i}", "G-9-2") for i in range(8))
        + tuple((f"g13-{i}", "G-13-2") for i in range(4))
        + (("ring8", "ring-C8-1-2-k2"),),
        victims="k+3", query_ratio=0.8, nominal_rate=1000, prefill=True),
}


@dataclass
class Context:
    """What the child process hands a workload."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    mode: str            # "fill" | "setup" | "run"
    workdir: object      # pathlib.Path
    store: object        # this child's store path (serve workloads)
    t_spawn: float       # time.monotonic() when the parent spawned us
    rec: object = None   # layers.Recorder when tracing
    setup_s: float | None = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    hung: bool = False

    def setup_done(self) -> bool:
        """Record set-up time; ``False`` tells a set-up-only child to
        stop here."""
        self.setup_s = time.monotonic() - self.t_spawn
        return self.mode == "run"

    def check(self, errors: list[str]) -> None:
        """Count one attempted operation and whether a gate failed it."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def run(ctx: Context) -> None:
    spec = WORKLOADS[ctx.workload]
    if isinstance(spec, VerifySpec):
        run_verify(ctx, spec)
    elif ctx.mode == "fill":
        fill_store(ctx, spec)
    else:
        run_serve(ctx, spec)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
def run_verify(ctx: Context, spec: VerifySpec) -> None:
    from repro.core.verify import verify_exhaustive_parallel

    nets = {name: networks.load(name) for name in spec.instances}
    control = networks.load(spec.control)
    control_k = networks.record(spec.control)["control"]["k"]
    if not ctx.setup_done():
        return

    def sweep(name: str) -> float:
        net = nets[name]
        t0 = time.perf_counter()
        cert = verify_exhaustive_parallel(net)
        wall = time.perf_counter() - t0
        ctx.check(gates.certificate_errors(cert, net, net.k))
        return wall

    if ctx.trace:
        _traced_verify(ctx, spec, sweep)
    else:
        times = {name: [] for name in spec.instances}
        start = time.perf_counter()
        for i in itertools.count():
            name = spec.instances[i % len(spec.instances)]
            times[name].append(sweep(name))
            if (i + 1 >= len(spec.instances)
                    and time.perf_counter() - start >= ctx.seconds):
                break
        sets = {name: _sets(nets[name]) for name in spec.instances}
        # whole-run statistics: the host's speed swings within seconds,
        # and a total over every sweep follows the run's average speed
        # where a median of ~10 sweeps jumps between fast and slow ones
        ctx.metrics.update({
            "throughput_per_s": sum(sets[n] * len(t) for n, t in times.items())
            / sum(sum(t) for t in times.values()),
            "latency_ms": 1e3 * geomean(sum(t) / len(t) for t in times.values()),
        })
        ctx.detail["samples"] = {name: len(t) for name, t in times.items()}
        ctx.detail["sweeps"] = {
            name: {"fault_sets": sets[name], "wall_s": times[name]}
            for name in spec.instances
        }

    cert = verify_exhaustive_parallel(control, k=control_k)
    ctx.check(gates.control_errors(cert, control, control_k))
    ctx.detail["control"] = {
        "instance": spec.control, "k": control_k,
        "counterexample": sorted(cert.counterexample or ()),
    }
    ctx.detail["drift"] = networks.drift([*spec.instances, spec.control])


def _sets(net) -> int:
    return sum(comb(len(net.graph), j) for j in range(net.k + 1))


def _traced_verify(ctx: Context, spec: VerifySpec, sweep) -> None:
    """Cycles of three passes over the instances — plain, wrapped by the
    benchmark's layer tracing, and under the program's own tracer — so
    both tracing overheads are measured on identical work."""
    import layers
    from repro.obs.spans import Tracer

    rec = ctx.rec
    layers.install_verify(rec)
    walls = {"plain": [], "wrapped": [], "program": []}
    start = time.perf_counter()
    while not walls["plain"] or time.perf_counter() - start < ctx.seconds:
        walls["plain"].append(sum(sweep(n) for n in spec.instances))
        total = 0.0
        for name in spec.instances:
            rec.active = True
            frame = rec.enter("verify.sweep")
            total += sweep(name)
            rec.sample("verify.unattributed", rec.exit(frame))
            rec.active = False
        walls["wrapped"].append(total)
        tracer = Tracer(ring=1 << 16)
        total = 0.0
        for name in spec.instances:
            with tracer.span("sweep", instance=name):
                total += sweep(name)
            tracer.drain()
        walls["program"].append(total)
    plain = median(walls["plain"])
    ctx.metrics.update(layers.verify_layer_metrics(rec, len(walls["wrapped"])))
    ctx.metrics["trace.overhead_ratio"] = median(walls["wrapped"]) / plain - 1
    ctx.metrics["obs.tracer_overhead_ratio"] = median(walls["program"]) / plain - 1
    ctx.detail["pass_wall_s"] = walls


# ----------------------------------------------------------------------
# control plane
# ----------------------------------------------------------------------
def _members(spec: ServeSpec) -> list[Member]:
    members = []
    for name, input_name in spec.fleet:
        net = networks.load(input_name)
        procs = sorted(net.processors)
        pool = procs if spec.victims == "all" else procs[: net.k + 3]
        members.append(Member(name, net, net.k, pool))
    return members


def _open_plane(store, members: list[Member], *, tracing: bool = False):
    from repro.service.control import ControlPlane, ControlPlaneConfig

    plane = ControlPlane(ControlPlaneConfig(store_path=str(store),
                                            tracing=tracing))
    for m in members:
        plane.register(m.name, m.network)
    return plane


def fill_store(ctx: Context, spec: ServeSpec) -> None:
    """Deterministic closed-loop pass: on every network, fail each
    victim subset of size <= k one node at a time, then repair it, so
    every fault pattern the run can reach is solved and persisted."""
    members = _members(spec)
    plane = _open_plane(ctx.store, members)
    try:
        for m in members:
            for size in range(1, m.k + 1):
                for subset in itertools.combinations(m.pool, size):
                    for node in subset:
                        plane.submit_fault(m.name, node).result()
                    for node in reversed(subset):
                        plane.submit_repair(m.name, node).result()
    finally:
        plane.close()


def _dump_stacks(ctx: Context, phase: str) -> None:
    path = ctx.workdir / f"stacks-{ctx.workload}-{phase}.txt"
    with open(path, "w") as fh:
        faulthandler.dump_traceback(file=fh, all_threads=True)
    ctx.errors.append(f"{phase}: undrained events; thread stacks in {path.name}")


def _phase_summary(st) -> dict:
    return {
        "rate": st.rate, "seconds": st.seconds, "requests": st.requests,
        "events": st.events, "queries": st.queries, "shed": st.shed,
        "errors": st.errors, "undrained": st.undrained,
        "completed": st.completed, "wall_s": st.wall_s, "cpu_s": st.cpu_s,
        "event_p50_ms": 1e3 * median(st.event_latency),
        "event_p99_ms": 1e3 * quantile(st.event_latency, 0.99),
        "event_samples": len(st.event_latency),
        "query_p50_us": 1e6 * median(st.query_latency),
        "query_p99_us": 1e6 * quantile(st.query_latency, 0.99),
        "query_samples": len(st.query_latency),
    }


def _gate_phase(ctx: Context, st) -> None:
    """Count every request of a phase, failing sheds, errors, undrained
    events and invalid answers."""
    ctx.attempted += st.requests
    ctx.failed += st.shed + st.errors + st.undrained + st.bad_answers
    ctx.errors.extend(st.answer_errors[: max(0, 20 - len(ctx.errors))])


def _gate_final(ctx: Context, plane, members: list[Member]) -> None:
    by_name = {m.name: m for m in members}
    for name, net, pipeline, faults in plane.final_states():
        ctx.check(gates.final_state_errors(
            name, net, pipeline, faults, by_name[name].failed))


def run_serve(ctx: Context, spec: ServeSpec) -> None:
    members = _members(spec)
    plane = _open_plane(ctx.store, members)
    if not ctx.setup_done():
        plane.close()
        return
    reduce_timer_slack()
    if ctx.trace:
        _traced_serve(ctx, spec, plane, members)
        return
    gen = Generator(plane, members, ctx.seed, spec.query_ratio)
    slice_s = (1 - WARMUP_SHARE) * ctx.seconds / (2 * SLICE_PAIRS)
    schedule = [("warm-up", WARMUP_SHARE * ctx.seconds, LATENCY_WINDOW)]
    schedule += [(name, slice_s, window) for _ in range(SLICE_PAIRS)
                 for name, window in (("latency", LATENCY_WINDOW),
                                      ("capacity", CAPACITY_WINDOW))]
    slices = {}
    for name, seconds, window in schedule:
        st = gen.closed_loop(name, seconds, window, DRAIN_DEADLINE_S)
        slices.setdefault(name, []).append(st)
        _gate_phase(ctx, st)
        if st.undrained:
            _dump_stacks(ctx, name)
            ctx.hung = True
            break
    phases = {name: combine(name, parts) for name, parts in slices.items()}
    ctx.detail["phases"] = {name: _phase_summary(st)
                            for name, st in phases.items()}
    if ctx.hung:
        return  # a drain thread is stuck: the plane cannot be closed
    lat, cap = phases["latency"], phases["capacity"]
    ctx.metrics.update({
        "throughput_per_s": cap.completed / cap.seconds,
        "latency_ms": 1e3 * median(lat.event_latency),
    })
    ctx.detail["samples"] = {"latency events": len(lat.event_latency),
                             "capacity requests": cap.completed}
    plane.wait(timeout=DRAIN_DEADLINE_S)
    _gate_final(ctx, plane, members)
    ctx.detail["cache"] = asdict(plane.snapshot().cache)
    plane.close()
    ctx.detail["drift"] = networks.drift(sorted({i for _, i in spec.fleet}))


def _traced_serve(ctx: Context, spec: ServeSpec, plane, members) -> None:
    """An open loop at the nominal rate three times on fresh planes and
    identical traffic — plain, wrapped by the benchmark's layer tracing,
    and with ``ControlPlaneConfig(tracing=True)`` — so both tracing
    overheads are measured as CPU time per request."""
    import layers

    rec = ctx.rec
    layers.install_service(rec)
    secs = ctx.seconds / 3
    cpu_per_request = {}
    wrapped = None
    for mode in ("plain", "wrapped", "program"):
        if mode != "plain":
            store = ctx.workdir / f"store-{mode}.db"
            if spec.prefill:
                shutil.copyfile(ctx.workdir / "filled.db", store)
            members = _members(spec)
            rec.active = mode == "wrapped"
            plane = _open_plane(store, members, tracing=mode == "program")
        gen = Generator(plane, members, ctx.seed, spec.query_ratio)
        st = gen.open_loop("nominal", spec.nominal_rate, secs,
                           DRAIN_DEADLINE_S)
        _gate_phase(ctx, st)
        if st.undrained:
            _dump_stacks(ctx, f"nominal-{mode}")
            ctx.hung = True
            return
        plane.wait(timeout=DRAIN_DEADLINE_S)
        _gate_final(ctx, plane, members)
        plane.close()
        rec.active = False
        cpu_per_request[mode] = st.cpu_s / max(st.requests, 1)
        ctx.detail[f"nominal_{mode}"] = _phase_summary(st)
        if mode == "wrapped":
            wrapped = st
    plain = cpu_per_request["plain"]
    ctx.metrics.update(layers.service_layer_metrics(rec))
    ctx.metrics.update({
        "control.submit_us_p50": 1e6 * median(wrapped.submit_time),
        "control.submit_us_p99": 1e6 * quantile(wrapped.submit_time, 0.99),
        "control.query_service_us_p50": 1e6 * median(wrapped.query_time),
        "control.query_service_us_p99": 1e6 * quantile(wrapped.query_time, 0.99),
        "control.shed": wrapped.shed,
        "loadgen.lag_p99_ms": 1e3 * quantile(wrapped.lag, 0.99),
        "trace.overhead_ratio": cpu_per_request["wrapped"] / plain - 1,
        "obs.tracer_overhead_ratio": cpu_per_request["program"] / plain - 1,
    })
    ctx.detail["cpu_per_request_s"] = cpu_per_request
