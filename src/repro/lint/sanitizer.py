"""Runtime concurrency sanitizers: lock order and lockset races.

The static lock-order pass (:mod:`repro.lint.passes.lock_order`) draws
the acquisition graph from the AST; this module draws it from *execution*.
Wrap the locks of a live object graph in :class:`SanitizedLock`, run the
real workload (the service test suite does), and every "acquired B while
holding A" observation lands as an edge in a :class:`LockOrderMonitor`.
The monitor feeds the identical cycle detector
(:func:`repro.graphs.cycles.find_directed_cycle`), so the two views
cross-check: a dynamic edge missing from the static graph is a hole in
the static analysis; a static cycle never observed dynamically is either
dead code or a latent deadlock the tests don't reach.

The second half is a lockset *race* detector in the style of Eraser
(Savage et al., SOSP '97): :func:`instrument_races` swaps instrumented
subclasses onto a live plane's guarded objects so every rebinding of a
guarded attribute reports to a :class:`RaceDetector`, which runs the
per-field state machine virgin → exclusive → shared/shared-modified and
narrows a per-field candidate lockset to the locks *actually held* at
each cross-thread write.  A field in shared-modified state whose
candidate set goes empty is a data race, reported once per
``Class.field`` and forwarded to the flight recorder as a ``race``
anomaly.  Two deliberate deviations from classic Eraser, both matching
the RL1xx static contract this detector cross-checks against:

* **reads do not narrow by default** — RL101 polices writes only.  The
  opt-in ``RaceDetector(track_reads=True)`` flips this: reads narrow
  locksets too and a read of a shared-modified field with an empty
  candidate set is reported as a *torn read*.  The control plane's
  atomic-publication pattern stays clean under ``track_reads`` because
  ``*_published`` attributes (immutable values rebound atomically, read
  lock-free — see :mod:`repro.service.mailbox`) are exempted from the
  guard model itself;
* the tracked fields are exactly :func:`~repro.lint.passes._lockmodel.\
guarded_attributes` — the fields RL101 would flag if mutated unlocked —
  so :func:`crosscheck_locksets` can compare each dynamic lockset
  against the statically-required guard lock, label by label.

In-place container mutations (``m.counters[k] += 1``) never pass through
``__setattr__`` and are invisible here; the static pass covers those.
Instrumentation is strictly opt-in (tests, ``serve --race-detect``);
production code never imports this module.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import networkx as nx

from ..errors import LockOrderViolationError
from ..graphs.cycles import find_directed_cycle

__all__ = [
    "LockOrderMonitor",
    "SanitizedLock",
    "wrap_lock",
    "instrument_plane",
    "RaceDetector",
    "RaceReport",
    "instrument_races",
    "default_guard_model",
    "crosscheck_locksets",
]


class LockOrderMonitor:
    """Accumulates observed acquisition-order edges across threads.

    With ``strict=True`` an acquisition that closes a cycle raises
    :class:`~repro.errors.LockOrderViolationError` *at the acquisition
    site*, before the thread can block — turning a would-be deadlock into
    a stack trace.

    ``recorder`` (duck-typed to
    :class:`repro.obs.recorder.FlightRecorder`) gets a ``lock_order``
    anomaly — and with it a span-ring dump — for every violation, strict
    or post-hoc, so the flight recorder captures what the fleet was doing
    when the ordering broke.  The anomaly is reported *after* the
    monitor's own lock is released, keeping the recorder lock a leaf.
    """

    def __init__(self, *, strict: bool = False, recorder=None) -> None:
        self.strict = strict
        self.recorder = recorder
        self._lock = threading.Lock()
        self._edges: dict[tuple[str, str], str] = {}   # edge -> first site
        self._local = threading.local()

    def _held(self) -> list[tuple[str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def held_locks(self) -> list[tuple[str, int]]:
        """``(name, ident)`` for every lock the calling thread holds, in
        acquisition order.  ``ident`` distinguishes instances that share
        a class-granularity name (every ``ManagedNetwork.lock``)."""
        return list(self._held())

    # -- hooks called by SanitizedLock ---------------------------------
    def note_intent(self, name: str, site: str = "") -> None:
        """Record edges held -> *name* before blocking on the acquire."""
        held = [h for h, _ident in self._held()]
        new_edges = [
            (h, name) for h in held if h != name and (h, name) not in self._edges
        ]
        repeat = any(h == name for h in held)
        message: str | None = None
        with self._lock:
            for edge in new_edges:
                self._edges.setdefault(edge, site)
            if self.strict and (new_edges or repeat):
                cycle = [name] if repeat else self._find_cycle_locked()
                if cycle is not None:
                    order = " -> ".join([*cycle, cycle[0]])
                    message = (
                        f"acquiring {name!r} while holding "
                        f"{held!r} closes a lock-order cycle: {order}"
                    )
        if message is not None:
            self._report(message)
            raise LockOrderViolationError(message)

    def note_acquired(self, name: str, ident: int | None = None) -> None:
        self._held().append((name, ident if ident is not None else id(name)))

    def note_released(self, name: str, ident: int | None = None) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i][0] == name and (ident is None or held[i][1] == ident):
                del held[i]
                return

    # -- reporting -----------------------------------------------------
    def edges(self) -> frozenset:
        with self._lock:
            return frozenset(self._edges)

    def graph(self) -> "nx.DiGraph":
        g = nx.DiGraph()
        g.add_edges_from(self.edges())
        return g

    def _find_cycle_locked(self) -> list[str] | None:
        g = nx.DiGraph()
        g.add_edges_from(self._edges)
        return find_directed_cycle(g)

    def find_cycle(self) -> list[str] | None:
        """A cycle in the observed acquisition graph, or ``None``."""
        return find_directed_cycle(self.graph())

    def assert_acyclic(self) -> None:
        cycle = self.find_cycle()
        if cycle is not None:
            order = " -> ".join([*cycle, cycle[0]])
            message = f"observed lock-order cycle: {order}"
            self._report(message)
            raise LockOrderViolationError(message)

    def _report(self, message: str) -> None:
        """Forward a violation to the flight recorder (if wired)."""
        recorder = self.recorder
        if recorder is not None:
            recorder.note_anomaly("lock_order", message)


class SanitizedLock:
    """A drop-in lock wrapper reporting acquisitions to a monitor.

    Wraps an existing lock instance (so already-shared locks can be
    instrumented in place) or creates a fresh ``threading.Lock``.
    """

    def __init__(
        self,
        name: str,
        monitor: LockOrderMonitor,
        inner: threading.Lock | None = None,
    ) -> None:
        self.name = name
        self._monitor = monitor
        self._inner = inner if inner is not None else threading.Lock()
        #: stable per-instance identity (shared with the wrapped lock so
        #: re-wrapping the same lock keeps the same ident)
        self.ident = id(self._inner)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._monitor.note_intent(self.name)
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._monitor.note_acquired(self.name, self.ident)
        return got

    def release(self) -> None:
        self._monitor.note_released(self.name, self.ident)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"SanitizedLock({self.name!r})"


def wrap_lock(
    lock: threading.Lock, name: str, monitor: LockOrderMonitor
) -> SanitizedLock:
    """Wrap an existing lock instance under *name*."""
    return SanitizedLock(name, monitor, inner=lock)


def instrument_plane(plane, monitor: LockOrderMonitor) -> list[SanitizedLock]:
    """Instrument a :class:`~repro.service.control.ControlPlane` in place.

    Wraps the plane's own lock, the witness cache's lock and every
    currently-registered network's mailbox and counter leaf locks, using
    the class-granularity labels the static pass emits
    (``ControlPlane._lock``, ``Mailbox._lock``, ...), so monitor edges
    compare directly against
    :func:`repro.lint.passes.lock_order.build_lock_graph`.  Call while
    the plane is idle, after registering networks (networks registered
    later keep plain locks).
    """
    wrapped: list[SanitizedLock] = []
    plane._lock = wrap_lock(plane._lock, "ControlPlane._lock", monitor)
    wrapped.append(plane._lock)
    plane.cache._lock = wrap_lock(
        plane.cache._lock, "TieredWitnessCache._lock", monitor
    )
    wrapped.append(plane.cache._lock)
    for managed in plane:
        managed.mailbox._lock = wrap_lock(
            managed.mailbox._lock, "Mailbox._lock", monitor
        )
        wrapped.append(managed.mailbox._lock)
        managed.counters._lock = wrap_lock(
            managed.counters._lock, "AtomicCounters._lock", monitor
        )
        wrapped.append(managed.counters._lock)
    return wrapped


def instrumented_locks(
    names: Iterable[str], monitor: LockOrderMonitor
) -> dict[str, SanitizedLock]:
    """Fresh sanitized locks by name (fixture helper)."""
    return {name: SanitizedLock(name, monitor) for name in names}


# ---------------------------------------------------------------------------
# Eraser-style lockset race detection


@dataclass(frozen=True)
class RaceReport:
    """One detected race, reported once per ``Class.field`` label."""

    label: str          # "Mailbox._queue"
    guard: str          # the lock RL1xx says must be held
    thread: int         # ident of the racing accessor
    message: str


class _FieldState:
    __slots__ = ("mode", "owner", "lockset", "reported")

    def __init__(self, owner: int) -> None:
        self.mode = "exclusive"   # virgin is consumed by first access
        self.owner = owner
        self.lockset: frozenset[int] | None = None   # None == top (all locks)
        self.reported = False


class RaceDetector:
    """Per-field candidate-lockset narrowing over a live object graph.

    Fed by the instrumented subclasses :func:`instrument_races` installs.
    The monitor supplies the held-lock set (with per-instance idents, so
    two ``Mailbox`` locks never alias); candidate locksets narrow on
    cross-thread *writes* only by default — see the module docstring for
    why reads are exempt.  With ``track_reads=True`` reads narrow too,
    and a read of a shared-modified field with an empty candidate set is
    reported as a torn read (the unlocked-snapshot bug class RL101
    cannot see).  All detector state sits behind one leaf lock;
    flight-recorder reporting happens strictly after it is released.
    """

    def __init__(
        self,
        monitor: LockOrderMonitor,
        *,
        recorder=None,
        track_reads: bool = False,
    ) -> None:
        self.monitor = monitor
        self.recorder = recorder
        self.track_reads = track_reads
        self._lock = threading.Lock()
        self._fields: dict[tuple[int, str], _FieldState] = {}
        self._meta: dict[int, dict[str, tuple[str, str]]] = {}
        self._objs: list[object] = []   # strong refs keep id() stable
        self._ident_names: dict[int, str] = {}
        self._reports: list[RaceReport] = []
        self._reported_labels: set[str] = set()

    # -- wiring --------------------------------------------------------
    def register(self, obj: object, fields: dict[str, tuple[str, str]]) -> None:
        """Track *obj*; ``fields`` maps attr -> (owner class, guard lock
        label), i.e. one row of the static guard model."""
        with self._lock:
            self._meta[id(obj)] = dict(fields)
            self._objs.append(obj)

    # -- the hook ------------------------------------------------------
    def note_access(self, obj: object, field: str, *, write: bool) -> None:
        meta = self._meta.get(id(obj))
        if meta is None or field not in meta:
            return
        held = self.monitor.held_locks()
        tid = threading.get_ident()
        owner_class, guard = meta[field]
        label = f"{owner_class}.{field}"
        report: RaceReport | None = None
        with self._lock:
            for name, ident in held:
                self._ident_names.setdefault(ident, name)
            key = (id(obj), field)
            st = self._fields.get(key)
            if st is None:
                self._fields[key] = _FieldState(owner=tid)
                return
            if st.mode == "exclusive" and st.owner != tid:
                st.mode = "shared_modified" if write else "shared"
            elif st.mode == "shared" and write:
                st.mode = "shared_modified"
            narrow = (write or self.track_reads) and st.mode in {
                "shared",
                "shared_modified",
            }
            if narrow:
                idents = frozenset(ident for _name, ident in held)
                st.lockset = (
                    idents if st.lockset is None else st.lockset & idents
                )
                if (
                    st.mode == "shared_modified"
                    and not st.lockset
                    and not st.reported
                ):
                    st.reported = True
                    if label not in self._reported_labels:
                        self._reported_labels.add(label)
                        access = "written" if write else "torn-read"
                        report = RaceReport(
                            label=label,
                            guard=guard,
                            thread=tid,
                            message=(
                                f"lockset for '{label}' is empty: {access} "
                                f"by thread {tid} with no common lock held "
                                f"(static guard model requires '{guard}')"
                            ),
                        )
                        self._reports.append(report)
        if report is not None and self.recorder is not None:
            self.recorder.note_anomaly(
                "race", report.message,
                extra={"label": report.label, "guard": report.guard},
            )

    # -- results -------------------------------------------------------
    def races(self) -> list[RaceReport]:
        with self._lock:
            return list(self._reports)

    def assert_race_free(self) -> None:
        races = self.races()
        if races:
            raise LockOrderViolationError(
                "; ".join(r.message for r in races)
            )

    def locksets(self) -> dict[str, frozenset[str]]:
        """Narrowed candidate locksets by ``Class.field`` label, as lock
        *names*, intersected across instances.  Only fields that saw a
        cross-thread write appear — a field one thread owns never leaves
        the exclusive state and proves nothing either way."""
        by_label: dict[str, frozenset[str]] = {}
        with self._lock:
            for (obj_id, field), st in self._fields.items():
                if st.lockset is None:
                    continue
                fields = self._meta.get(obj_id, {})
                if field not in fields:
                    continue
                owner_class, _guard = fields[field]
                label = f"{owner_class}.{field}"
                names = frozenset(
                    self._ident_names.get(i, f"<lock {i}>") for i in st.lockset
                )
                if label in by_label:
                    by_label[label] = by_label[label] & names
                else:
                    by_label[label] = names
        return by_label


def _make_instrumented(base: type, tracked: frozenset) -> type:
    """Subclass of *base* whose tracked attributes report accesses.  The
    detector rides on the instance (set before the class swap), so the
    subclass is cacheable per ``(base, tracked)``."""

    def __getattribute__(self, name):  # noqa: N807
        value = object.__getattribute__(self, name)
        if name in tracked:
            object.__getattribute__(self, "_race_detector").note_access(
                self, name, write=False
            )
        return value

    def __setattr__(self, name, value):  # noqa: N807
        if name in tracked:
            object.__getattribute__(self, "_race_detector").note_access(
                self, name, write=True
            )
        object.__setattr__(self, name, value)

    return type(
        base.__name__,
        (base,),
        {
            "__getattribute__": __getattribute__,
            "__setattr__": __setattr__,
            "_race_tracked": tracked,
        },
    )


_INSTRUMENTED_CACHE: dict[tuple[type, frozenset], type] = {}


def _instrument_object(
    obj: object, detector: RaceDetector, guards: dict[str, dict[str, str]]
) -> frozenset:
    """Swap an instrumented subclass onto *obj* covering every guarded
    field any class in its MRO contributes.  Returns the tracked names
    (empty when nothing in the MRO is guarded)."""
    fields: dict[str, tuple[str, str]] = {}
    for klass in reversed(type(obj).__mro__):
        for attr, guard in guards.get(klass.__name__, {}).items():
            fields[attr] = (klass.__name__, guard)
    if not fields or isinstance(obj, type):
        return frozenset()
    tracked = frozenset(fields)
    detector.register(obj, fields)
    object.__setattr__(obj, "_race_detector", detector)
    key = (type(obj), tracked)
    cls = _INSTRUMENTED_CACHE.get(key)
    if cls is None:
        cls = _INSTRUMENTED_CACHE[key] = _make_instrumented(type(obj), tracked)
    object.__setattr__(obj, "__class__", cls)
    return tracked


def default_guard_model() -> dict[str, dict[str, str]]:
    """The RL1xx static guard model extracted from this installation's
    own source tree: class -> {field: guard lock label}."""
    from .engine import load_modules
    from .passes._lockmodel import guarded_attributes

    pkg = Path(__file__).resolve().parents[1]          # src/repro
    modules, _errors = load_modules([pkg], root=pkg.parent)
    return guarded_attributes(modules)


def instrument_races(
    plane,
    detector: RaceDetector,
    guards: dict[str, dict[str, str]] | None = None,
) -> dict[str, frozenset]:
    """Instrument a live control plane for lockset race detection.

    Covers the plane itself, its witness cache and every
    currently-registered network's mailbox and counters — the same
    objects :func:`instrument_plane` wraps the locks of, and the two are
    meant to be used together: the detector reads held locks from the
    monitor, so only ``SanitizedLock``-wrapped locks contribute to
    locksets.  Instrument while the plane is idle; the ``__class__`` swap
    is not safe under concurrent access.

    Returns ``{class name: tracked fields}`` for what got instrumented.
    """
    if guards is None:
        guards = default_guard_model()
    out: dict[str, frozenset] = {}
    targets = [plane, plane.cache, *list(plane)]
    for managed in plane:
        mailbox = getattr(managed, "mailbox", None)
        if mailbox is not None:
            targets.append(mailbox)
        counters = getattr(managed, "counters", None)
        if counters is not None and not isinstance(counters, dict):
            targets.append(counters)
    for obj in targets:
        tracked = _instrument_object(obj, detector, guards)
        if tracked:
            out[type(obj).__name__] = tracked
    return out


def crosscheck_locksets(
    detector: RaceDetector, guards: dict[str, dict[str, str]]
) -> list[str]:
    """Compare dynamic locksets against the static guard model.

    For every field the detector narrowed a lockset for, the statically
    required guard lock must be a member of the dynamic candidate set —
    otherwise either the static model mislabeled the guard or the code
    consistently protects the field with a *different* lock than RL1xx
    believes.  Returns human-readable mismatches (empty == consistent).
    """
    problems: list[str] = []
    for label, names in sorted(detector.locksets().items()):
        owner_class, field = label.split(".", 1)
        want = guards.get(owner_class, {}).get(field)
        if want is not None and want not in names:
            problems.append(
                f"{label}: dynamic lockset {sorted(names)} does not "
                f"contain the static guard '{want}'"
            )
    return problems
