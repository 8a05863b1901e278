"""The Eraser-style runtime lockset race detector.

Three layers: the state machine on seeded synthetic races, the live demo
fleet under full instrumentation (must stay race-free and agree with the
RL1xx static guard model), and the service load harness smoke run.
"""

import threading

import pytest

from repro.errors import LockOrderViolationError
from repro.lint.sanitizer import (
    LockOrderMonitor,
    RaceDetector,
    SanitizedLock,
    crosscheck_locksets,
    default_guard_model,
    instrument_plane,
    instrument_races,
)
from repro.obs.recorder import FlightRecorder


class Guarded:
    """Minimal lock-owning object for seeding detector states."""

    def __init__(self, monitor):
        self.lock = SanitizedLock("Guarded.lock", monitor)
        self.value = 0


def _detector(recorder=None):
    monitor = LockOrderMonitor(strict=False, recorder=recorder)
    return monitor, RaceDetector(monitor, recorder=recorder)


def _register(detector, obj):
    detector.register(obj, {"value": ("Guarded", "Guarded.lock")})


def _sequenced(*steps):
    """Run ``(thread_name, callable)`` steps in the given global order,
    each on its designated thread.

    Eraser-style narrowing is interleaving-sensitive, so the seeded
    fixtures script the exact access order instead of free-running
    threads.  Every thread stays alive until the last step has run —
    thread idents are reused by the OS, and a writer that exits before
    the next one spawns could be mistaken for the same thread.
    """
    names: list[str] = []
    for name, _fn in steps:
        if name not in names:
            names.append(name)
    turn = [0]
    cond = threading.Condition()
    failures: list[BaseException] = []

    def runner(me):
        while True:
            with cond:
                ok = cond.wait_for(
                    lambda: failures
                    or turn[0] >= len(steps)
                    or steps[turn[0]][0] == me,
                    timeout=10,
                )
                if failures or not ok or turn[0] >= len(steps):
                    return
                _name, fn = steps[turn[0]]
            try:
                fn()
            except BaseException as exc:  # pragma: no cover - test plumbing
                with cond:
                    failures.append(exc)
                    cond.notify_all()
                return
            with cond:
                turn[0] += 1
                cond.notify_all()

    threads = [threading.Thread(target=runner, args=(n,)) for n in names]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]
    assert turn[0] == len(steps), "sequenced steps stalled"


def _locked_write(detector, obj):
    def step():
        with obj.lock:
            detector.note_access(obj, "value", write=True)
    return step


def _bare_write(detector, obj):
    def step():
        detector.note_access(obj, "value", write=True)
    return step


def _bare_read(detector, obj):
    def step():
        detector.note_access(obj, "value", write=False)
    return step


class TestRaceDetectorStateMachine:
    def test_seeded_unlocked_write_is_caught(self):
        recorder = FlightRecorder(capacity=16)
        monitor, detector = _detector(recorder)
        obj = Guarded(monitor)
        _register(detector, obj)
        _sequenced(
            ("t1", _locked_write(detector, obj)),
            ("t2", _bare_write(detector, obj)),   # cross-thread, no lock
        )
        races = detector.races()
        assert races and races[0].label == "Guarded.value"
        assert races[0].guard == "Guarded.lock"
        with pytest.raises(LockOrderViolationError):
            detector.assert_race_free()
        assert recorder.anomalies().get("race", 0) >= 1

    def test_consistently_locked_writes_are_clean(self):
        monitor, detector = _detector()
        obj = Guarded(monitor)
        _register(detector, obj)
        _sequenced(
            ("t1", _locked_write(detector, obj)),
            ("t2", _locked_write(detector, obj)),
            ("t1", _locked_write(detector, obj)),
        )
        assert detector.races() == []
        # the candidate lockset narrowed to exactly the guard
        assert detector.locksets() == {
            "Guarded.value": frozenset({"Guarded.lock"})
        }

    def test_single_thread_never_leaves_exclusive(self):
        monitor, detector = _detector()
        obj = Guarded(monitor)
        _register(detector, obj)
        for _ in range(10):
            detector.note_access(obj, "value", write=True)
        assert detector.races() == []
        assert detector.locksets() == {}

    def test_unlocked_cross_thread_reads_are_exempt(self):
        # the atomic-reference-swap pattern: one thread publishes under
        # the lock, others read the reference bare
        monitor, detector = _detector()
        obj = Guarded(monitor)
        _register(detector, obj)
        _sequenced(
            ("t1", _locked_write(detector, obj)),
            ("t2", _bare_read(detector, obj)),
            ("t1", _locked_write(detector, obj)),
            ("t2", _bare_read(detector, obj)),
        )
        assert detector.races() == []

    def test_two_instances_do_not_alias(self):
        # same lock *name* on both instances; per-instance idents must
        # keep their locksets apart and both clean
        monitor, detector = _detector()
        a, b = Guarded(monitor), Guarded(monitor)
        _register(detector, a)
        _register(detector, b)
        _sequenced(
            ("t1", _locked_write(detector, a)),
            ("t2", _locked_write(detector, a)),
            ("t1", _locked_write(detector, b)),
            ("t2", _locked_write(detector, b)),
        )
        assert detector.races() == []
        assert detector.locksets() == {
            "Guarded.value": frozenset({"Guarded.lock"})
        }

    def test_track_reads_catches_torn_snapshot_read(self):
        """PR 10 regression (torn snapshots): a reader that takes related
        fields without the writer's lock can observe a half-published
        pair.  With ``track_reads=True`` the detector narrows locksets on
        reads too, so the unlocked cross-thread read of a
        shared-modified field is reported as a torn read."""
        recorder = FlightRecorder(capacity=16)
        monitor = LockOrderMonitor(strict=False, recorder=recorder)
        detector = RaceDetector(monitor, recorder=recorder, track_reads=True)
        obj = Guarded(monitor)
        _register(detector, obj)
        _sequenced(
            ("t1", _locked_write(detector, obj)),
            ("t2", _locked_write(detector, obj)),  # shared-modified, guarded
            ("t1", _bare_read(detector, obj)),     # snapshot without the lock
        )
        races = detector.races()
        assert races and races[0].label == "Guarded.value"
        assert "torn-read" in races[0].message

    def test_track_reads_consistent_reader_is_clean(self):
        monitor = LockOrderMonitor(strict=False)
        detector = RaceDetector(monitor, track_reads=True)
        obj = Guarded(monitor)
        _register(detector, obj)

        def locked_read():
            with obj.lock:
                detector.note_access(obj, "value", write=False)

        _sequenced(
            ("t1", _locked_write(detector, obj)),
            ("t2", locked_read),
            ("t1", _locked_write(detector, obj)),
            ("t2", locked_read),
        )
        assert detector.races() == []

    def test_crosscheck_flags_wrong_static_guard(self):
        monitor, detector = _detector()
        obj = Guarded(monitor)
        detector.register(obj, {"value": ("Guarded", "Guarded.other")})
        _sequenced(
            ("t1", _locked_write(detector, obj)),
            ("t2", _locked_write(detector, obj)),
        )
        guards = {"Guarded": {"value": "Guarded.other"}}
        problems = crosscheck_locksets(detector, guards)
        assert problems and "Guarded.value" in problems[0]


class TestGuardModel:
    def test_static_model_covers_the_plane_classes(self):
        guards = default_guard_model()
        assert "ControlPlane" in guards
        assert "Mailbox" in guards
        assert "AtomicCounters" in guards
        assert "TieredWitnessCache" in guards
        # the actor refactor made ManagedNetwork lockless: its state is
        # either mailbox-owned, drain-worker exclusive, or published
        # atomically — so the guard model must no longer list it
        assert "ManagedNetwork" not in guards
        # *_published attributes are the atomic-publication convention,
        # never lock-guarded fields
        for fields in guards.values():
            for field in fields:
                assert not field.endswith("_published")
        # every guard label names the owning class
        for cls, fields in guards.items():
            for field, guard in fields.items():
                assert guard.split(".", 1)[0] == cls


class TestLivePlane:
    def test_demo_fleet_is_race_free_and_matches_static_model(self):
        from repro.service.trace import run_demo

        guards = default_guard_model()
        state = {}

        def hook(plane):
            monitor = LockOrderMonitor(strict=True, recorder=plane.recorder)
            detector = RaceDetector(monitor, recorder=plane.recorder)
            instrument_plane(plane, monitor)
            instrument_races(plane, detector, guards)
            state["monitor"], state["detector"] = monitor, detector

        report, _snapshot = run_demo(events=80, seed=3, instrument=hook)
        assert report.ok
        detector, monitor = state["detector"], state["monitor"]
        detector.assert_race_free()
        monitor.assert_acyclic()
        locksets = detector.locksets()
        assert locksets, "demo traffic must narrow at least one lockset"
        assert crosscheck_locksets(detector, guards) == []

    def test_demo_fleet_has_no_torn_reads(self):
        """The atomic-publication fix end to end: under ``track_reads``
        the live fleet's queries and snapshots (which read published
        state lock-free) stay clean, because every lock-free read goes
        through an immutable ``*_published`` value — the guard model
        exempts those by convention, and every remaining guarded field
        is only ever read under its lock."""
        from repro.service.trace import run_demo

        state = {}

        def hook(plane):
            monitor = LockOrderMonitor(strict=True, recorder=plane.recorder)
            detector = RaceDetector(
                monitor, recorder=plane.recorder, track_reads=True
            )
            instrument_plane(plane, monitor)
            instrument_races(plane, detector)
            state["detector"] = detector

        report, _snapshot = run_demo(events=60, seed=5, instrument=hook)
        assert report.ok
        state["detector"].assert_race_free()

    def test_load_harness_smoke_is_race_free(self):
        from repro.service.loadgen import run_service_bench

        state = {}

        def hook(plane):
            monitor = LockOrderMonitor(strict=True, recorder=plane.recorder)
            detector = RaceDetector(monitor, recorder=plane.recorder)
            instrument_plane(plane, monitor)
            instrument_races(plane, detector)
            state.setdefault("detectors", []).append(detector)

        result = run_service_bench(smoke=True, instrument=hook)
        assert len(result["rows"]) == 2  # cold and warm phases
        assert state["detectors"]
        for detector in state["detectors"]:
            detector.assert_race_free()
