"""Tests for the shared-memory sweep context and the crash-recovering
worker pool: pack/attach round trips, the inline fallback, duplicate
suppression, mid-chunk worker death, end-to-end sweep recovery, and a
clean shared-memory resource tracker after real pool sweeps."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.constructions import build, build_special
from repro.core.hamilton import IncrementalInstanceBuilder
from repro.core.verify import (
    SharedSweepContext,
    ShmWorkerPool,
    verify_exhaustive,
    verify_exhaustive_parallel,
)
from repro.core.verify.batch import gray_index_array
from repro.core.verify.shm import (
    HAVE_SHM,
    AttachedSweepContext,
    WorkerPoolError,
)

FORK = hasattr(multiprocessing, "get_context") and "fork" in (
    multiprocessing.get_all_start_methods()
)

needs_fork = pytest.mark.skipif(not FORK, reason="needs fork start method")


class TestSharedSweepContext:
    @pytest.mark.parametrize("use_shm", [True, False])
    def test_pack_attach_round_trip(self, use_shm):
        if use_shm and not HAVE_SHM:
            pytest.skip("no shared_memory on this platform")
        net = build_special(6, 2)
        universe = sorted(net.graph.nodes, key=repr)
        builder = IncrementalInstanceBuilder(net)
        ctx = SharedSweepContext.create(
            net, universe, net.k, [1, 2], use_shm=use_shm
        )
        try:
            assert (ctx.shm_name is not None) == use_shm
            attached = AttachedSweepContext(ctx.spec())
            assert attached.adj_rows() == builder.base_adj
            for j in (1, 2):
                table = attached.gray(j)
                assert table is not None
                assert (table == gray_index_array(len(universe), j)).all()
                # the view maps straight onto the shared buffer; drop it
                # before closing the segment
                del table
            assert attached.gray(9) is None  # never packed
            attached.close()
        finally:
            ctx.unlink()

    def test_spec_is_picklable(self):
        import pickle

        net = build(2, 2)
        universe = sorted(net.graph.nodes, key=repr)
        ctx = SharedSweepContext.create(net, universe, net.k, [1, 2])
        try:
            spec = pickle.loads(pickle.dumps(ctx.spec()))
            assert AttachedSweepContext(spec).adj_rows()
        finally:
            ctx.unlink()

    @pytest.mark.skipif(not HAVE_SHM, reason="no shared_memory")
    def test_unlink_releases_the_segment(self):
        from multiprocessing import shared_memory

        net = build(2, 2)
        universe = sorted(net.graph.nodes, key=repr)
        ctx = SharedSweepContext.create(
            net, universe, net.k, [1], use_shm=True
        )
        name = ctx.shm_name
        assert name is not None
        ctx.unlink()
        ctx.unlink()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class _EchoWorker:
    """Pool body for the unit tests: state is the init payload."""

    @staticmethod
    def init(wid, init_args):
        (state,) = init_args
        return state

    @staticmethod
    def run(state, task):
        kind, seq, value = task
        if kind == "boom":
            raise ValueError(f"task {seq} exploded")
        return (state, value * 2)

    @staticmethod
    def close(state):
        pass


@needs_fork
class TestShmWorkerPool:
    def test_round_trip_all_results(self):
        with ShmWorkerPool(2, _EchoWorker, ("base",)) as pool:
            for seq in range(10):
                pool.submit(("echo", seq, seq))
            got = dict(pool.get() for _ in range(10))
        assert got == {seq: ("base", seq * 2) for seq in range(10)}

    def test_worker_exception_propagates(self):
        pool = ShmWorkerPool(1, _EchoWorker, (None,))
        try:
            pool.submit(("boom", 0, 0))
            with pytest.raises(Exception, match="task 0 exploded"):
                pool.get()
        finally:
            pool.close()

    def test_dead_worker_chunks_requeue_to_survivors(self):
        # worker 0 takes seq 0 (round-robin) and dies before answering;
        # its in-flight chunk must be re-run by worker 1
        fault = {"die_wid": 0, "die_seq": 0}
        with ShmWorkerPool(2, _EchoWorker, ("b",), fault_spec=fault) as pool:
            for seq in range(6):
                pool.submit(("echo", seq, seq))
            got = dict(pool.get() for _ in range(6))
        assert got == {seq: ("b", seq * 2) for seq in range(6)}

    def test_all_workers_dead_raises_instead_of_hanging(self):
        fault = {"die_wid": 0, "die_seq": 0}
        pool = ShmWorkerPool(1, _EchoWorker, (None,), fault_spec=fault)
        try:
            pool.submit(("echo", 0, 0))
            with pytest.raises(WorkerPoolError):
                pool.get()
        finally:
            pool.kill()


@needs_fork
class TestSweepCrashRecovery:
    def _spy_on_context(self, monkeypatch):
        created = []
        real_create = SharedSweepContext.create.__func__

        def spy(cls, *args, **kwargs):
            ctx = real_create(cls, *args, **kwargs)
            created.append((ctx, ctx.shm_name))
            return ctx

        monkeypatch.setattr(
            SharedSweepContext, "create", classmethod(spy)
        )
        return created

    def test_sweep_completes_when_a_worker_dies_mid_chunk(
        self, monkeypatch
    ):
        created = self._spy_on_context(monkeypatch)
        net = build_special(4, 3)
        cold = verify_exhaustive(net)
        cert = verify_exhaustive_parallel(
            net,
            workers=2,
            chunk_size=50,
            symmetry=False,
            _fault_spec={"die_wid": 0, "die_seq": 0},
        )
        assert cert.is_proof
        assert cert.checked == cold.checked
        assert cert.tolerated == cold.tolerated
        # the segment must be gone even though a worker crashed
        assert len(created) == 1
        ctx, name = created[0]
        assert ctx._shm is None
        if name is not None and HAVE_SHM:
            from multiprocessing import shared_memory

            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_clean_sweep_unlinks_the_segment_too(self, monkeypatch):
        created = self._spy_on_context(monkeypatch)
        net = build_special(4, 3)
        cert = verify_exhaustive_parallel(
            net, workers=2, chunk_size=100, symmetry=False
        )
        assert cert.is_proof
        assert created and created[0][0]._shm is None


#: two Gray-range pool sweeps of ring-C16(1,2) k=3, run in a fresh
#: interpreter so its resource tracker's stderr is captured whole
TRACKER_PROBE = textwrap.dedent(
    """
    from repro.core.verify import verify_exhaustive_parallel
    from repro.core.verify.bench import _big_ring

    net = _big_ring(16, 3, (1, 2))
    for _ in range(2):
        cert = verify_exhaustive_parallel(net, workers=2, symmetry=False)
        assert cert.is_proof, cert.summary()
    """
)


def _shm_segments() -> set[str]:
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


@needs_fork
@pytest.mark.skipif(
    not (HAVE_SHM and os.path.isdir("/dev/shm")),
    reason="needs POSIX shared memory under /dev/shm",
)
def test_range_sweeps_leave_no_tracker_traceback_or_segment():
    # workers share the parent's resource tracker, so only the parent may
    # unregister the segment: a second unregister is a KeyError traceback
    # printed by the tracker process
    before = _shm_segments()
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
    )
    proc = subprocess.run(
        [sys.executable, "-c", TRACKER_PROBE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    assert _shm_segments() - before == set()
