"""Import-time contracts, each checked in a fresh interpreter.

* ``import repro`` must not import numpy: a serving process never runs
  the numpy-backed verification engine, and would pay its import time
  and memory for nothing.  The engine's names still resolve from
  ``repro.core.verify`` on first use.
* The benchmark's tracing wrappers (``bench/layers.py``) patch program
  names by class body and module attribute.  Installing them must find
  every one, and a store-backed plane driven through them must report
  its cache lookups and adoptions.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
BENCH = SRC.parent / "bench"

NUMPY_FREE_PROBE = textwrap.dedent(
    """
    import sys

    import repro
    assert "numpy" not in sys.modules, "import repro loaded numpy"
    from repro.core.verify import parallel, shm
    import repro.core.verify as verify
    missing = [name for name in verify.__all__ if not hasattr(verify, name)]
    assert not missing, missing
    assert verify.verify_exhaustive_parallel is parallel.verify_exhaustive_parallel
    assert verify.ShmWorkerPool is shm.ShmWorkerPool
    """
)

WRAPPER_PROBE = textwrap.dedent(
    """
    import json, sys

    sys.path[:0] = [sys.argv[1], sys.argv[2]]
    import layers

    rec = layers.Recorder()
    layers.install_service(rec)
    layers.install_verify(layers.Recorder())
    rec.active = True

    from repro.service import ControlPlane, ControlPlaneConfig

    config = ControlPlaneConfig(workers=1, store_path=sys.argv[3])
    with ControlPlane(config) as plane:
        plane.register("a", n=6, k=2)
        for submit in (plane.submit_fault, plane.submit_repair,
                       plane.submit_fault):
            submit("a", "p1").result(timeout=60)
    print(json.dumps({name: t["count"] for name, t in rec.totals.items()}))
    """
)


def run_probe(code, *argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_leaves_numpy_unloaded():
    run_probe(NUMPY_FREE_PROBE)


def test_bench_wrappers_find_every_patched_name(tmp_path):
    counts = json.loads(
        run_probe(WRAPPER_PROBE, str(BENCH), str(SRC), str(tmp_path / "w.db"))
    )
    # fault (miss, solve), repair (hit on the fault-free row), fault (hit)
    assert counts["cache.lookup"] == 3
    assert counts["session.solve"] == 1
    assert counts["session.adopt"] == 2
    assert counts["tiering.warm_start"] == 1
