"""Trace context propagation into the parallel verifier's worker
processes, and PYTHONHASHSEED-independence of span serialization."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core.constructions import build
from repro.core.verify.parallel import verify_exhaustive_parallel
from repro.obs.spans import Tracer


class TestWorkerPropagation:
    def test_chunk_spans_parent_on_active_span(self):
        tracer = Tracer()
        with tracer.span("sweep", instance="G(3,2)") as root:
            cert = verify_exhaustive_parallel(build(3, 2), workers=2)
        assert cert.is_proof
        spans = tracer.spans()
        chunk_spans = [s for s in spans if s["name"] == "verify_chunk"]
        assert chunk_spans, "workers recorded no spans"
        for s in chunk_spans:
            assert s["trace_id"] == root.trace_id
            assert s["parent_id"] == root.span_id
            assert s["span_id"].startswith(f"{root.span_id}.")
            assert s["attrs"]["clock"] == "worker"
            assert s["attrs"]["n_items"] >= 1
        # deterministic chunk-sequence suffixes, not pids
        suffixes = [s["span_id"].rsplit(".", 1)[1] for s in chunk_spans]
        assert sorted(suffixes) == sorted(str(i) for i in range(len(suffixes)))
        # the dispatcher annotated the root with its accounting
        sweep = [s for s in spans if s["name"] == "sweep"][0]
        assert sweep["attrs"]["chunks"] == len(chunk_spans)
        assert sweep["attrs"]["workers"] == 2

    def test_untraced_run_records_nothing_and_agrees(self):
        cert = verify_exhaustive_parallel(build(3, 2), workers=2)
        assert cert.is_proof  # no active span: tracing cost is zero

    def test_serial_fallback_still_traced(self):
        tracer = Tracer()
        with tracer.span("sweep") as root:
            cert = verify_exhaustive_parallel(build(2, 2), workers=1)
        assert cert.is_proof
        # workers=1 runs the chunks in-process; their spans still land
        # on the active trace, parented like a pool worker's
        spans = tracer.spans()
        chunk_spans = [s for s in spans if s["name"] == "verify_chunk"]
        assert chunk_spans
        assert all(s["parent_id"] == root.span_id for s in chunk_spans)
        assert "sweep" in {s["name"] for s in spans}


PROBE = textwrap.dedent(
    """
    import json

    from repro.core.constructions import build
    from repro.core.verify.parallel import verify_exhaustive_parallel
    from repro.obs.spans import Tracer

    tracer = Tracer()
    with tracer.span("sweep", instance="G(3,2)", zebra=1, alpha=2):
        # pin chunk_size: adaptive sizing reacts to wall-clock timings,
        # so the chunk count would differ between runs for reasons that
        # have nothing to do with the hash seed
        verify_exhaustive_parallel(build(3, 2), workers=2, chunk_size=4)
    spans = tracer.spans()
    for s in spans:
        s["start_s"] = s["duration_s"] = 0.0
        # per-worker warm-sweeper counters depend on which worker process
        # happened to run each chunk -- scheduling, not hash-seed, state
        for attr in ("solver_calls", "adapted"):
            s["attrs"].pop(attr, None)
    spans.sort(key=lambda s: s["span_id"])
    print(json.dumps(spans, sort_keys=True))
    """
)


def run_probe(seed):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
        PYTHONHASHSEED=str(seed),
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.slow
def test_span_serialization_hashseed_independent():
    """Span ids, attr ordering and JSON rendering must not depend on the
    interpreter's hash seed — flight-recorder dumps get diffed."""
    out0, out1 = run_probe(0), run_probe(1)
    assert out0 == out1
    spans = json.loads(out0)
    names = {s["name"] for s in spans}
    assert "sweep" in names and "verify_chunk" in names
