"""Persisted witness rows are PYTHONHASHSEED-independent.

The store keys rows by ``(fingerprint, encoded fault key)`` and
serializes pipelines with ``encode_nodes``; if any of that text depended
on hash-seed-driven iteration order, a store written by one process would
be unreadable garbage (or worse, silent misses) to the next.  Run the
real encode/persist/decode stack in subprocesses under two different hash
seeds and require bit-identical database content *and* a clean
cross-seed read: seed-0's database must warm a seed-1 process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

WRITE_PROBE = textwrap.dedent(
    """
    import json, sys

    from repro.core.constructions import build
    from repro.core.reconfigure import reconfigure
    from repro.service.canonical import (
        Canonicalizer,
        encode_fault_key,
        encode_nodes,
        network_fingerprint,
    )
    from repro.service.store import WitnessStore

    path = sys.argv[1]
    net = build(6, 2)
    canon = Canonicalizer()
    fingerprint = network_fingerprint(net)
    out = {"fingerprint": fingerprint, "rows": []}
    with WitnessStore(path) as store:
        for labels in [[], ["p1"], ["p1", "p2"]]:
            # the *input* is a genuine set: iteration order varies by seed
            faults = {v for v in net.processors if repr(v)[1:-1] in labels}
            key = canon.canonical(faults)
            nodes = reconfigure(net, faults).nodes
            store.put(fingerprint, key, nodes)
            out["rows"].append(
                {"key": encode_fault_key(key), "nodes": encode_nodes(nodes)}
            )
    print(json.dumps(out, sort_keys=True))
    """
)

READ_PROBE = textwrap.dedent(
    """
    import json, sys

    from repro.core.constructions import build
    from repro.core.pipeline import is_pipeline
    from repro.service.canonical import decode_fault_set, label_map
    from repro.service.store import WitnessStore

    path = sys.argv[1]
    net = build(6, 2)
    labels = label_map(net)
    out = []
    with WitnessStore(path) as store:
        fp = json.loads(sys.argv[2])
        for row in store.iter_fingerprint(fp):
            faults = decode_fault_set(row.key, labels)
            assert faults is not None, row.key
            assert is_pipeline(net, row.nodes, faults), row.key
            out.append(list(row.key))
    print(json.dumps(sorted(out)))
    """
)


def run_probe(code, seed, *argv):
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(repro.__file__).resolve().parent.parent),
        PYTHONHASHSEED=str(seed),
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_persisted_rows_identical_across_hash_seeds(tmp_path):
    first = run_probe(WRITE_PROBE, 0, str(tmp_path / "seed0.db"))
    second = run_probe(WRITE_PROBE, 1, str(tmp_path / "seed1.db"))
    assert first == second
    assert len(first["rows"]) == 3


def test_store_written_under_one_seed_reads_under_another(tmp_path):
    path = str(tmp_path / "cross.db")
    written = run_probe(WRITE_PROBE, 0, path)
    keys = run_probe(
        READ_PROBE, 1, path, json.dumps(written["fingerprint"])
    )
    assert len(keys) == 3
    assert sorted(json.loads(r["key"]) for r in written["rows"]) == keys
