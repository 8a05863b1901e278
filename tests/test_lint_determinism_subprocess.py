"""Fingerprints and canonical fault keys are PYTHONHASHSEED-independent.

The runtime complement of the RD301 determinism pass: run the real
canonicalization stack in subprocesses under two different hash seeds
(set iteration order differs between them) and require bit-identical
cache-key material — the property the witness cache's cross-replica row
sharing stands on.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

PROBE = textwrap.dedent(
    """
    import json

    from repro.core.constructions import build
    from repro.service.canonical import (
        Canonicalizer,
        network_fingerprint,
        plain_fault_key,
    )

    out = {}
    for n, k in [(6, 2), (9, 2)]:
        net = build(n, k)
        canon = Canonicalizer()
        # pick the faults by sorted label so both seeds probe the same
        # nodes; keep the *input* a genuine set
        faults = set(sorted(net.processors, key=repr)[:2])
        key = canon.canonical(faults)
        out[f"{n}x{k}"] = {
            "fingerprint": network_fingerprint(net),
            "canonical_key": list(key),
            "plain_key": list(plain_fault_key(faults)),
        }
    print(json.dumps(out, sort_keys=True))
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
    return json.loads(proc.stdout)


def test_keys_identical_across_hash_seeds():
    first = run_probe(0)
    second = run_probe(1)
    assert first == second
    assert set(first) == {"6x2", "9x2"}
    for row in first.values():
        assert row["fingerprint"]
        assert row["canonical_key"]
