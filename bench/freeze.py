"""Regenerate the frozen inputs in ``bench/inputs/``.

    PYTHONPATH=src python bench/freeze.py

Run once when the benchmark's input set changes, never to "refresh" a
workload: a run reports drift between these files and today's builds
instead.  For the negative-control instances the cold
``verify_exhaustive`` sweep of the size-``k + 1`` fault sets is run
here and its counterexample recorded, so a run can check that the engine still finds
one without paying for the cold sweep.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import networks  # noqa: E402

#: name -> (source, negative control?)
INPUTS = {
    "ring-C8-1-2-k2": ({"kind": "ring", "m": 8, "offsets": [1, 2], "k": 2}, False),
    "ring-C8-1-2-k3": ({"kind": "ring", "m": 8, "offsets": [1, 2], "k": 3}, True),
    "ring-C16-1-2-k3": ({"kind": "ring", "m": 16, "offsets": [1, 2], "k": 3}, False),
    "ring-C32-1-2-3-k2": (
        {"kind": "ring", "m": 32, "offsets": [1, 2, 3], "k": 2}, False),
    "ring-C48-1-2-3-k3": (
        {"kind": "ring", "m": 48, "offsets": [1, 2, 3], "k": 3}, False),
    "ring-C96-1-2-3-k3": (
        {"kind": "ring", "m": 96, "offsets": [1, 2, 3], "k": 3}, False),
    "G-9-2": ({"kind": "build", "n": 9, "k": 2}, False),
    "G-13-2": ({"kind": "build", "n": 13, "k": 2}, False),
    "G-14-4": ({"kind": "build", "n": 14, "k": 4}, True),
    "G-18-5": ({"kind": "build", "n": 18, "k": 5}, False),
    "G-22-4": ({"kind": "build", "n": 22, "k": 4}, False),
    "G-60-4": ({"kind": "build", "n": 60, "k": 4}, False),
    "G-100-5": ({"kind": "build", "n": 100, "k": 5}, False),
}


def freeze(name: str, source: dict, control: bool) -> dict:
    from repro.core.verify import verify_exhaustive

    fields = networks.structure(networks.build_source(source))
    rec = {"name": name, "source": source, **fields,
           "sha256": networks.digest(fields)}
    if control:
        net = networks.load_fields(fields)
        # sizes <= k are covered by the instance's own proof; the cold
        # sweep of all of them would take minutes
        cert = verify_exhaustive(net, k=net.k + 1, sizes=[net.k + 1])
        if cert.counterexample is None:
            raise SystemExit(f"{name}: no counterexample at k+1")
        rec["control"] = {
            "k": net.k + 1,
            "cold_counterexample": sorted(cert.counterexample),
        }
    return rec


def main() -> None:
    networks.INPUT_DIR.mkdir(exist_ok=True)
    for name, (source, control) in INPUTS.items():
        rec = freeze(name, source, control)
        path = networks.INPUT_DIR / f"{name}.json"
        path.write_text(json.dumps(rec, sort_keys=True) + "\n")
        print(f"{path.name}: sha256 {rec['sha256'][:16]}", flush=True)


if __name__ == "__main__":
    main()
