"""Frozen benchmark inputs: every network the workloads use, as JSON.

Each file in ``bench/inputs/`` holds one network exactly as it was
generated once (from ``build(n, k)`` or the circulant generator):
``edges``, ``inputs``, ``outputs``, ``n``, ``k`` and a ``sha256`` over
those fields.  The benchmark registers the loaded networks, never live
builds, so a program change cannot move a workload's inputs; the
program sees them as custom networks without construction metadata.
:func:`drift` rebuilds each network from its ``source`` and names the
ones whose live build no longer matches the frozen structure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

INPUT_DIR = Path(__file__).resolve().parent / "inputs"


def ring_network(m: int, offsets: list[int], k: int):
    """A circulant ring ``C_m(offsets)`` whose every core node ``c{j}``
    carries its own input terminal ``ti{j}`` and output terminal
    ``to{j}`` (vertex-transitive, so the automorphism group is
    nontrivial)."""
    import networkx as nx

    from repro.core.model import PipelineNetwork
    from repro.graphs.circulant import circulant_graph

    g = nx.Graph()
    for a, b in circulant_graph(m, offsets).edges:
        g.add_edge(f"c{a}", f"c{b}")
    for j in range(m):
        g.add_edge(f"ti{j}", f"c{j}")
        g.add_edge(f"c{j}", f"to{j}")
    return PipelineNetwork(
        g,
        [f"ti{j}" for j in range(m)],
        [f"to{j}" for j in range(m)],
        n=m - 2,
        k=k,
    )


def build_source(source: dict):
    """The live network a frozen file's ``source`` describes."""
    if source["kind"] == "build":
        from repro.core.constructions import build

        return build(source["n"], source["k"])
    if source["kind"] == "ring":
        return ring_network(source["m"], source["offsets"], source["k"])
    raise ValueError(f"unknown input source {source!r}")


def structure(network) -> dict:
    """The frozen fields of *network*, in a canonical order."""
    labels = list(network.graph.nodes)
    if not all(isinstance(v, str) for v in labels):
        raise ValueError("frozen networks need string node labels")
    return {
        "n": network.n,
        "k": network.k,
        "inputs": sorted(network.inputs),
        "outputs": sorted(network.outputs),
        "edges": sorted(sorted(e) for e in network.graph.edges),
    }


def digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_fields(fields: dict):
    """A ``PipelineNetwork`` from frozen fields (no construction
    metadata)."""
    import networkx as nx

    from repro.core.model import PipelineNetwork

    g = nx.Graph()
    g.add_edges_from(map(tuple, fields["edges"]))
    return PipelineNetwork(
        g, fields["inputs"], fields["outputs"], n=fields["n"], k=fields["k"]
    )


def record(name: str, input_dir: Path = INPUT_DIR) -> dict:
    return json.loads((input_dir / f"{name}.json").read_text())


def load(name: str, input_dir: Path = INPUT_DIR):
    """The frozen network *name*; raises ``ValueError`` when the file's
    content does not match its sha256."""
    rec = record(name, input_dir)
    fields = {key: rec[key] for key in ("n", "k", "inputs", "outputs", "edges")}
    if digest(fields) != rec["sha256"]:
        raise ValueError(f"input {name}: content does not match its sha256")
    return load_fields(fields)


def drift(names, input_dir: Path = INPUT_DIR) -> list[str]:
    """Names of frozen inputs whose live source builds a different
    structure today."""
    out = []
    for name in names:
        rec = record(name, input_dir)
        if digest(structure(build_source(rec["source"]))) != rec["sha256"]:
            out.append(name)
    return out
