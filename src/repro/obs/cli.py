"""``python -m repro trace`` — tail, filter, dump and render traces.

Reads a trace file (written by ``python -m repro serve --trace-out``, or
any flight-recorder dump — both carry a ``spans`` array of serialized
span dicts) and answers the operator questions a metrics counter cannot:

* ``trace FILE`` — one summary line per causal trace (root event, span
  count, total duration), newest last;
* ``trace FILE --tail 20`` — the last N finished spans, flat;
* ``trace FILE --network ct --kind fault`` — filters;
* ``trace FILE --waterfall [TRACE_ID]`` — a per-trace phase waterfall
  (default: the slowest complete event trace), one bar per span,
  indented by causal depth;
* ``trace FILE --check`` — the CI well-formedness gate: every span has
  the required keys, and at least one *complete causal chain* exists —
  a fault/repair root whose descendants include a queue wait, a solve
  phase and a cache store, each with a recorded duration.  Exit 1
  otherwise, so a refactor that silently unhooks instrumentation fails
  the build instead of shipping blind.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Mapping, Sequence

__all__ = [
    "add_trace_arguments",
    "cmd_trace",
    "load_trace_file",
    "write_trace_file",
    "find_complete_chains",
]

#: keys every serialized span must carry to count as well-formed.
REQUIRED_SPAN_KEYS = (
    "trace_id",
    "span_id",
    "parent_id",
    "name",
    "start_s",
    "duration_s",
    "status",
    "attrs",
)

#: span names that make an event trace a *complete* causal chain.
CHAIN_PHASES = ("queue_wait", "solve", "cache_store")


def write_trace_file(
    path: str, spans: Sequence[Mapping], meta: Mapping[str, Any] | None = None
) -> None:
    """Write spans as a trace file (sorted keys; stable for diffing)."""
    payload = {
        "meta": dict(
            sorted(
                {
                    "format": "repro-trace/1",
                    "written_at_unix": round(time.time(), 3),
                    "spans": len(spans),
                    **(meta or {}),
                }.items()
            )
        ),
        "spans": list(spans),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_trace_file(path: str) -> dict:
    """Load a trace file or flight-recorder dump; normalizes to
    ``{"meta": ..., "spans": [...]}``."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "spans" not in payload:
        raise ValueError(f"{path}: not a trace file (no 'spans' array)")
    meta = payload.get("meta")
    if meta is None:
        # flight-recorder dump: promote its envelope to meta
        meta = {
            k: payload[k]
            for k in ("kind", "detail", "network", "seq")
            if k in payload
        }
    return {"meta": meta, "spans": list(payload["spans"])}


def malformed_spans(spans: Sequence[Mapping]) -> list[str]:
    """Problems found in *spans* (empty when every span is well-formed)."""
    bad: list[str] = []
    for i, span in enumerate(spans):
        missing = [k for k in REQUIRED_SPAN_KEYS if k not in span]
        if missing:
            bad.append(f"span #{i}: missing keys {missing}")
            continue
        if not isinstance(span["attrs"], dict):
            bad.append(f"span #{i}: attrs is not an object")
        if span["duration_s"] < 0:
            bad.append(f"span #{i}: negative duration")
    return bad


def group_traces(spans: Sequence[Mapping]) -> dict[str, list[dict]]:
    """Spans grouped by trace id, preserving first-seen trace order."""
    traces: dict[str, list[dict]] = {}
    for span in spans:
        traces.setdefault(span["trace_id"], []).append(dict(span))
    return traces


def _roots(trace: Sequence[Mapping]) -> list[Mapping]:
    ids = {s["span_id"] for s in trace}
    return [
        s for s in trace if s["parent_id"] is None or s["parent_id"] not in ids
    ]


def find_complete_chains(spans: Sequence[Mapping]) -> list[str]:
    """Trace ids forming a complete fault-event causal chain.

    A complete chain is a trace whose root is a fault/repair event and
    whose spans include every phase in :data:`CHAIN_PHASES`, each with a
    positive duration — the admission → queue → solve → cache-store
    story end to end.
    """
    complete: list[str] = []
    for trace_id, trace in group_traces(spans).items():
        roots = _roots(trace)
        if not any(
            r["name"] == "event"
            and r.get("attrs", {}).get("kind") in ("fault", "repair")
            for r in roots
        ):
            continue
        names = {
            s["name"] for s in trace if float(s.get("duration_s", 0.0)) > 0.0
        }
        if all(phase in names for phase in CHAIN_PHASES):
            complete.append(trace_id)
    return complete


def _span_label(span: Mapping) -> str:
    attrs = span.get("attrs", {})
    extras = []
    for key in ("kind", "network", "node", "solver", "result"):
        if key in attrs:
            extras.append(f"{key}={attrs[key]}")
    status = span.get("status", "ok")
    if status != "ok":
        extras.append(status.upper())
    return f"{span['name']}" + (f" [{', '.join(extras)}]" if extras else "")


def _trace_span_order(trace: list[dict]) -> list[tuple[int, dict]]:
    """(depth, span) rows in causal order: children under their parent,
    siblings by start time."""
    by_parent: dict[str | None, list[dict]] = {}
    ids = {s["span_id"] for s in trace}
    for span in trace:
        parent = span["parent_id"] if span["parent_id"] in ids else None
        by_parent.setdefault(parent, []).append(span)
    for children in by_parent.values():
        children.sort(key=lambda s: (s["start_s"], s["span_id"]))
    out: list[tuple[int, dict]] = []

    def visit(parent_id: str | None, depth: int) -> None:
        for span in by_parent.get(parent_id, []):
            out.append((depth, span))
            visit(span["span_id"], depth + 1)

    visit(None, 0)
    return out


def render_waterfall(trace: list[dict], width: int = 36) -> str:
    """An ASCII per-phase waterfall for one trace."""
    rows = _trace_span_order(trace)
    if not rows:
        return "(empty trace)"
    local = [s for _, s in rows if s.get("attrs", {}).get("clock") != "worker"]
    t0 = min((s["start_s"] for s in local), default=0.0)
    t1 = max((s["start_s"] + s["duration_s"] for s in local), default=t0)
    total = max(t1 - t0, 1e-9)
    lines = [
        f"trace {trace[0]['trace_id']} — {total * 1e3:.3f} ms, "
        f"{len(rows)} spans"
    ]
    for depth, span in rows:
        dur = float(span["duration_s"])
        if span.get("attrs", {}).get("clock") == "worker":
            bar = "~" * max(1, min(width, int(round(width * dur / total))))
            offset = 0
        else:
            offset = int(round(width * (span["start_s"] - t0) / total))
            offset = max(0, min(width - 1, offset))
            bar = "#" * max(1, min(width - offset, int(round(width * dur / total))))
        lines.append(
            f"  {'  ' * depth}{_span_label(span):<38.38} "
            f"{dur * 1e3:>9.3f}ms |{' ' * offset}{bar}"
        )
    return "\n".join(lines)


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="trace file or flight-recorder dump")
    parser.add_argument("--tail", type=int, default=None, metavar="N",
                        help="show the last N spans flat instead of by trace")
    parser.add_argument("--network", default=None,
                        help="only spans whose network attribute matches")
    parser.add_argument("--kind", default=None,
                        help="only traces whose root event kind matches "
                             "(fault/repair/query)")
    parser.add_argument("--trace-id", default=None,
                        help="only the given trace")
    parser.add_argument("--waterfall", nargs="?", const="", default=None,
                        metavar="TRACE_ID",
                        help="render a phase waterfall (default: the "
                             "slowest complete event trace)")
    parser.add_argument("--json", action="store_true",
                        help="emit the filtered spans as JSON")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero unless the file is well-formed "
                             "and contains a complete fault-event chain "
                             "with non-empty solve spans")


def _filter(spans: list[dict], args) -> list[dict]:
    if args.trace_id:
        spans = [s for s in spans if s["trace_id"] == args.trace_id]
    if args.network:
        by_trace = group_traces(spans)
        keep = {
            tid
            for tid, trace in by_trace.items()
            if any(
                s.get("attrs", {}).get("network") == args.network
                for s in trace
            )
        }
        spans = [s for s in spans if s["trace_id"] in keep]
    if args.kind:
        by_trace = group_traces(spans)
        keep = {
            tid
            for tid, trace in by_trace.items()
            if any(
                r.get("attrs", {}).get("kind") == args.kind
                for r in _roots(trace)
            )
        }
        spans = [s for s in spans if s["trace_id"] in keep]
    return spans


def cmd_trace(args) -> int:
    try:
        payload = load_trace_file(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spans = _filter(payload["spans"], args)

    if args.check:
        problems = malformed_spans(payload["spans"])
        for p in problems:
            print(f"malformed: {p}", file=sys.stderr)
        if problems:
            # chain analysis needs well-formed spans; fail fast
            print(
                f"check failed: {len(problems)} malformed span(s)",
                file=sys.stderr,
            )
            return 1
        chains = find_complete_chains(spans)
        solve_spans = [
            s
            for s in spans
            if s.get("name") == "solve" and float(s.get("duration_s", 0)) > 0
        ]
        if not chains or not solve_spans:
            if not chains:
                print(
                    "check failed: no complete fault-event -> queue -> "
                    "solve -> cache-store chain",
                    file=sys.stderr,
                )
            if not solve_spans:
                print("check failed: no non-empty solve spans", file=sys.stderr)
            return 1
        print(
            f"trace check ok: {len(spans)} spans, "
            f"{len(chains)} complete chain(s), "
            f"{len(solve_spans)} solve span(s)"
        )
        return 0

    if args.json:
        print(json.dumps({"spans": spans}, indent=2, sort_keys=True))
        return 0

    if args.tail is not None:
        for span in spans[-args.tail:]:
            print(
                f"{span['trace_id']} {span['span_id']} "
                f"{span['duration_s'] * 1e3:>9.3f}ms  {_span_label(span)}"
            )
        return 0

    traces = group_traces(spans)
    if args.waterfall is not None:
        target = args.waterfall or None
        if target is None:
            complete = find_complete_chains(spans)
            pool = complete or list(traces)
            if not pool:
                print("no traces to render", file=sys.stderr)
                return 1
            target = max(
                pool,
                key=lambda tid: sum(s["duration_s"] for s in traces[tid]),
            )
        if target not in traces:
            print(f"error: no trace {target!r} in file", file=sys.stderr)
            return 2
        print(render_waterfall(traces[target]))
        return 0

    complete = set(find_complete_chains(spans))
    for trace_id, trace in traces.items():
        roots = _roots(trace)
        root = roots[0] if roots else trace[0]
        total = sum(s["duration_s"] for s in trace)
        marker = "*" if trace_id in complete else " "
        print(
            f"{marker} {trace_id}  {len(trace):>3} spans "
            f"{total * 1e3:>9.3f}ms  {_span_label(root)}"
        )
    print(
        f"{len(traces)} trace(s), {len(complete)} complete chain(s) "
        f"(* = fault-event -> queue -> solve -> cache-store)"
    )
    return 0
