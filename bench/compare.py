"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py --base A1.json A2.json ... --change B1.json ...

For every workload and end-to-end metric (per-layer metrics with
``--per-layer``) it prints each side's median and quartiles and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``within bound`` — the change's median is no worse than the base's by
  more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, unless every change run reads better than
  every base run (``better``).

The ``gain`` column applies the claim rule: the change must win at least
nine tenths of the pairs (base run i against change run i, in the order
given; ties count for neither) and the medians must differ by more than
the base's own quartile distance.  Quartiles use ``stats.quantile``, the
runner's own estimator.

A last row per workload, ``host_probe_ms``, is no metric: it is the
host's speed next to each run (a fixed pure-Python loop), so a spread
that follows the host can be told from one the program causes.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from stats import median, quantile

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return quantile(values, 0.25), median(values), quantile(values, 0.75)


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better: str, bound: float | None) -> str:
    sign = 1 if better == "lower" else -1
    if bound is None:
        return "-"
    if all(sign * c < sign * b for c in change for b in base):
        return "better"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    b, c = median(base), median(change)
    worse = sign * (c - b) / abs(b) if b else 0.0
    return "regressed" if worse > bound else "within bound"


def gain(base, change, better: str) -> str:
    sign = 1 if better == "lower" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    q1, med, q3 = quartiles(base)
    claimed = (wins >= 0.9 * len(pairs)
               and abs(median(change) - med) > q3 - q1)
    return f"{'yes' if claimed else 'no'} ({wins}/{len(pairs)})"


def load(paths: list[Path]) -> dict:
    """workload -> metric -> values, in file order; ``host_probe_ms`` is
    the mean of the probes taken before and after the workload."""
    out: dict = {}
    for path in paths:
        for name, res in json.loads(path.read_text())["workloads"].items():
            values = dict(res["metrics"])
            probes = res["detail"].get("host_probe_ms")
            if probes:
                values["host_probe_ms"] = sum(probes) / len(probes)
            for metric, value in values.items():
                out.setdefault(name, {}).setdefault(metric, []).append(value)
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", type=Path, required=True)
    p.add_argument("--change", nargs="+", type=Path, required=True)
    p.add_argument("--per-layer", action="store_true")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if args.per_layer else spec["end_to_end"]
    rows = [*rows, {"name": "host_probe_ms", "better": "lower"}]
    base, change = load(args.base), load(args.change)
    print(f"{'workload':<20} {'metric':<28} {'base median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'diff':>7}  {'verdict':<12} gain")
    for workload in sorted(set(base) & set(change)):
        for row in rows:
            name = row["name"]
            a = base[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            diff = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
            host = name == "host_probe_ms"
            print(f"{workload:<20} {name:<28} {fmt(qa):>32} {fmt(qb):>32} "
                  f"{diff:>+7.1%}  "
                  f"{verdict(a, b, row['better'], row.get('bound')):<12} "
                  f"{'-' if host else gain(a, b, row['better'])}")


if __name__ == "__main__":
    main()
