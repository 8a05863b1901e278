"""The one latency summary: a log-linear, mergeable histogram.

:class:`LatencyHistogram` is the only summary of measured latency in
:mod:`repro.obs` and :mod:`repro.service`: control-plane metrics, the
Prometheus exposition, the per-phase ``phases`` breakdowns of both BENCH
files, the load harness's query/solve rows and the service smoke gate
all read it.

Layout (HdrHistogram-style, http://hdrhistogram.org/): an underflow
bucket for values up to 1 µs, then every power-of-two octave from 1 µs
to ~67 s split into :data:`SUB_BUCKETS` equal-width buckets, then an
overflow bucket.  A reported quantile is the *upper bound* of the bucket
holding the nearest-rank sample, capped at the observed maximum.  Inside
an octave ``(lo, 2 lo]`` a bucket is ``lo / SUB_BUCKETS`` wide and holds
only values above ``lo``, so a quantile never under-reports and reads at
most ``1 / SUB_BUCKETS`` (6.25%) above the exact sample quantile — tight
enough for a 10% regression gate.  The overflow bucket reports the max.

Counts are stored as one row per octave (plus a one-slot underflow and
overflow row), so ``observe`` copies one 16-slot row and the 28-entry row
tuple instead of all 418 counts.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

#: Equal-width buckets per power-of-two octave.
SUB_BUCKETS = 16

#: Octave upper bounds in seconds: 1 µs * 2**i, i = 0..26 (~67 s).  These
#: are the Prometheus ``le`` bounds of :meth:`LatencyHistogram.bucket_rows`.
BUCKET_BOUNDS: tuple[float, ...] = tuple(1e-6 * 2**i for i in range(27))

#: Every bucket's upper bound, ascending: the underflow bound, then
#: ``SUB_BUCKETS`` steps across each octave (the last step of an octave
#: is exactly its ``BUCKET_BOUNDS`` entry).  Each bound is a multiple of
#: 1 µs / 16, so rounding to 10 decimals gives the float nearest its
#: decimal value: reports read 0.000304, not 0.00030399999999999996.
_UPPER: tuple[float, ...] = (BUCKET_BOUNDS[0],) + tuple(
    round(lo * (SUB_BUCKETS + j) / SUB_BUCKETS, 10)
    for lo in BUCKET_BOUNDS[:-1]
    for j in range(1, SUB_BUCKETS + 1)
)
_OCTAVES = len(BUCKET_BOUNDS) - 1

#: ``(row, column)`` of each bucket in ``_UPPER`` order, plus overflow.
_SLOT: tuple[tuple[int, int], ...] = (
    ((0, 0),)
    + tuple((r, c) for r in range(1, _OCTAVES + 1) for c in range(SUB_BUCKETS))
    + ((_OCTAVES + 1, 0),)
)
_EMPTY = ((0,),) + ((0,) * SUB_BUCKETS,) * _OCTAVES + ((0,),)


def bucket_index(value: float) -> tuple[int, int]:
    """``(row, column)`` of the bucket holding *value*.

    Row 0 is the underflow bucket (values <= 1 µs, negatives included),
    rows 1..26 are the octaves ending at ``BUCKET_BOUNDS[row]`` and row 27
    is the overflow bucket.
    """
    return _SLOT[bisect_left(_UPPER, value)]


@dataclass(frozen=True)
class LatencyHistogram:
    """Streaming latency aggregate (seconds) with bucketed quantiles.

    Immutable: ``observe``/``merge`` return new values, so instances can
    be swapped atomically under a lock and snapshotted without copying.

    >>> h = LatencyHistogram()
    >>> for v in (0.001, 0.002, 0.004):
    ...     h = h.observe(v)
    >>> h.count, round(h.mean, 4), h.max
    (3, 0.0023, 0.004)
    >>> h.quantile(0.5)  # the bucket (0.001984, 0.002048] holds 0.002
    0.002048
    """

    count: int = 0
    total: float = 0.0
    max: float = 0.0
    #: per-row bucket counts, laid out as :func:`bucket_index` describes.
    buckets: tuple[tuple[int, ...], ...] = field(default=_EMPTY, repr=False)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, latency: float) -> "LatencyHistogram":
        """A new histogram with *latency* folded in."""
        row, col = bucket_index(latency)
        rows = list(self.buckets)
        counts = list(rows[row])
        counts[col] += 1
        rows[row] = tuple(counts)
        return LatencyHistogram(
            count=self.count + 1,
            total=self.total + latency,
            max=max(self.max, latency),
            buckets=tuple(rows),
        )

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """The bucket-wise sum of two histograms."""
        return LatencyHistogram(
            count=self.count + other.count,
            total=self.total + other.total,
            max=max(self.max, other.max),
            buckets=tuple(
                tuple(a + b for a, b in zip(mine, theirs))
                for mine, theirs in zip(self.buckets, other.buckets)
            ),
        )

    def quantile(self, q: float) -> float:
        """The upper bound of the bucket holding the nearest-rank
        *q*-quantile, capped at the observed maximum.

        Never below the exact sample quantile and, for samples of at
        least 1 µs, at most ``1 / SUB_BUCKETS`` above it.  The overflow
        bucket reports the observed maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for bound, c in zip(_UPPER, chain.from_iterable(self.buckets)):
            seen += c
            if seen >= rank:
                return min(bound, self.max)
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> dict:
        """JSON-friendly summary (buckets elided; see ``bucket_rows``)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def bucket_rows(self) -> list[tuple[float, int]]:
        """``(upper_bound_seconds, cumulative_count)`` rows at the octave
        bounds, Prometheus style: counts are cumulative and the final row
        is ``(inf, count)``."""
        rows: list[tuple[float, int]] = []
        seen = 0
        for bound, counts in zip(BUCKET_BOUNDS, self.buckets):
            seen += sum(counts)
            rows.append((bound, seen))
        rows.append((math.inf, self.count))
        return rows


def summarize_samples(samples: Iterable[float]) -> LatencyHistogram:
    """Count a raw sample population into a :class:`LatencyHistogram` in
    one pass (the same value as folding it with ``observe``)."""
    rows = [list(r) for r in _EMPTY]
    count = 0
    total = top = 0.0
    for s in samples:
        row, col = bucket_index(s)
        rows[row][col] += 1
        count += 1
        total += s
        top = max(top, s)
    return LatencyHistogram(count, total, top, tuple(map(tuple, rows)))
