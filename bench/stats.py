"""Order statistics shared by the runner and ``compare.py``."""

from __future__ import annotations

import math


def quantile(values, q: float) -> float:
    """The *q*-quantile of *values* by linear interpolation between the
    closest ranks; 0.0 for an empty population."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def geomean(values) -> float:
    xs = [v for v in values if v > 0]
    if not xs:
        return 0.0
    return math.exp(sum(math.log(v) for v in xs) / len(xs))
