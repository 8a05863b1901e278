"""The one latency histogram: the log-linear bucket layout, quantiles
within 1/16 of the exact nearest-rank sample, observe/merge agreeing
with the one-pass counter, and the octave rows the exposition reads."""

import math
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import (
    BUCKET_BOUNDS,
    SUB_BUCKETS,
    LatencyHistogram,
    bucket_index,
    summarize_samples,
)

QUANTILES = (0.0, 0.5, 0.9, 0.95, 0.99, 1.0)


def nearest_rank(samples, q):
    """The exact nearest-rank *q*-quantile of a sample population."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestBuckets:
    def test_bounds_are_log_spaced(self):
        assert len(BUCKET_BOUNDS) == 27
        assert BUCKET_BOUNDS[0] == 1e-6
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi == lo * 2

    def test_bucket_index_boundaries(self):
        assert bucket_index(0.0) == (0, 0)           # underflow row
        assert bucket_index(-1.0) == (0, 0)          # clamped, not an error
        assert bucket_index(1e-6) == (0, 0)          # exact bound lands inside
        assert bucket_index(1.01e-6) == (1, 0)
        assert bucket_index(2e-6) == (1, SUB_BUCKETS - 1)  # octave's last column
        assert bucket_index(2.1e-6) == (2, 0)
        last = len(BUCKET_BOUNDS) - 1
        assert bucket_index(BUCKET_BOUNDS[-1]) == (last, SUB_BUCKETS - 1)
        assert bucket_index(1e9) == (last + 1, 0)    # overflow row

    def test_every_octave_splits_into_equal_width_columns(self):
        for row in range(1, len(BUCKET_BOUNDS)):
            lo = BUCKET_BOUNDS[row - 1]
            for col in range(SUB_BUCKETS):
                mid = lo * (1 + (col + 0.5) / SUB_BUCKETS)
                assert bucket_index(mid) == (row, col)


class TestLatencyHistogram:
    def test_observe_is_immutable(self):
        h0 = LatencyHistogram()
        h1 = h0.observe(0.001)
        assert h0.count == 0 and h1.count == 1
        assert h0 is not h1
        assert h0 == LatencyHistogram()

    def test_count_total_max_mean(self):
        h = summarize_samples([0.001, 0.003, 0.002])
        assert h.count == 3
        assert h.max == 0.003
        assert h.total == pytest.approx(0.006)
        assert h.mean == pytest.approx(0.002)

    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.mean == 0.0
        assert h.p50 == 0.0 and h.p95 == 0.0 and h.p99 == 0.0
        assert summarize_samples([]) == h

    def test_quantile_is_conservative_within_one_sixteenth(self):
        samples = [1e-5 * (i + 1) for i in range(100)]
        h = summarize_samples(samples)
        for q in (0.5, 0.9, 0.95, 0.99):
            exact = nearest_rank(samples, q)
            reported = h.quantile(q)
            assert reported >= exact                      # never under-reports
            assert reported <= exact * (1 + 1 / SUB_BUCKETS)

    def test_quantile_capped_at_observed_max(self):
        h = summarize_samples([0.0015])
        assert h.p99 == 0.0015  # the bucket bound would read above the max

    def test_overflow_bucket_reports_max(self):
        big = BUCKET_BOUNDS[-1] * 10
        h = summarize_samples([big])
        assert h.p50 == big

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_merge_equals_observing_everything(self):
        a = summarize_samples([0.001, 0.004])
        b = summarize_samples([0.002, 8.0])
        merged = a.merge(b)
        whole = summarize_samples([0.001, 0.004, 0.002, 8.0])
        assert merged.count == whole.count
        assert merged.max == whole.max
        assert merged.buckets == whole.buckets
        assert merged.total == pytest.approx(whole.total)

    def test_bucket_rows_cumulative_prometheus_style(self):
        h = summarize_samples([1e-6, 1e-3, 2.0])
        rows = h.bucket_rows()
        assert rows[-1] == (math.inf, 3)
        counts = [c for _, c in rows]
        assert counts == sorted(counts)  # cumulative, monotone
        assert [b for b, _ in rows[:-1]] == list(BUCKET_BOUNDS)

    def test_as_dict_shape(self):
        d = summarize_samples([0.01]).as_dict()
        assert set(d) == {"count", "mean", "max", "p50", "p95", "p99"}


# log-uniform over the bucketed range, plus the exact bucket bounds
_seconds = st.one_of(
    st.floats(min_value=0.0, max_value=26.0).map(lambda e: 1e-6 * 2.0**e),
    st.sampled_from(BUCKET_BOUNDS),
    st.floats(min_value=1e-6, max_value=BUCKET_BOUNDS[-1]),
)


@settings(max_examples=300, deadline=None)
@given(
    samples=st.lists(_seconds, min_size=1, max_size=300),
    cut=st.integers(min_value=0, max_value=300),
)
def test_histogram_agrees_with_the_exact_population(samples, cut):
    hist = summarize_samples(samples)
    for q in QUANTILES:
        exact = nearest_rank(samples, q)
        assert exact <= hist.quantile(q) <= exact * (1 + 1 / 16)
    assert reduce(LatencyHistogram.observe, samples, LatencyHistogram()) == hist
    merged = summarize_samples(samples[:cut]).merge(
        summarize_samples(samples[cut:])
    )
    assert (merged.count, merged.max, merged.buckets) == (
        hist.count, hist.max, hist.buckets
    )
    assert merged.total == pytest.approx(hist.total)
    for bound, cumulative in hist.bucket_rows():
        assert cumulative == sum(1 for s in samples if s <= bound)
