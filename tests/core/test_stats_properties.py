"""Property-based tests for StatsCollector's derived metrics.

Every figure in the paper passes through this class, so its percentile,
CDF, bucketing, and merge logic must be correct on arbitrary inputs —
including the degenerate ones (empty runs, ties, single samples).
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import StatsCollector, merge_collectors

latency_lists = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
    max_size=200,
)


def collector_with(latencies, start=0.0, end=60.0) -> StatsCollector:
    collector = StatsCollector("test", "test")
    collector.begin(start)
    for latency in latencies:
        # Submit at t=0 so the stored latency equals the input exactly
        # (no floating-point cancellation in confirmed_at - submitted_at).
        collector.record_confirmation(0.0, latency)
    collector.finish(end)
    return collector


@settings(max_examples=200, deadline=None)
@given(latencies=latency_lists, pct=st.floats(min_value=1.0, max_value=100.0))
def test_percentile_is_an_order_statistic(latencies, pct):
    collector = collector_with(latencies)
    value = collector.latency_percentile(pct)
    if not latencies:
        assert value == 0.0
        return
    ordered = sorted(latencies)
    assert value in ordered
    # Nearest-rank definition: at least pct% of samples are <= value.
    rank = sum(1 for lat in ordered if lat <= value)
    assert rank >= math.ceil(pct / 100 * len(ordered))


@settings(max_examples=100, deadline=None)
@given(latencies=latency_lists)
def test_percentiles_are_monotone_in_pct(latencies):
    collector = collector_with(latencies)
    p50 = collector.latency_percentile(50)
    p95 = collector.latency_percentile(95)
    p99 = collector.latency_percentile(99)
    assert p50 <= p95 <= p99


@settings(max_examples=100, deadline=None)
@given(latencies=latency_lists)
def test_cdf_is_monotone_and_reaches_one(latencies):
    collector = collector_with(latencies)
    cdf = collector.latency_cdf()
    if not latencies:
        assert cdf == []
        return
    xs = [x for x, _ in cdf]
    ys = [y for _, y in cdf]
    assert xs == sorted(xs)
    assert ys == sorted(ys)
    assert ys[-1] == 1.0
    assert max(xs) == max(latencies)


@settings(max_examples=100, deadline=None)
@given(
    confirm_times=st.lists(
        st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
        min_size=1,
        max_size=150,
    ),
    bucket=st.floats(min_value=0.5, max_value=10.0),
)
def test_commit_buckets_partition_all_commits(confirm_times, bucket):
    collector = StatsCollector()
    collector.begin(0.0)
    for t in confirm_times:
        collector.record_confirmation(0.0, t)
    collector.finish(max(confirm_times))
    buckets = collector.commits_per_bucket(bucket)
    assert sum(count for _, count in buckets) == len(confirm_times)
    times = [t for t, _ in buckets]
    assert times == sorted(times)


@settings(max_examples=100, deadline=None)
@given(groups=st.lists(latency_lists, min_size=1, max_size=5))
def test_merge_preserves_totals_and_extremes(groups):
    collectors = [collector_with(latencies) for latencies in groups]
    for i, collector in enumerate(collectors):
        collector.submitted = len(groups[i])
        collector.rejected = i
    merged = merge_collectors(collectors)
    all_latencies = [lat for group in groups for lat in group]
    assert merged.confirmed == len(all_latencies)
    assert merged.submitted == sum(len(g) for g in groups)
    assert merged.rejected == sum(range(len(groups)))
    if all_latencies:
        assert math.isclose(
            merged.latency_avg(), sum(all_latencies) / len(all_latencies)
        )
        assert merged.latency_percentile(100) == max(all_latencies)


@settings(max_examples=50, deadline=None)
@given(latencies=latency_lists)
def test_merge_single_is_identity_on_metrics(latencies):
    collector = collector_with(latencies)
    # The merge moves the input's samples out, so the expected figures
    # are read before it.
    confirmed = collector.confirmed
    latency_avg = collector.latency_avg()
    throughput = collector.throughput()
    merged = merge_collectors([collector])
    assert merged.confirmed == confirmed
    assert merged.latency_avg() == latency_avg
    assert merged.throughput() == throughput
