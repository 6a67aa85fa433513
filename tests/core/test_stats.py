"""Unit tests for the stats collector."""

import math
import random
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import StatsCollector, merge_collectors


def make_collector(latencies, start=0.0, end=10.0):
    collector = StatsCollector("p", "w")
    collector.begin(start)
    for i, latency in enumerate(latencies):
        collector.record_submission()
        collector.record_confirmation(float(i), float(i) + latency)
    collector.finish(end)
    return collector


def test_throughput():
    collector = make_collector([0.1] * 50, end=10.0)
    assert collector.throughput() == 5.0


def test_latency_stats():
    collector = make_collector([1.0, 2.0, 3.0, 4.0])
    assert collector.latency_avg() == 2.5
    assert collector.latency_percentile(50) == 2.0
    assert collector.latency_percentile(100) == 4.0


def test_empty_collector_safe():
    collector = StatsCollector()
    assert collector.throughput() == 0.0
    assert collector.latency_avg() == 0.0
    assert collector.latency_percentile(99) == 0.0
    assert collector.latency_cdf() == []
    assert collector.commits_per_bucket() == []
    assert collector.final_queue_length() == 0


def test_cdf_monotone_and_complete():
    collector = make_collector([float(i) for i in range(1, 101)])
    cdf = collector.latency_cdf(points=10)
    fractions = [f for _, f in cdf]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    latencies = [l for l, _ in cdf]
    assert latencies == sorted(latencies)


def test_commits_per_bucket():
    collector = StatsCollector()
    collector.begin(0.0)
    for t in [0.1, 0.5, 1.2, 2.9, 2.95]:
        collector.record_confirmation(0.0, t)
    collector.finish(3.0)
    buckets = dict(collector.commits_per_bucket(1.0))
    assert buckets[0.0] == 2
    assert buckets[1.0] == 1
    assert buckets[2.0] == 2


def test_queue_samples():
    collector = StatsCollector()
    collector.record_queue_length(1.0, 5)
    collector.record_queue_length(2.0, 8)
    assert collector.final_queue_length() == 8


def test_summary_fields():
    collector = make_collector([1.0, 3.0], end=4.0)
    collector.record_rejection()
    summary = collector.summary()
    assert summary.confirmed == 2
    assert summary.submitted == 2
    assert summary.rejected == 1
    assert summary.throughput_tx_s == 0.5
    assert summary.latency_avg_s == 2.0


def test_merge_collectors():
    a = make_collector([1.0] * 10, start=0.0, end=10.0)
    b = make_collector([2.0] * 10, start=0.0, end=12.0)
    a.record_queue_length(5.0, 3)
    b.record_queue_length(5.0, 4)
    merged = merge_collectors([a, b])
    assert merged.confirmed == 20
    assert merged.latency_avg() == 1.5
    assert merged.duration() == 12.0
    assert merged.queue_samples == [(5.0, 7)]


def test_merge_empty_list():
    merged = merge_collectors([])
    assert merged.confirmed == 0


# ---------------------------------------------------------------------------
# The report runs while the whole run is still held: it builds no whole
# column of boxed floats and holds no column twice.
# ---------------------------------------------------------------------------
def _random_collector(samples, seed):
    rng = random.Random(seed)
    collector = StatsCollector("p", "w")
    for i in range(samples):
        collector.record_confirmation(float(i), float(i) + rng.expovariate(2.0))
    return collector


def test_summary_boxes_no_whole_latency_column():
    """Sorting the latencies into a list of boxed floats cost ~40 B per
    sample; ascending runs of packed doubles, ~15 B."""
    samples = 20_000
    collector = _random_collector(samples, seed=1)
    tracemalloc.start()
    try:
        summary = collector.summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.confirmed == samples
    assert peak / samples < 20, f"{peak / samples:.0f} B per sample"


def test_merge_moves_the_slot_samples():
    """The merged columns are the slots' samples, moved: the slots are
    left empty and what the merge holds beyond the inputs it took is
    under 2 B per sample (copying kept ~17 B)."""
    samples = 20_000
    tracemalloc.start()
    try:
        slots = [_random_collector(samples // 8, seed) for seed in range(8)]
        expected = [lat for slot in slots for lat in slot.latencies]
        expected_times = [t for slot in slots for t in slot.confirm_times]
        inputs, _ = tracemalloc.get_traced_memory()
        merged = merge_collectors(slots)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(merged.latencies) == expected
    assert list(merged.confirm_times) == expected_times
    assert all(not slot.latencies and not slot.confirm_times for slot in slots)
    assert merged.confirmed == sum(slot.confirmed for slot in slots) == samples
    assert (held - inputs) / samples < 2, f"{(held - inputs) / samples:.1f} B per sample"


# ---------------------------------------------------------------------------
# Samples are packed doubles; every derived figure equals the one a plain
# list of floats gives.
# ---------------------------------------------------------------------------
def _reference_samples(pairs, reservoir=0, seed=0):
    """The latency sample set as a list: every latency, or Algorithm R
    with the collector's seeded draws."""
    rng = random.Random(seed)
    samples = []
    for n, (submitted, confirmed) in enumerate(pairs, start=1):
        latency = confirmed - submitted
        if not reservoir or len(samples) < reservoir:
            samples.append(latency)
        else:
            slot = rng.randrange(n)
            if slot < reservoir:
                samples[slot] = latency
    return samples


def _reference_figures(samples, points):
    """(avg, p50, p95, p99, cdf) computed over a list of floats."""
    if not samples:
        return 0.0, 0.0, 0.0, 0.0, []
    ordered = sorted(samples)
    n = len(ordered)

    def percentile(pct):
        return ordered[min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))]

    step = max(1, n // points)
    cdf = [(ordered[i], (i + 1) / n) for i in range(0, n, step)]
    if cdf[-1][1] < 1.0:
        cdf.append((ordered[-1], 1.0))
    return sum(samples) / n, percentile(50), percentile(95), percentile(99), cdf


def _figures(collector, points):
    return (
        collector.latency_avg(),
        collector.latency_percentile(50),
        collector.latency_percentile(95),
        collector.latency_percentile(99),
        collector.latency_cdf(points),
    )


_instants = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_pairs = st.lists(st.tuples(_instants, _instants), max_size=60)


@settings(max_examples=150, deadline=None)
@given(
    groups=st.lists(_pairs, min_size=1, max_size=4),
    reservoir=st.sampled_from([0, 1, 5, 20]),
    points=st.integers(1, 60),
)
def test_packed_samples_match_a_list_reference(groups, reservoir, points):
    collectors = []
    for seed, pairs in enumerate(groups):
        collector = StatsCollector("p", "w", reservoir=reservoir, reservoir_seed=seed)
        for i, (submitted, confirmed) in enumerate(pairs):
            collector.record_confirmation(submitted, confirmed)
            if i == len(pairs) // 2:
                collector.latency_percentile(50)  # warm the sorted cache
        assert collector.latencies.typecode == "d"
        assert collector.confirm_times.typecode == "d"
        reference = _reference_samples(pairs, reservoir, seed)
        assert list(collector.latencies) == reference
        assert _figures(collector, points) == _reference_figures(reference, points)
        collectors.append(collector)
    merged = merge_collectors(collectors)
    assert merged.latencies.typecode == "d"
    merged_reference = [
        lat
        for seed, pairs in enumerate(groups)
        for lat in _reference_samples(pairs, reservoir, seed)
    ]
    assert _figures(merged, points) == _reference_figures(merged_reference, points)
