"""Statistics collection (the paper's StatsCollector, Figure 4).

Collects everything Section 3.3 defines: throughput (successful
transactions per second), latency (submission to confirmation),
client-side queue length over time, and per-second commit series for
the fault-tolerance timelines.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field

from .trace import (
    StageBreakdown,
    _ascending,
    _percentile,
    _sorted_runs,
    _summarise,
)


@dataclass
class StatsSummary:
    """Headline numbers for one experiment run."""

    platform: str
    workload: str
    duration_s: float
    submitted: int
    rejected: int
    confirmed: int
    throughput_tx_s: float
    latency_avg_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    final_queue_length: int
    #: Chain safety violations the auditor flagged during the run
    #: (fork / garbage digest / height regression). Defaulted so
    #: summaries persisted before the auditor existed still load.
    safety_violations: int = 0
    #: Per-stage lifecycle breakdown (repro.core.trace), attached by
    #: ``run_experiment`` from the cluster's tracer. None on a bare
    #: ``StatsCollector.summary()`` and on run files written before
    #: tracing existed, which carry no such key.
    stage_breakdown: StageBreakdown | None = field(default=None)
    #: Per-node crash-recovery duration (crash -> caught up and voting
    #: again), keyed by node id. Empty — and omitted from persisted run
    #: JSON — when nothing recovered during the run.
    recovery_time_s: dict[str, float] = field(default_factory=dict)
    #: Cluster-total block-sync traffic generated by crash catch-up
    #: (requests sent, blocks and payload bytes received by recovering
    #: nodes). All zero, and omitted from run JSON, without recovery.
    sync_requests: int = 0
    sync_blocks: int = 0
    sync_bytes: int = 0


class StatsCollector:
    """Accumulates per-transaction and time-series measurements.

    ``reservoir`` bounds the number of latency samples held in memory
    (Algorithm R, seeded and deterministic): at 100k+ open-loop clients
    an unbounded per-transaction list is the collector's own memory
    bottleneck. The tradeoff is percentile accuracy — with a reservoir
    of k, the p-th percentile is estimated from k uniform samples, so
    tail percentiles carry an error of roughly ±sqrt(p(1-p)/k) in rank
    terms (k = 10_000 keeps p99 within ~0.1 rank-percent). Default 0 =
    unbounded: every sample kept, byte-identical to the pre-reservoir
    collector. Confirmation *counts* are exact either way — only the
    latency sample set is bounded (``confirm_times`` collapses into
    exact one-second buckets in reservoir mode). ``queue_samples`` is
    the client side's outstanding queue only; the cluster's per-stage
    backlog gauges are sampled and summed by its ``StageTracer``.
    """

    def __init__(
        self,
        platform: str = "",
        workload: str = "",
        reservoir: int = 0,
        reservoir_seed: int = 0,
    ) -> None:
        self.platform = platform
        self.workload = workload
        self.submitted = 0
        self.rejected = 0
        # Packed doubles: 8 B per sample instead of a float object plus
        # a list slot.
        self.latencies = array("d")
        self.confirm_times = array("d")
        self.queue_samples: list[tuple[float, int]] = []
        self.start_time = 0.0
        self.end_time = 0.0
        self.reservoir = reservoir
        self._confirmed = 0
        self._reservoir_rng = (
            random.Random(reservoir_seed) if reservoir > 0 else None
        )
        # Exact per-second confirmation counts, kept instead of raw
        # confirm_times when the reservoir bounds memory.
        self._confirm_buckets: dict[int, int] = {}
        # Sorted view of ``latencies``, computed lazily and shared by
        # every percentile/CDF call: summary() alone needs three
        # percentiles, and report/export code asks for CDFs on top —
        # one sort per batch of appends instead of one per query.
        self._sorted_latencies_cache: array | None = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(self, now: float) -> None:
        """Mark the start of the measurement window."""
        self.start_time = now

    def finish(self, now: float) -> None:
        """Mark the end of the measurement window."""
        self.end_time = now

    def record_submission(self) -> None:
        """Count one transaction offered to the backend."""
        self.submitted += 1

    def record_rejection(self) -> None:
        """Count one submission the backend refused (throttle/full)."""
        self.rejected += 1

    def record_confirmation(self, submitted_at: float, confirmed_at: float) -> None:
        """Record one confirmed transaction and its latency."""
        self._confirmed += 1
        latency = confirmed_at - submitted_at
        if self._reservoir_rng is None:
            self.latencies.append(latency)
            self.confirm_times.append(confirmed_at)
            return
        # Algorithm R: every confirmation has probability k/n of being
        # in the k-slot reservoir. Replacement mutates in place, so the
        # length-based cache staleness check must be bypassed.
        if len(self.latencies) < self.reservoir:
            self.latencies.append(latency)
        else:
            slot = self._reservoir_rng.randrange(self._confirmed)
            if slot < self.reservoir:
                self.latencies[slot] = latency
                self._sorted_latencies_cache = None
        bucket = int(confirmed_at)
        self._confirm_buckets[bucket] = self._confirm_buckets.get(bucket, 0) + 1

    def record_queue_length(self, now: float, length: int) -> None:
        """Sample the client's outstanding-transaction queue."""
        self.queue_samples.append((now, length))

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def _sorted_latencies(self) -> array:
        """Sorted latencies, re-sorted only after new recordings.

        ``latencies`` is a public array a caller may extend in place,
        so staleness is detected by length rather than by intercepting
        every mutation path.
        """
        cache = self._sorted_latencies_cache
        if cache is None or len(cache) != len(self.latencies):
            cache = array("d", _ascending(_sorted_runs(self.latencies)))
            self._sorted_latencies_cache = cache
        return cache

    @property
    def confirmed(self) -> int:
        """Transactions confirmed inside the measurement window.

        An exact counter, decoupled from ``len(latencies)`` so a
        bounded reservoir never distorts throughput.
        """
        return self._confirmed

    def duration(self) -> float:
        """Measured window length (never zero, for safe division)."""
        return max(1e-9, self.end_time - self.start_time)

    def throughput(self) -> float:
        """Successful transactions per second (Section 3.3)."""
        return self.confirmed / self.duration()

    def latency_avg(self) -> float:
        """Mean confirmation latency in seconds.

        In reservoir mode this is the sample mean over the reservoir —
        an unbiased estimator of the true mean.
        """
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def latency_percentile(self, pct: float) -> float:
        """Order-statistic percentile of confirmation latency."""
        return _percentile(self._sorted_latencies(), pct)

    def latency_cdf(self, points: int = 50) -> list[tuple[float, float]]:
        """(latency, cumulative fraction) pairs — Figure 17's curves."""
        if not self.latencies:
            return []
        ordered = self._sorted_latencies()
        n = len(ordered)
        step = max(1, n // points)
        cdf = [
            (ordered[i], (i + 1) / n) for i in range(0, n, step)
        ]
        if cdf[-1][1] < 1.0:
            cdf.append((ordered[-1], 1.0))
        return cdf

    def commits_per_bucket(self, bucket_s: float = 1.0) -> list[tuple[float, int]]:
        """Per-interval commit counts — Figure 9's timeline.

        Reservoir mode keeps exact one-second counts instead of raw
        confirmation times; counts are exact for ``bucket_s = 1.0`` and
        rebinned by second-of-confirmation for other bucket sizes.
        """
        if self._confirm_buckets:
            end = max(self._confirm_buckets)
            n_buckets = int(end / bucket_s) + 1
            counts = [0] * n_buckets
            for second, count in self._confirm_buckets.items():
                counts[int(second / bucket_s)] += count
            return [(i * bucket_s, c) for i, c in enumerate(counts)]
        if not self.confirm_times:
            return []
        end = max(self.confirm_times)
        n_buckets = int(end / bucket_s) + 1
        counts = [0] * n_buckets
        for t in self.confirm_times:
            counts[int(t / bucket_s)] += 1
        return [(i * bucket_s, c) for i, c in enumerate(counts)]

    def final_queue_length(self) -> int:
        """Queue length at the last sample (backlog at window end)."""
        return self.queue_samples[-1][1] if self.queue_samples else 0

    def summary(self) -> StatsSummary:
        """Freeze the headline metrics into a StatsSummary.

        The percentiles are summarised from sorted runs of the samples,
        not from the sorted cache: the report runs while the whole run
        is still held, so it builds no second whole column.
        """
        _, p50, p95, p99, _ = _summarise(_sorted_runs(self.latencies))
        return StatsSummary(
            platform=self.platform,
            workload=self.workload,
            duration_s=self.duration(),
            submitted=self.submitted,
            rejected=self.rejected,
            confirmed=self.confirmed,
            throughput_tx_s=self.throughput(),
            latency_avg_s=self.latency_avg(),
            latency_p50_s=p50,
            latency_p95_s=p95,
            latency_p99_s=p99,
            final_queue_length=self.final_queue_length(),
        )


def merge_collectors(collectors: list[StatsCollector]) -> StatsCollector:
    """Combine per-client collectors into one network-wide view.

    The merge is the inputs' last reader of their samples: each input's
    ``latencies`` and ``confirm_times`` move into the merged collector
    and the input is left with empty arrays, so no column is held
    twice. Counters, window bounds, queue samples and confirmation
    buckets stay on the inputs.
    """
    merged = StatsCollector(
        platform=collectors[0].platform if collectors else "",
        workload=collectors[0].workload if collectors else "",
    )
    for collector in collectors:
        merged.submitted += collector.submitted
        merged.rejected += collector.rejected
        merged._confirmed += collector._confirmed
        for second, count in collector._confirm_buckets.items():
            merged._confirm_buckets[second] = (
                merged._confirm_buckets.get(second, 0) + count
            )
    merged.latencies = _moved([c.latencies for c in collectors])
    merged.confirm_times = _moved([c.confirm_times for c in collectors])
    for collector in collectors:
        collector.latencies = array("d")
        collector.confirm_times = array("d")
        collector._sorted_latencies_cache = None
    # Window bounds once over all collectors (this used to run inside
    # the loop above, making the merge quadratic in client count).
    merged.start_time = min((c.start_time for c in collectors), default=0.0)
    merged.end_time = max((c.end_time for c in collectors), default=0.0)
    # Queue samples: sum per timestamp across clients.
    by_time: dict[float, int] = {}
    for collector in collectors:
        for t, length in collector.queue_samples:
            by_time[t] = by_time.get(t, 0) + length
    merged.queue_samples = sorted(by_time.items())
    return merged


def _moved(columns: list[array]) -> array:
    """``columns`` end to end. A lone non-empty column is returned as it
    is; otherwise the result is allocated once, at its final size, and
    each column's buffer is freed as soon as it is copied in."""
    filled = [column for column in columns if column]
    if len(filled) == 1:
        return filled[0]
    joined = array("d", [0.0]) * sum(map(len, filled))
    at = 0
    for column in filled:
        joined[at:at + len(column)] = column
        at += len(column)
        del column[:]
    return joined
