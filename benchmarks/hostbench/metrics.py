"""End-to-end metric definitions: name, unit, clock, direction, bound.

Two clocks. *Sim* metrics are what the modelled blockchain does; they
repeat exactly for a seed. *Host* metrics are what the simulator costs
to run; they carry sandbox noise. ``compare.py`` applies ``bound`` to
two result files; ``run.py`` prints every metric by name with its unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from layers import LAYERS


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "host" | "sim"
    better: str  # "higher" | "lower"
    #: Allowed worsening before ``compare.py`` calls a regression:
    #: relative to the base value (``rel``) and, where a relative
    #: bound is meaningless near zero, absolute (``abs_``). A change
    #: must exceed *both* that are set to count.
    rel: float | None
    abs_: float | None
    definition: str


END_TO_END = (
    Metric("setup_s", "s", "host", "lower", 0.15, 0.05,
           "child start of `import repro` -> first Cluster.run_until entry"),
    Metric("tx_per_wall_s", "tx/s", "host", "higher", 0.10, None,
           "confirmed tx / run wall"),
    Metric("sim_s_per_wall_s", "ratio", "host", "higher", 0.10, None,
           "(duration_s + drain_s) / run wall"),
    Metric("sim_s_per_loop", "s/loop", "host", "higher", 0.10, None,
           "sim_s_per_wall_s x seconds per calibration loop (child.calibrate), "
           "timed around the repetition: speed in units of the host's own"),
    Metric("peak_rss_mb", "MB", "host", "lower", 0.10, None,
           "child ru_maxrss at exit"),
    Metric("sim_tput_tx_s", "tx/s", "sim", "higher", 0.01, None,
           "summary.throughput_tx_s"),
    Metric("sim_lat_p50_s", "s", "sim", "lower", 0.01, None,
           "summary.latency_p50_s"),
    Metric("sim_lat_p99_s", "s", "sim", "lower", 0.01, None,
           "summary.latency_p99_s (sample count: run.confirmed)"),
    Metric("failed_share", "fraction", "sim", "lower", None, 0.005,
           "1 - confirmed / submitted"),
    Metric("max_commit_gap_s", "s", "sim", "lower", None, 0.1,
           "longest run of empty 0.1 s commit buckets between first and last commit"),
)

BY_NAME = {metric.name: metric for metric in END_TO_END}

#: The subset ``BENCHMARK.json`` lists: host-clock metrics that are
#: never 0 and steady across *seeds* and across the host's moods (the
#: external driver varies the seed, and every sim metric is then a
#: random variable of the model — see README, "What BENCHMARK.json
#: carries").
DRIVER_END_TO_END = ("setup_s", "sim_s_per_loop", "peak_rss_mb")

#: Per-layer count metrics, all exact for a seed: (name, unit, better).
#: Read from public counters on the captured Cluster / result, or
#: counted by the tracer at the boundaries its spans are taken.
_COUNTS = (
    ("sim.events.dispatched", "count", "lower"),
    ("sim.events.per_tx", "1/tx", "lower"),
    ("sim.network.messages", "count", "lower"),
    ("sim.network.bytes", "B", "lower"),
    ("sim.network.msgs_per_tx", "1/tx", "lower"),
    ("sim.network.dropped", "count", "lower"),
    ("sim.node.timers_armed", "count", "lower"),
    ("consensus.msgs_handled", "count", "lower"),
    ("consensus.view_changes", "count", "lower"),
    ("consensus.blocks_decided", "count", "higher"),
    ("chain.blocks", "count", "higher"),
    ("chain.fork_blocks", "count", "lower"),
    ("chain.tx_per_block", "tx", "higher"),
    ("chain.block_hash_calls", "count", "lower"),
    ("chain.block_hash_per_block", "1/block", "lower"),
    ("crypto.hashing.hash_calls", "count", "lower"),
    ("crypto.hashing.per_tx", "1/tx", "lower"),
    ("crypto.trie.node_writes", "count", "lower"),
    ("crypto.trie.node_reads", "count", "lower"),
    ("crypto.bucket_tree.root_calls", "count", "lower"),
    ("crypto.bucket_tree.roots_per_block", "1/block", "lower"),
    ("platforms.exec_cache_hits", "count", "higher"),
    ("platforms.exec_cache_misses", "count", "lower"),
    ("platforms.exec_cache_hit_ratio", "fraction", "higher"),
    ("platforms.sync_blocks", "count", "lower"),
    ("platforms.sync_bytes", "B", "lower"),
    ("platforms.recovery_s", "s", "lower"),
    ("contracts.invocations", "count", "lower"),
    ("core.driver.submissions", "count", "lower"),
    ("core.driver.rejections", "count", "lower"),
    ("core.driver.attempts_per_tx", "1/tx", "lower"),
    ("core.driver.polls", "count", "lower"),
    ("workloads.tx_generated", "count", "lower"),
    ("core.stats.samples_kept", "count", "lower"),
    ("core.trace.stage.admission_s", "s", "lower"),
    ("core.trace.stage.mempool_wait_s", "s", "lower"),
    ("core.trace.stage.consensus_s", "s", "lower"),
    ("core.trace.stage.execution_s", "s", "lower"),
    ("core.trace.stage.state_commit_s", "s", "lower"),
    ("core.trace.stage.notification_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.missing_entry_points", "count", "lower"),
)

#: Added by the parent from the untraced repetitions of the same run.
_RUN = (
    ("trace.overhead_ratio", "ratio", "lower"),
    ("run.wall_s", "s", "lower"),
    ("run.wall_spread", "fraction", "lower"),
    ("run.import_s", "s", "lower"),
    ("run.confirmed", "tx", "higher"),
    ("run.generator_lag_s", "s", "lower"),
)

#: Every per-layer metric of a traced run: name -> (unit, better). Per
#: layer, host self time, its share of the traced run and the calls
#: crossing into the layer; then the counts; then the run's own numbers.
PER_LAYER: dict[str, tuple[str, str]] = {
    f"{layer}.{key}": (unit, "lower")
    for layer in LAYERS
    for key, unit in (("self_s", "s"), ("share", "fraction"), ("calls", "count"))
} | {name: (unit, better) for name, unit, better in _COUNTS + _RUN}

#: sim_tput_tx_s / paper Figure 5a peak; null on workloads the paper
#: has no point for, so it stays out of PER_LAYER (and BENCHMARK.json).
PAPER_RATIO = "model.paper_tput_ratio"

COMMIT_BUCKET_S = 0.1


def max_commit_gap_s(commit_counts: list[int]) -> float:
    """Longest run of empty buckets strictly inside the commit series."""
    filled = [i for i, count in enumerate(commit_counts) if count]
    if not filled:
        return 0.0
    longest = run = 0
    for count in commit_counts[filled[0]:filled[-1] + 1]:
        run = run + 1 if count == 0 else 0
        longest = max(longest, run)
    return round(longest * COMMIT_BUCKET_S, 6)


def beyond_bound(metric: Metric, base: float, worse_by: float) -> bool:
    """Whether worsening ``base`` by ``worse_by`` exceeds the metric's bound."""
    if metric.rel is not None and worse_by <= metric.rel * abs(base):
        return False
    if metric.abs_ is not None and worse_by <= metric.abs_:
        return False
    return worse_by > 0


def regressed(metric: Metric, base: float, new: float) -> bool:
    worse_by = base - new if metric.better == "higher" else new - base
    return beyond_bound(metric, base, worse_by)
