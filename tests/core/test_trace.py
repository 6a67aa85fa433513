"""Lifecycle tracing: StageTracer mechanics and end-to-end invariants.

The unit half pins the recorder's contract (first occurrence wins,
monotone clamping, O(1) backlog gauges, breakdown aggregation); the
integration half runs every platform through closed-loop (coroutine and
batch) and open-loop drivers and asserts the structural invariants the
bottleneck table depends on: stamps are monotone in lifecycle order,
interval averages telescope to the end-to-end average, and that average
matches the StatsCollector's latency figure exactly.
"""

import math
import random
import tracemalloc
from array import array
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ExperimentSpec, StageBreakdown, StageTracer, run_experiment
from repro.core import trace
from repro.core.driver import Driver, DriverConfig, OpenLoopDriver
from repro.core.stats import StatsCollector
from repro.core.trace import (
    NOTIFY,
    QUEUE_GAUGES,
    STAGE_INTERVALS,
    STAGES,
    SUBMIT,
    StageStat,
)
from repro.platforms import build_cluster
from repro.workloads import make_workload

PLATFORMS = ("ethereum", "parity", "hyperledger", "erisdb")


def _rows(tracer):
    """Every row's 7 stage stamps (None where unrecorded), in the
    tracer's dict order, whether the row is still an in-flight list or
    already packed: the n-th row created is the dict's n-th key, and a
    packed row's offset is the n-th entry of the creation-order array."""
    rows = {}
    for index, (tx_id, row) in enumerate(tracer._stamps.items()):
        offset = tracer._offsets[index]
        if row is trace._DONE:
            rows[tx_id] = list(tracer._packed[offset:offset + len(STAGES)])
        else:
            assert offset == -1 and row[trace._SEQ] == index
            rows[tx_id] = row[: len(STAGES)]
    return rows


def _row(tracer, tx_id):
    """``tx_id``'s row, decoded by :func:`_rows`."""
    return _rows(tracer)[tx_id]


def _sample_series(tracer, series):
    """Feed ``(mempool, consensus, execution)`` depths through the
    tracer's sampler, as if its live gauges read each in turn; the live
    gauges are restored afterwards."""
    live = list(tracer._depths)
    for depths in series:
        tracer._depths[:] = depths
        tracer.sample()
    tracer._depths[:] = live


# ---------------------------------------------------------------------------
# StageTracer unit behavior
# ---------------------------------------------------------------------------
def test_first_occurrence_wins():
    tracer = StageTracer()
    tracer.record_admit("tx", 1.0)
    tracer.record_admit("tx", 5.0)  # gossip copy arriving later
    assert _row(tracer, "tx")[STAGES.index("admit")] == 1.0


def test_stamps_are_clamped_monotone():
    tracer = StageTracer()
    tracer.record_decide(["tx"], 4.0)
    # A raced notification carrying an earlier raw clock is clamped up.
    tracer.record_notify("tx", 3.0)
    assert _row(tracer, "tx")[STAGES.index("notify")] == 4.0


def test_queue_gauges_track_pipeline_transitions():
    tracer = StageTracer()
    assert tracer.queue_depths() == (0, 0, 0)
    tracer.record_admit("a", 1.0)
    tracer.record_admit("b", 1.0)
    assert tracer.queue_depths() == (2, 0, 0)
    tracer.record_propose(["a"], 2.0)
    assert tracer.queue_depths() == (1, 1, 0)
    tracer.record_decide(["a"], 3.0)
    assert tracer.queue_depths() == (1, 0, 1)
    tracer.record_notify("a", 4.0)
    assert tracer.queue_depths() == (1, 0, 0)


def test_sample_folds_the_live_gauges_into_avg_and_peak():
    tracer = StageTracer()
    tracer.record_admit("a", 1.0)
    tracer.record_admit("b", 1.0)
    tracer.sample()  # (2, 0, 0)
    tracer.record_propose(["a"], 2.0)
    tracer.sample()  # (1, 1, 0)
    tracer.record_decide(["a"], 3.0)
    tracer.sample()  # (1, 0, 1)
    breakdown = tracer.breakdown()
    assert breakdown.queue_depth_avg == {
        "mempool": 4 / 3, "consensus": 1 / 3, "execution": 1 / 3,
    }
    assert breakdown.queue_depth_peak == {
        "mempool": 2, "consensus": 1, "execution": 1,
    }
    assert tracer.queue_depths() == (1, 0, 1)  # sampling moves no gauge


def test_skipped_stages_never_drive_gauges_negative():
    tracer = StageTracer()
    # decide without admit/propose (e.g. a replayed block's tx).
    tracer.record_decide(["ghost"], 1.0)
    tracer.record_notify("ghost", 2.0)
    assert tracer.queue_depths() == (0, 0, 0)


def test_breakdown_aggregates_and_counts_partials():
    tracer = StageTracer()
    for tx, base in (("a", 0.0), ("b", 10.0)):
        tracer.record_submit(tx, base)
        tracer.record_admit(tx, base + 1.0)
        tracer.record_propose([tx], base + 2.0)
        tracer.record_decide([tx], base + 3.0)
        tracer.record_execute([tx], base + 4.0)
        tracer.record_commit([tx], base + 4.0)
        tracer.record_notify(tx, base + 5.0)
    tracer.record_submit("unfinished", 20.0)
    _sample_series(tracer, [(3, 1, 2), (5, 0, 4)])
    breakdown = tracer.breakdown()
    assert breakdown.traced == 2
    assert breakdown.partial == 1
    assert breakdown.end_to_end_avg_s == pytest.approx(5.0)
    avgs = breakdown.stage_avgs()
    assert avgs["admission"] == pytest.approx(1.0)
    assert avgs["state_commit"] == 0.0
    assert breakdown.dominant_stage() in ("admission", "mempool_wait",
                                          "consensus", "notification")
    assert breakdown.queue_depth_avg["mempool"] == pytest.approx(4.0)
    assert breakdown.queue_depth_peak["execution"] == 4


def test_breakdown_dict_round_trip():
    tracer = StageTracer()
    tracer.record_submit("a", 0.0)
    for helper in (tracer.record_admit, tracer.record_notify):
        helper("a", 1.0)
    import dataclasses

    _sample_series(tracer, [(1, 2, 3)])
    breakdown = tracer.breakdown()
    rebuilt = StageBreakdown.from_dict(dataclasses.asdict(breakdown))
    assert rebuilt == breakdown


def test_empty_tracer_breakdown_has_no_dominant_stage():
    breakdown = StageTracer().breakdown()
    assert breakdown.traced == 0
    assert breakdown.dominant_stage() is None
    assert breakdown.end_to_end_avg_s == 0.0


# ---------------------------------------------------------------------------
# record_block stamps a (stage, block) pair once per cluster. The oracle
# is the plain per-transaction loop every replica used to run.
# ---------------------------------------------------------------------------
class PerTxLoopTracer(StageTracer):
    __slots__ = ()

    def record_block(self, tx_ids, stage, now):
        for tx_id in tx_ids:
            self.record(tx_id, stage, now)


_TXS = [f"tx{i}" for i in range(6)]
#: Blocks as their tx-id tuples: overlapping ones are fork blocks that
#: share transactions; equal ones are the same body proposed twice.
_blocks = st.lists(
    st.lists(st.sampled_from(_TXS), unique=True, max_size=4).map(tuple),
    min_size=1, max_size=5,
)
_times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
_block_stage_names = st.sampled_from(["propose", "decide", "execute", "commit"])
_tx_stage_names = st.sampled_from(["submit", "admit", "notify"])


@settings(max_examples=200, deadline=None)
@given(
    blocks=_blocks,
    ops=st.lists(
        st.one_of(
            # A replica reaching a block's stage at its own local time.
            st.tuples(st.just("block"), st.integers(0, 4), _block_stage_names, _times),
            st.tuples(st.just("tx"), st.sampled_from(_TXS), _tx_stage_names, _times),
        ),
        max_size=60,
    ),
)
def test_property_record_block_once_equals_the_per_tx_loop(blocks, ops):
    memoized, plain = StageTracer(), PerTxLoopTracer()
    for kind, target, stage, now in ops:
        for tracer in (memoized, plain):
            if kind == "block":
                tx_ids = blocks[target % len(blocks)]
                getattr(tracer, f"record_{stage}")(tx_ids, now)
            else:
                getattr(tracer, f"record_{stage}")(target, now)
        assert _rows(memoized) == _rows(plain)
        assert memoized.queue_depths() == plain.queue_depths()
    assert memoized.breakdown() == plain.breakdown()


# ---------------------------------------------------------------------------
# breakdown builds one interval's values at a time. The oracle is the
# earlier six-lists-at-once aggregation, kept verbatim.
# ---------------------------------------------------------------------------
def _reference_percentile(ordered, pct):
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(pct / 100 * len(ordered)) - 1))
    return ordered[rank]


def _reference_breakdown(tracer, stage_queue_samples=None):
    intervals = [[] for _ in STAGE_INTERVALS]
    e2e_total = 0.0
    traced = 0
    partial = 0
    for slots in _rows(tracer).values():
        if None in slots:
            partial += 1
            continue
        traced += 1
        e2e_total += slots[NOTIFY] - slots[SUBMIT]
        for idx, (_, start, end) in enumerate(STAGE_INTERVALS):
            intervals[idx].append(slots[end] - slots[start])
    stages = []
    for idx, (name, _, _) in enumerate(STAGE_INTERVALS):
        values = sorted(intervals[idx])
        count = len(values)
        stages.append(
            StageStat(
                stage=name,
                count=count,
                avg_s=(sum(values) / count) if count else 0.0,
                p50_s=_reference_percentile(values, 50),
                p95_s=_reference_percentile(values, 95),
                p99_s=_reference_percentile(values, 99),
                max_s=values[-1] if count else 0.0,
            )
        )
    depth_avg = {}
    depth_peak = {}
    samples = stage_queue_samples or []
    for col, gauge in enumerate(QUEUE_GAUGES, start=1):
        series = [sample[col] for sample in samples]
        depth_avg[gauge] = (sum(series) / len(series)) if series else 0.0
        depth_peak[gauge] = max(series) if series else 0
    return StageBreakdown(
        traced=traced,
        partial=partial,
        end_to_end_avg_s=(e2e_total / traced) if traced else 0.0,
        stages=stages,
        queue_depth_avg=depth_avg,
        queue_depth_peak=depth_peak,
    )


#: A few shared instants make tied interval values common.
_stamp_times = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), _times)
#: One tx: a time or None (never recorded) per stage, recorded in any
#: order, so out-of-order stamps get clamped. Half the rows get every
#: stage and are packed; the rest mostly stay partial lists.
_tx_rows = st.tuples(
    st.one_of(
        st.lists(_stamp_times, min_size=len(STAGES), max_size=len(STAGES)),
        st.lists(st.one_of(st.none(), _stamp_times, _stamp_times),
                 min_size=len(STAGES), max_size=len(STAGES)),
    ),
    st.permutations(range(len(STAGES))),
)
#: A run's gauges never go negative; negative depths here pin that the
#: sampled peak starts from the first sample, as ``max`` over the series
#: does, not from 0.
_depth = st.integers(-1000, 1000)
_queue_samples = st.lists(st.tuples(_times, _depth, _depth, _depth), max_size=8)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_tx_rows, max_size=12), samples=st.one_of(st.none(), _queue_samples))
def test_property_breakdown_equals_the_six_list_reference(rows, samples):
    tracer = StageTracer()
    for i, (times, order) in enumerate(rows):
        for stage in order:
            if times[stage] is not None:
                tracer.record(f"tx{i}", stage, times[stage])
    _sample_series(tracer, [sample[1:] for sample in samples or []])
    # == on the dataclasses compares every float bit for bit, the
    # sampled queue_depth_avg / queue_depth_peak included.
    reference = _reference_breakdown(tracer, samples)
    assert tracer.breakdown() == reference
    with patch.multiple(trace, _RUN=3, _STEP=2):  # several runs, many cuts
        assert tracer.breakdown() == reference


# ---------------------------------------------------------------------------
# A column is summarised from ascending runs merged piece by piece. The
# oracle is the sorted list, every float bit for bit.
# ---------------------------------------------------------------------------
#: Column sizes at and around the sample-step and run boundaries.
_BOUNDARY_SIZES = sorted({
    max(0, size + delta)
    for size in (0, trace._STEP, 2 * trace._STEP, trace._RUN, 2 * trace._RUN)
    for delta in (-1, 0, 1)
})


def _column(size, seed, kind):
    """``size`` non-negative floats: all equal (as the ``state_commit``
    interval is), drawn from a handful of values (heavy ties), or
    rounded draws (some ties)."""
    rng = random.Random(seed)
    if kind == "equal":
        return [rng.choice([0.0, 0.25])] * size
    if kind == "ties":
        pool = [rng.expovariate(1.0) for _ in range(rng.randint(1, 5))]
        return [rng.choice(pool) for _ in range(size)]
    digits = rng.choice([1, 3, 17])
    return [round(rng.expovariate(1.0), digits) for _ in range(size)]


def _hex(values):
    return [float(value).hex() for value in values]


@settings(max_examples=60, deadline=None)
@given(
    size=st.one_of(st.sampled_from(_BOUNDARY_SIZES), st.integers(0, 3 * trace._RUN)),
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["equal", "ties", "spread"]),
    points=st.integers(1, 60),
)
def test_property_column_summary_equals_the_sorted_list(size, seed, kind, points):
    column = _column(size, seed, kind)
    ordered = sorted(column)
    runs = trace._sorted_runs(array("d", column))
    assert list(trace._ascending(runs)) == ordered
    assert _hex(trace._summarise(runs)) == _hex([
        sum(ordered),
        *(trace._percentile(ordered, pct) for pct in (50, 95, 99)),
        max(column, default=0.0),
    ])

    collector = StatsCollector()
    for latency in column:
        collector.record_confirmation(0.0, latency)
    summary = collector.summary()
    assert _hex([summary.latency_p50_s, summary.latency_p95_s, summary.latency_p99_s]) == (
        _hex(_reference_percentile(ordered, pct) for pct in (50, 95, 99))
    )
    for pct in (1, 50, 95, 99, 100):
        assert collector.latency_percentile(pct) == _reference_percentile(ordered, pct)
    cdf = []
    if ordered:
        step = max(1, size // points)
        cdf = [(ordered[i], (i + 1) / size) for i in range(0, size, step)]
        if cdf[-1][1] < 1.0:
            cdf.append((ordered[-1], 1.0))
    assert collector.latency_cdf(points) == cdf


def _tx_ids(rows):
    return tuple(f"tx{i}" for i in range(rows))


def _complete_rows(tracer, tx_ids):
    """Record a full lifecycle for each of ``tx_ids`` through the hook
    helpers; the block stages stamp every row at once, as one block
    would."""
    rows = len(tx_ids)
    for i, tx_id in enumerate(tx_ids):
        tracer.record_submit(tx_id, i * 0.001)
        tracer.record_admit(tx_id, i * 0.001 + 0.1)
    tracer.record_propose(tx_ids, rows * 0.001 + 0.2)
    tracer.record_decide(tx_ids, rows * 0.001 + 0.3)
    tracer.record_execute(tx_ids, rows * 0.001 + 0.4)
    tracer.record_commit(tx_ids, rows * 0.001 + 0.4)
    for i, tx_id in enumerate(tx_ids):
        tracer.record_notify(tx_id, rows * 0.001 + 0.5 + i * 0.001)


def test_breakdown_boxes_no_whole_interval():
    """Six interval lists at once cost ~216 B per complete row and one
    at a time ~43 B (a float plus a list slot, and the row's offset);
    ascending runs of packed doubles merged piece by piece, ~15 B."""
    rows = 20_000
    tracer = StageTracer()
    _complete_rows(tracer, _tx_ids(rows))
    tracemalloc.start()
    try:
        breakdown = tracer.breakdown()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert breakdown.traced == rows
    assert peak / rows < 20, f"{peak / rows:.0f} B per row"
    # Several runs per interval, every float as the reference gives it.
    assert breakdown == _reference_breakdown(tracer)


def test_complete_rows_are_packed_small():
    """A finished row keeps its 7 stamps in the shared array, its offset
    in the creation-order array and a shared sentinel in the dict: ~86 B
    retained, where a boxed offset in the dict retained ~106 B and a
    list row of boxed floats ~213 B."""
    rows = 20_000
    tx_ids = _tx_ids(rows)  # the ids outlive the tracer
    tracemalloc.start()
    try:
        tracer = StageTracer()
        _complete_rows(tracer, tx_ids)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tracer.breakdown().traced == rows
    assert all(tracer._stamps[tx_id] is trace._DONE for tx_id in tx_ids)
    assert retained / rows < 95, f"{retained / rows:.0f} B per row"


@pytest.mark.parametrize("last", STAGES)
def test_a_row_packs_whichever_stage_lands_seventh(last):
    tracer = StageTracer()
    stage = {name: index for index, name in enumerate(STAGES)}
    for name in STAGES:
        if name != last:
            tracer.record("tx", stage[name], 1.0 + stage[name])
    assert type(tracer._stamps["tx"]) is list
    tracer.record("tx", stage[last], 1.0 + stage[last])
    assert tracer._stamps["tx"] is trace._DONE
    expected = [1.0 + i for i in range(len(STAGES))]
    if last != "submit":
        # Stamped last, any stage but submit is clamped up to the
        # running max of the others.
        top = max(t for i, t in enumerate(expected) if i not in (0, stage[last]))
        expected[stage[last]] = max(expected[stage[last]], top)
    assert _row(tracer, "tx") == expected
    assert tracer.breakdown().traced == 1


def test_packing_keeps_creation_order():
    """``breakdown`` sums the end-to-end total in row creation order, so
    a row finishing before an older one must not move in the dict, and
    its offset goes to its creation slot."""
    tracer = StageTracer()
    for tx in ("old", "new"):
        tracer.record_submit(tx, 0.0)
    for tx in ("new", "old"):
        for stage in range(1, len(STAGES)):
            tracer.record(tx, stage, float(stage))
    assert [tracer._stamps[tx] for tx in ("old", "new")] == [trace._DONE] * 2
    assert list(tracer._stamps) == ["old", "new"]
    assert list(tracer._offsets) == [len(STAGES), 0]  # "new" packed first


def test_a_packed_row_ignores_late_stamps():
    """A late gossip admit and a fork block's propose are first-wins
    no-ops on packed rows: stamps, gauges and counts stay put."""
    tracer = StageTracer()
    _complete_rows(tracer, _tx_ids(2))
    tracer.record_submit("open", 0.0)
    tracer.record_admit("open", 0.5)
    rows, depths = _rows(tracer), tracer.queue_depths()
    before = tracer.breakdown()
    assert [tracer._stamps[tx] is trace._DONE for tx in ("tx0", "tx1", "open")] == [
        True, True, False,
    ]
    tracer.record_admit("tx0", 9.0)  # a gossip copy arriving late
    tracer.record_propose(("tx1", "tx0"), 9.0)  # a fork block, same txs
    tracer.record_submit("tx1", 9.0)
    tracer.record_notify("tx0", 9.0)
    assert _rows(tracer) == rows
    assert tracer.queue_depths() == depths == (1, 0, 0)
    after = tracer.breakdown()
    assert (after.traced, after.partial) == (before.traced, before.partial) == (2, 1)
    assert after == before


def test_record_block_takes_any_iterable_and_walks_fork_blocks():
    tracer = StageTracer()
    decide = STAGES.index("decide")
    tracer.record_decide(["a", "b"], 1.0)  # a list: copied, never aliased
    tracer.record_decide(("a", "b"), 2.0)  # equal ids: already stamped
    tracer.record_decide(iter(["b", "c"]), 3.0)  # a fork block sharing b
    assert [_row(tracer, tx)[decide] for tx in "abc"] == [1.0, 1.0, 3.0]
    assert tracer.queue_depths() == (0, 0, 3)
    body = ["d"]
    tracer.record_decide(body, 4.0)
    body.append("e")  # the caller's list grew: not the pair stamped before
    tracer.record_decide(body, 5.0)
    assert [_row(tracer, tx)[decide] for tx in "de"] == [4.0, 5.0]


def test_the_block_stage_memo_keeps_one_pair_per_stage():
    """The memo is a CPU shortcut, not a record: after 1,000 blocks, each
    reaching four stages on seven replicas, it holds each stage's last
    ids (it held all 4,000 pairs), and every row is stamped as once."""
    tracer = StageTracer()
    blocks = [tuple(f"b{height}t{i}" for i in range(3)) for height in range(1000)]
    for height, tx_ids in enumerate(blocks):
        for tx_id in tx_ids:
            tracer.record_submit(tx_id, float(height))
            tracer.record_admit(tx_id, float(height))
        for hook in ("propose", "decide", "execute", "commit"):
            for replica in range(7):
                getattr(tracer, f"record_{hook}")(list(tx_ids), height + replica / 10)
        for tx_id in tx_ids:
            tracer.record_notify(tx_id, height + 1.0)
    stamped = [None if name in ("submit", "admit", "notify") else blocks[-1]
               for name in STAGES]
    assert tracer._block_stages == stamped
    assert tracer.breakdown().traced == 3000
    assert all(
        _row(tracer, tx_id)[2:6] == [float(height)] * 4
        for height, tx_id in ((999, "b999t0"), (0, "b0t2"))
    )


# ---------------------------------------------------------------------------
# End-to-end invariants across platforms and driver shapes
# ---------------------------------------------------------------------------
def _drive(platform: str, open_loop: bool = False):
    """Run a short experiment keeping the cluster (and tracer) alive."""
    cluster = build_cluster(platform, 2, seed=3)
    workload = make_workload("ycsb")
    config = DriverConfig(
        n_clients=2,
        request_rate_tx_s=20.0,
        duration_s=5.0,
        arrival=None,
    )
    if open_loop:
        from repro.core.workload import ArrivalSpec

        config.arrival = ArrivalSpec(process="poisson", rate_tx_s=40.0,
                                     accounts=100, zipf_s=0.0)
        driver = OpenLoopDriver(cluster, workload, config)
    else:
        driver = Driver(cluster, workload, config)
    driver.prepare()
    stats = driver.run(extra_drain_s=5.0)
    tracer = cluster.tracer
    # The driver samples the gauges once per queue-sampling tick, not
    # once per client.
    assert tracer._samples == len(stats.queue_samples) > 0
    breakdown = tracer.breakdown()
    stamps = _rows(tracer)
    summary = stats.summary()
    cluster.close()
    return stamps, breakdown, summary


def _assert_monotone(stamps: dict) -> int:
    """Every tx's recorded stamps are non-decreasing in lifecycle order.

    Returns how many transactions carried a complete 7-point lifecycle.
    """
    complete = 0
    for tx_id, slots in stamps.items():
        recorded = [(STAGES[i], s) for i, s in enumerate(slots) if s is not None]
        assert recorded, f"{tx_id} has an empty stamp row"
        for (prev_name, prev), (name, cur) in zip(recorded, recorded[1:]):
            assert cur >= prev, (
                f"{tx_id}: {name}@{cur} precedes {prev_name}@{prev}"
            )
        if len(recorded) == len(STAGES):
            complete += 1
    return complete


@pytest.mark.parametrize("platform", PLATFORMS)
def test_closed_loop_stamps_are_monotone(platform):
    stamps, breakdown, summary = _drive(platform)
    complete = _assert_monotone(stamps)
    assert complete == breakdown.traced
    if platform == "ethereum":
        # 5 simulated seconds is shorter than PoW's confirmation depth;
        # the pipeline stamps up to decide are still exercised.
        assert stamps
        return
    assert breakdown.traced > 0


@pytest.mark.parametrize("platform", PLATFORMS)
def test_open_loop_stamps_are_monotone(platform):
    stamps, breakdown, summary = _drive(platform, open_loop=True)
    complete = _assert_monotone(stamps)
    assert complete == breakdown.traced
    if platform != "ethereum":
        assert breakdown.traced > 0


@pytest.mark.parametrize("platform", ("hyperledger", "parity", "erisdb"))
def test_stage_averages_telescope_to_end_to_end(platform):
    _, breakdown, summary = _drive(platform)
    assert breakdown.traced > 0
    total = sum(stat.avg_s for stat in breakdown.stages)
    assert math.isclose(total, breakdown.end_to_end_avg_s, rel_tol=1e-9)
    # submit is backdated to the submission instant, so the traced
    # end-to-end average tracks the StatsCollector's latency average;
    # monotone clamping can push notify past the raw confirmation time
    # when a reply races a block's charged execution window, so the two
    # agree closely but not bit-for-bit on every platform.
    assert math.isclose(
        breakdown.end_to_end_avg_s, summary.latency_avg_s, rel_tol=0.02
    )
    assert all(stat.count == breakdown.traced for stat in breakdown.stages)
    assert [stat.stage for stat in breakdown.stages] == [
        name for name, _, _ in STAGE_INTERVALS
    ]


@pytest.mark.parametrize("platform", PLATFORMS)
def test_one_admit_stamp_per_pooled_transaction(platform, monkeypatch):
    """The entry node stamps admission where it pools a transaction —
    direct ingress and Parity's signing queue alike, both through
    ``_admit`` — so every ``_admit`` that pools is followed by one
    ``record_admit`` and no other call reaches it: a peer pooling a
    gossiped copy stamps nothing."""
    from repro.chain import Mempool
    from repro.platforms.base import PlatformNode

    assert not hasattr(Mempool(), "tracer")
    counts = {"pooled": 0, "admitted": 0, "stamped": 0}
    add, admit = Mempool.add, PlatformNode._admit
    record_admit = StageTracer.record_admit

    def counting_add(self, tx, now=0.0):
        pooled = add(self, tx, now)
        counts["pooled"] += pooled
        return pooled

    def counting_admit(self, tx):
        admitted = admit(self, tx)
        counts["admitted"] += admitted
        return admitted

    def counting_record_admit(self, tx_id, now):
        counts["stamped"] += 1
        record_admit(self, tx_id, now)

    monkeypatch.setattr(Mempool, "add", counting_add)
    monkeypatch.setattr(PlatformNode, "_admit", counting_admit)
    monkeypatch.setattr(StageTracer, "record_admit", counting_record_admit)
    _drive(platform)
    assert counts["stamped"] == counts["admitted"] > 0
    assert counts["pooled"] > counts["admitted"]  # gossiped copies


@pytest.mark.parametrize("platform", PLATFORMS)
def test_admit_stamp_is_the_entry_nodes_admission(platform, monkeypatch):
    """Every transaction's admit stamp is the instant its entry node
    pooled it, however many peers pool a gossiped copy later."""
    from repro.platforms.base import PlatformNode

    admitted: dict[str, float] = {}
    admit = PlatformNode._admit

    def recording_admit(self, tx):
        pooled = admit(self, tx)
        if pooled:
            admitted.setdefault(tx.tx_id, self.now)
        return pooled

    monkeypatch.setattr(PlatformNode, "_admit", recording_admit)
    stamps, _, _ = _drive(platform)
    admit_slot = STAGES.index("admit")
    assert admitted
    assert {
        tx_id: row[admit_slot]
        for tx_id, row in stamps.items()
        if row[admit_slot] is not None
    } == admitted


def test_subscribe_path_stamps_notify():
    """ErisDB's pub/sub confirmation feed reaches the notify hook."""
    result = run_experiment(
        ExperimentSpec(
            platform="erisdb", workload="ycsb", n_servers=2, n_clients=2,
            request_rate_tx_s=20.0, duration_s=5.0, seed=3, subscribe=True,
        )
    )
    breakdown = result.summary.stage_breakdown
    assert breakdown is not None and breakdown.traced > 0
    assert breakdown.stage_avgs()["notification"] >= 0.0


def test_run_experiment_attaches_breakdown_only_when_tracing():
    spec = ExperimentSpec(
        platform="hyperledger", workload="ycsb", n_servers=2, n_clients=2,
        request_rate_tx_s=20.0, duration_s=5.0, seed=3,
    )
    breakdown = run_experiment(spec).summary.stage_breakdown
    assert breakdown is not None and breakdown.traced > 0
    assert set(breakdown.queue_depth_peak) == set(QUEUE_GAUGES)
