"""Transaction lifecycle tracing: per-stage bottleneck attribution.

BLOCKBENCH's macro benchmarks report *that* throughput moved, never
*where* — yet the paper's layered design exists precisely to isolate
consensus vs. execution vs. data-model costs (Section 3.1). This module
closes that gap with an app-agnostic stage model in the spirit of
BlockMeter and "What Blocks My Blockchain's Throughput?" (PAPERS.md):
every transaction carries per-stage timestamps recorded at a handful of
protocol-neutral hook points, so no platform or protocol ships its own
tracing code (mirroring the PR 7 adversary-hooks pattern).

A transaction's stamp row is a small list while it is in flight; once
its seventh stamp lands it is packed into one flat ``array('d')``
shared by every finished row, since nothing but the end-of-run
breakdown reads it again, and its offset there into an ``array('q')``
kept in row creation order.

Stage points (one timestamp each, first occurrence wins cluster-wide)::

    submit   client handed the tx to the backend (backdated to the
             submission instant, so submit -> notify equals the
             latency the StatsCollector reports)
    admit    the entry node's mempool accepted the tx (a gossiped copy
             stamps nothing)
    propose  the tx was batched into a candidate block (assemble_block)
    decide   the block holding the tx reached the platform's commit
             point (PBFT/Tendermint: consensus commit; PoW/PoA: the
             confirmation depth the paper measures latency against)
    execute  transaction execution finished — stamped at
             ``decide + charged execution CPU``, the simulated instant
             the node's CPU is done with the block's transactions
    commit   the post-block state root was committed
    notify   the client learned the tx was confirmed (poll reply,
             subscription event, or batch summary)

Derived intervals (what the bottleneck table shows)::

    admission     submit -> admit      ingress + signing
    mempool_wait  admit -> propose     queueing before a proposer
    consensus     propose -> decide    ordering (incl. PoW confirmations)
    execution     decide -> execute    charged transaction execution CPU
    state_commit  execute -> commit    state-root commit (not separately
                                       charged by the cost model, so ~0)
    notification  commit -> notify     result propagation back to client

Recording is append-only bookkeeping: the tracer never charges CPU and
never schedules events, so the simulated timeline is the one a build
without it ran — which is why every cluster has one and nothing turns
it off (pinned against pre-tracing digests by
``tests/core/test_trace_differential.py``). Stamps are clamped to be
monotone per transaction (a stage never precedes an earlier stage);
the only path where the raw clock would run backwards is a pub/sub
event raced against the block's charged execution window, an artifact
of charging CPU after the publish rather than before.

The tracer also maintains O(1) per-stage backlog gauges. The driver's
queue-sampling tick calls :meth:`StageTracer.sample` (no new events),
which folds them into running integer sums, a sample count and peaks:

    mempool    admitted, not yet proposed
    consensus  proposed, not yet decided
    execution  decided, not yet notified (execution + result
               propagation; block execution is atomic within one
               simulated event, so a decided-not-committed gauge would
               read zero at every sampling instant)
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import sub

__all__ = [
    "STAGES",
    "STAGE_INTERVALS",
    "QUEUE_GAUGES",
    "StageStat",
    "StageBreakdown",
    "StageTracer",
]

#: Stage-point names, in lifecycle order. Index into a tx's stamp slots.
STAGES = ("submit", "admit", "propose", "decide", "execute", "commit", "notify")

SUBMIT, ADMIT, PROPOSE, DECIDE, EXECUTE, COMMIT, NOTIFY = range(len(STAGES))

#: Derived interval names with their (start, end) stage-point indices.
STAGE_INTERVALS = (
    ("admission", SUBMIT, ADMIT),
    ("mempool_wait", ADMIT, PROPOSE),
    ("consensus", PROPOSE, DECIDE),
    ("execution", DECIDE, EXECUTE),
    ("state_commit", EXECUTE, COMMIT),
    ("notification", COMMIT, NOTIFY),
)

#: Backlog gauge names, in pipeline order.
QUEUE_GAUGES = ("mempool", "consensus", "execution")

_N_STAGES = len(STAGES)

#: Extra slot per in-flight stamp row holding the running max of the
#: clamped stages — makes the monotone clamp O(1) instead of a scan.
#: SUBMIT is excluded: it is backdated to the submission instant after
#: the admit reply, so clamping it would zero out the admission interval.
_TOP = _N_STAGES
#: Extra slot per in-flight stamp row counting the stages not yet
#: stamped; the stamp that brings it to 0 packs the row.
_LEFT = _N_STAGES + 1
#: Extra slot per in-flight stamp row holding its creation index (its
#: place in ``StageTracer._offsets``).
_SEQ = _N_STAGES + 2

#: A finished row's ``_stamps`` value, shared by every finished row.
_DONE = object()


#: Values sorted, and so boxed, at once when a column is cut into
#: ascending runs.
_RUN = 4096
#: Every ``_STEP``-th value of a run is sampled; the merge of the runs
#: is cut into pieces at every k-th of those samples (k runs), so a
#: piece between two cuts holds at most ``(2k - 1) * _STEP`` values.
_STEP = 64
#: The percentiles :func:`_summarise` reports.
_PCTS = (50, 95, 99)


def _rank(count: int, pct: float) -> int:
    """Index of the ``pct`` order statistic among ``count`` ascending
    values (the one rank rule: StatsCollector's latency percentiles use
    it too)."""
    return min(count - 1, max(0, math.ceil(pct / 100 * count) - 1))


def _percentile(ordered: Sequence[float], pct: float) -> float:
    """Order-statistic percentile of an ascending sequence."""
    if not ordered:
        return 0.0
    return ordered[_rank(len(ordered), pct)]


def _sorted_runs(column: Sequence[float]) -> list[array]:
    """``column`` cut into ascending runs of ``_RUN`` values; one run is
    boxed at a time."""
    return [
        array("d", sorted(column[lo:lo + _RUN]))
        for lo in range(0, len(column), _RUN)
    ]


def _pieces(runs: list[array]) -> Iterator[list[float] | tuple[float, int]]:
    """The merge of ascending ``runs``, in ascending order, as pieces: a
    sorted list of the values between two cuts, then a ``(value,
    count)`` pair for a cut and its ties. The cuts are sampled run
    values, located in every run with ``bisect``.

    Concatenated, the pieces are the values ``sorted()`` of the whole
    column gives, so a ``sum()`` over them adds the same floats in the
    same order (on Python 3.12, where ``sum`` of floats is compensated,
    too). Only the samples and one piece are boxed at a time.
    """
    samples = sorted(chain.from_iterable(run[_STEP - 1::_STEP] for run in runs))
    every = len(runs) or 1
    starts = [0] * len(runs)
    for value in dict.fromkeys(samples[every - 1::every]):
        gap: list[float] = []
        ties = 0
        for index, run in enumerate(runs):
            start = starts[index]
            lo = bisect_left(run, value, start)
            hi = bisect_right(run, value, lo)
            gap += run[start:lo]
            ties += hi - lo
            starts[index] = hi
        if gap:
            gap.sort()
            yield gap
        yield value, ties
    tail: list[float] = []
    for run, start in zip(runs, starts):
        tail += run[start:]
    if tail:
        tail.sort()
        yield tail


def _ascending(runs: list[array]) -> Iterator[float]:
    """Every value of ascending ``runs``, in ascending order."""
    return chain.from_iterable(
        piece if type(piece) is list else repeat(*piece) for piece in _pieces(runs)
    )


def _summarise(runs: list[array]) -> tuple[float, float, float, float, float]:
    """``(sum, p50, p95, p99, max)`` of the column whose ascending runs
    are ``runs``, in one pass over its pieces: the sum is ``sum()`` over
    the ascending column and each percentile is :func:`_percentile`'s
    order statistic (all 0.0 for an empty column)."""
    count = sum(map(len, runs))
    if not count:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    # Ranks still to pick, the smallest last.
    pending = [_rank(count, pct) for pct in reversed(_PCTS)]
    picked: list[float] = []
    top = 0.0

    def walk() -> Iterator[Iterable[float]]:
        nonlocal top
        end = 0
        for piece in _pieces(runs):
            begin = end
            if type(piece) is list:
                end += len(piece)
                while pending and pending[-1] < end:
                    picked.append(piece[pending.pop() - begin])
                top = piece[-1]
                yield piece
            else:
                top, ties = piece
                end += ties
                while pending and pending[-1] < end:
                    picked.append(top)
                    pending.pop()
                yield repeat(top, ties)

    total = sum(chain.from_iterable(walk()))
    return (total, *picked, top)


@dataclass
class StageStat:
    """Latency statistics for one derived lifecycle interval."""

    stage: str
    count: int
    avg_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float


@dataclass
class StageBreakdown:
    """Per-stage lifecycle aggregate attached to a StatsSummary.

    ``stages`` holds one :class:`StageStat` per derived interval in
    pipeline order; interval averages telescope, so they sum to
    ``end_to_end_avg_s`` exactly (pinned by the CI bottleneck smoke).
    """

    #: Transactions with a complete 7-point lifecycle.
    traced: int
    #: Transactions seen by the tracer but missing at least one stamp
    #: (unconfirmed at window end, orphaned, or rejected downstream).
    partial: int
    #: Mean submit -> notify over the traced set.
    end_to_end_avg_s: float
    stages: list[StageStat] = field(default_factory=list)
    #: Mean sampled backlog per gauge (mempool/consensus/execution).
    queue_depth_avg: dict[str, float] = field(default_factory=dict)
    #: Peak sampled backlog per gauge.
    queue_depth_peak: dict[str, int] = field(default_factory=dict)

    def dominant_stage(self) -> str | None:
        """The interval with the largest mean — the bottleneck.

        Ties break toward the earlier pipeline stage; ``None`` when no
        complete lifecycle was traced.
        """
        if not self.traced or not self.stages:
            return None
        best = max(self.stages, key=lambda s: s.avg_s)
        return best.stage

    def stage_avgs(self) -> dict[str, float]:
        """Interval name -> mean seconds (comparison helper)."""
        return {s.stage: s.avg_s for s in self.stages}

    @classmethod
    def from_dict(cls, data: dict) -> "StageBreakdown":
        """Rebuild from the ``asdict`` shape persisted in run JSON."""
        return cls(
            traced=int(data["traced"]),
            partial=int(data["partial"]),
            end_to_end_avg_s=float(data["end_to_end_avg_s"]),
            stages=[StageStat(**s) for s in data.get("stages", [])],
            queue_depth_avg=dict(data.get("queue_depth_avg", {})),
            queue_depth_peak=dict(data.get("queue_depth_peak", {})),
        )


class StageTracer:
    """Cluster-wide lifecycle recorder (one per cluster, like the
    ChainAuditor). Hot-path methods are dict/list operations only; the
    stamp that completes a row also packs it, once per transaction."""

    __slots__ = (
        "_stamps", "_packed", "_offsets", "_depths", "_block_stages",
        "_depth_sums", "_depth_peaks", "_samples",
    )

    def __init__(self) -> None:
        #: tx_id -> its row. In flight: a list of 7 stamp slots (None
        #: until recorded), the running max, the stages left and the
        #: row's creation index. Finished: ``_DONE``, replacing the list
        #: in place.
        self._stamps: dict[str, list[float | None] | object] = {}
        #: The 7 stamps of every finished row, back to back.
        self._packed = array("d")
        #: Per row, in creation order: its offset in ``_packed`` once
        #: finished, -1 while it is not.
        self._offsets = array("q")
        #: Per stage, the tx ids ``record_block`` stamped last (None
        #: before its first call for that stage).
        self._block_stages: list[tuple[str, ...] | None] = [None] * _N_STAGES
        #: Live backlog gauges, pipeline order (QUEUE_GAUGES).
        self._depths = [0, 0, 0]
        #: Per gauge, the sum and the peak of its sampled depths; and
        #: how many samples :meth:`sample` has taken.
        self._depth_sums = [0, 0, 0]
        self._depth_peaks = [0, 0, 0]
        self._samples = 0

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record(self, tx_id: str, stage: int, now: float) -> None:
        """Stamp ``stage`` for ``tx_id`` at ``now`` (first occurrence
        wins; clamped so stamps never precede an earlier stage)."""
        slots = self._stamps.get(tx_id)
        if slots is None:
            slots = self._open(tx_id)
        elif slots is _DONE or slots[stage] is not None:
            return  # a packed row has every stage stamped
        if stage:
            top = slots[_TOP]
            if top > now:
                now = top
            else:
                slots[_TOP] = now
        slots[stage] = now
        # Backlog gauge transitions, guarded so replayed or forged
        # blocks whose txs skipped a stage can't drive a gauge negative.
        if stage == ADMIT:
            self._depths[0] += 1
        elif stage == PROPOSE:
            if slots[ADMIT] is not None:
                self._depths[0] -= 1
            self._depths[1] += 1
        elif stage == DECIDE:
            if slots[PROPOSE] is not None:
                self._depths[1] -= 1
            self._depths[2] += 1
        elif stage == NOTIFY:
            if slots[DECIDE] is not None:
                self._depths[2] -= 1
        left = slots[_LEFT] - 1
        if left:
            slots[_LEFT] = left
        else:
            self._pack(tx_id, slots)

    def _open(self, tx_id: str) -> list:
        """A new in-flight row for ``tx_id``, with nothing stamped."""
        offsets = self._offsets
        slots = [None] * _N_STAGES + [0.0, _N_STAGES, len(offsets)]
        self._stamps[tx_id] = slots
        offsets.append(-1)
        return slots

    def _pack(self, tx_id: str, slots: list) -> None:
        """Move a row whose seventh stamp just landed into ``_packed``."""
        packed = self._packed
        self._stamps[tx_id] = _DONE
        self._offsets[slots[_SEQ]] = len(packed)
        packed.fromlist(slots[:_N_STAGES])

    def record_block(self, tx_ids, stage: int, now: float) -> None:
        """Stamp every tx in a block at once (propose/decide/commit) —
        once per cluster: the replicas that follow the first call for a
        block's ids at a stage would be first-wins no-ops tx by tx, so a
        call repeating the stage's last ids returns at once. A fork block
        sharing transactions is other ids and is walked; so is a block
        whose ids a later block displaced, which stamps nothing new."""
        ids = tuple(tx_ids)  # a Block.tx_ids tuple is not copied
        last = self._block_stages
        if ids == last[stage]:
            return
        last[stage] = ids
        record = self.record
        for tx_id in ids:
            record(tx_id, stage, now)

    # Named hook-site helpers: the chain and platform layers sit below
    # ``repro.core`` in the import graph, so they call these instead of
    # importing the stage-index constants.
    def record_submit(self, tx_id: str, now: float) -> None:
        # Inlined record(): one submit per tx, on the per-transaction
        # client hot path. The driver stamps it on the admit reply, so
        # the entry node's admit has usually opened the row.
        slots = self._stamps.get(tx_id)
        if slots is None:
            slots = self._open(tx_id)
        elif slots is _DONE or slots[SUBMIT] is not None:
            return
        slots[SUBMIT] = now
        left = slots[_LEFT] - 1
        if left:
            slots[_LEFT] = left
        else:
            self._pack(tx_id, slots)

    def record_admit(self, tx_id: str, now: float) -> None:
        # Inlined record(): the entry node calls this once per pooled
        # transaction; a resubmission pooled at a second entry node
        # (client failover) is a first-occurrence early-out.
        slots = self._stamps.get(tx_id)
        if slots is None:
            slots = self._open(tx_id)
        elif slots is _DONE or slots[ADMIT] is not None:
            return
        top = slots[_TOP]
        if top > now:
            now = top
        else:
            slots[_TOP] = now
        slots[ADMIT] = now
        self._depths[0] += 1
        left = slots[_LEFT] - 1
        if left:
            slots[_LEFT] = left
        else:
            self._pack(tx_id, slots)

    def record_propose(self, tx_ids, now: float) -> None:
        self.record_block(tx_ids, PROPOSE, now)

    def record_decide(self, tx_ids, now: float) -> None:
        self.record_block(tx_ids, DECIDE, now)

    def record_execute(self, tx_ids, now: float) -> None:
        self.record_block(tx_ids, EXECUTE, now)

    def record_commit(self, tx_ids, now: float) -> None:
        self.record_block(tx_ids, COMMIT, now)

    def record_notify(self, tx_id: str, now: float) -> None:
        self.record(tx_id, NOTIFY, now)

    def queue_depths(self) -> tuple[int, int, int]:
        """Current (mempool, consensus, execution) backlog gauges."""
        depths = self._depths
        return (depths[0], depths[1], depths[2])

    def sample(self) -> None:
        """Fold the current gauges into the sampled sums and peaks (once
        per driver queue-sampling tick). The peaks start from the first
        sample, as ``max`` over the series would."""
        sums, peaks = self._depth_sums, self._depth_peaks
        first = not self._samples
        for gauge, depth in enumerate(self._depths):
            sums[gauge] += depth
            if first or depth > peaks[gauge]:
                peaks[gauge] = depth
        self._samples += 1

    # ------------------------------------------------------------------
    # Aggregation (end of run)
    # ------------------------------------------------------------------
    def breakdown(self) -> StageBreakdown:
        """Aggregate recorded lifecycles and the sampled gauges into a
        :class:`StageBreakdown`.

        This runs after the simulation with every stamp row still held,
        so it boxes no whole column: each interval is read from
        ``_packed`` in strided slices, ``_RUN`` rows at a time, into
        ascending runs that :func:`_summarise` merges piece by piece.
        """
        packed = self._packed
        # Exactly the packed rows are complete; the end-to-end total is
        # summed in row creation order, as it always was.
        e2e_total = 0.0
        for row in self._offsets:
            if row >= 0:
                e2e_total += packed[row + NOTIFY] - packed[row + SUBMIT]
        traced = len(packed) // _N_STAGES
        partial = len(self._stamps) - traced
        width = _RUN * _N_STAGES
        stages = []
        for name, start, end in STAGE_INTERVALS:
            runs = [
                array("d", sorted(map(
                    sub,
                    packed[lo + end:lo + width:_N_STAGES],
                    packed[lo + start:lo + width:_N_STAGES],
                )))
                for lo in range(0, len(packed), width)
            ]
            total, p50, p95, p99, top = _summarise(runs)
            del runs  # free before the next interval's runs are built
            stages.append(
                StageStat(
                    stage=name,
                    count=traced,
                    avg_s=(total / traced) if traced else 0.0,
                    p50_s=p50,
                    p95_s=p95,
                    p99_s=p99,
                    max_s=top,
                )
            )
        samples = self._samples
        return StageBreakdown(
            traced=traced,
            partial=partial,
            end_to_end_avg_s=(e2e_total / traced) if traced else 0.0,
            stages=stages,
            queue_depth_avg={
                gauge: (total / samples) if samples else 0.0
                for gauge, total in zip(QUEUE_GAUGES, self._depth_sums)
            },
            queue_depth_peak=dict(zip(QUEUE_GAUGES, self._depth_peaks)),
        )
