"""The asynchronous BLOCKBENCH driver (Section 3.2).

The paper's Driver submits transactions at a configured rate, keeps "a
queue of outstanding transactions that have not been confirmed", and a
polling loop "periodically invokes getLatestBlock(h) ... extracts
transaction lists from the confirmed blocks' content and removes
matching ones in the local queue". That state machine is written once,
in :class:`_LoadDriver`, over *slots*: parallel arrays holding, per
slot, one RPC endpoint + connector, the outstanding-transaction map,
the poll height, the failover backoff and the collector. One submit →
reply handler, one confirmation matcher, one poll tick and one sample
tick sweep the slots; a run costs a handful of recurring scheduler
events however many slots it has.

Two pacing front-ends decide *when* a transaction is offered and what
happens to one the backend refuses:

* :class:`Driver` — closed loop. Slots are the paper's WorkloadClients:
  a shared rate tick appends one new transaction to every client's
  backlog, ``threads_per_client`` caps the submission RPCs each client
  has in flight, a refused transaction goes back to the backlog (so the
  queue-length series reproduces Figure 6's growth curves), ``blocking``
  sends the next transaction only when the previous one confirmed, and
  ``subscribe`` swaps the poll tick for the backend's push feed.
* :class:`OpenLoopDriver` — open loop. Slots are servers: an
  :class:`ArrivalGenerator` emits transactions at an aggregate rate
  whatever the backend does, with no in-flight cap; a refused
  transaction is itself retried while the window is open.

The driver is a plain user of the awaitable connector API: RPC replies
arrive through ``future.add_done_callback`` and the push feed through a
coroutine over ``BlockSubscription.next_block()``. Futures resolve
inline, so neither adds a scheduler event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

from ..chain import Transaction
from ..errors import BenchmarkError
from ..sim import Scheduler, SimCoroutine, SimFuture, spawn
from ..util.names import IndexedNames
from .connector import RPCClient, SimChainConnector
from .stats import StatsCollector, merge_collectors
from .workload import ArrivalGenerator, ArrivalSpec, Workload


@dataclass
class DriverConfig:
    """Per-run driver knobs (the paper's 'user-defined configuration')."""

    n_clients: int = 8
    request_rate_tx_s: float = 100.0
    duration_s: float = 60.0
    poll_interval_s: float = 0.5
    retry_interval_s: float = 0.25
    queue_sample_interval_s: float = 1.0
    #: Worker threads per client ("multiple clients and threads per
    #: clients to saturate the blockchain", Section 3.3). Each thread
    #: has one submission RPC in flight at a time, so a saturated
    #: server back-pressures the client instead of being flooded.
    threads_per_client: int = 32
    #: Blocking mode: one outstanding transaction at a time (the
    #: paper's latency-measurement mode).
    blocking: bool = False
    #: Use the backend's publish/subscribe block feed instead of
    #: getLatestBlock polling (ErisDB only — Section 3.2). Confirmation
    #: events arrive pushed, saving one RPC round trip per poll.
    subscribe: bool = False
    #: Open-loop mode: when set, the run is driven by an aggregate
    #: arrival process (OpenLoopDriver) instead of N closed-loop
    #: clients; n_clients / request_rate_tx_s / threads_per_client are
    #: ignored in favor of the arrival spec.
    arrival: ArrivalSpec | None = None
    #: Bound the latency sample set held in memory (reservoir size, 0 =
    #: keep every sample). See StatsCollector for the accuracy tradeoff.
    stats_reservoir: int = 0
    #: Fail over to the next live server when an RPC times out (the
    #: client side of crash recovery). Off by default: a client then
    #: pins its endpoint and retries it forever, so runs without the
    #: knob replay unchanged.
    failover: bool = False
    #: Cap on the exponential backoff between failover attempts. The
    #: backoff starts at ``retry_interval_s`` and doubles per
    #: consecutive timeout — deterministic, no jitter, so failover runs
    #: stay replayable.
    max_backoff_s: float = 2.0

    def __post_init__(self) -> None:
        """Reject knob values that would hang or starve the run.

        These knobs are reachable from the CLI and scenario JSON, so
        bad values arrive from outside the codebase: a non-positive
        duration has no window to divide throughput by, zero
        closed-loop clients offer no load, a non-positive poll or
        sample interval reschedules its tick at the same simulated
        instant forever (time never advances), zero threads can never
        submit, and a negative backoff is an invalid timer.
        """
        if self.duration_s <= 0:
            raise BenchmarkError(
                f"duration_s must be positive, got {self.duration_s}"
            )
        if self.arrival is None and self.n_clients < 1:
            raise BenchmarkError(
                f"n_clients must be >= 1 for a closed-loop run, got {self.n_clients}"
            )
        if self.request_rate_tx_s <= 0:
            raise BenchmarkError(
                f"request_rate_tx_s must be positive, got {self.request_rate_tx_s}"
            )
        if self.poll_interval_s <= 0:
            raise BenchmarkError(
                f"poll_interval_s must be positive, got {self.poll_interval_s}"
            )
        if self.queue_sample_interval_s <= 0:
            raise BenchmarkError(
                "queue_sample_interval_s must be positive, "
                f"got {self.queue_sample_interval_s}"
            )
        if self.retry_interval_s < 0:
            raise BenchmarkError(
                f"retry_interval_s must be >= 0, got {self.retry_interval_s}"
            )
        if self.threads_per_client < 1:
            raise BenchmarkError(
                f"threads_per_client must be >= 1, got {self.threads_per_client}"
            )
        if self.stats_reservoir < 0:
            raise BenchmarkError(
                f"stats_reservoir must be >= 0, got {self.stats_reservoir}"
            )
        if self.max_backoff_s < 0:
            raise BenchmarkError(
                f"max_backoff_s must be >= 0, got {self.max_backoff_s}"
            )


class _LoadDriver:
    """The transaction state machine both pacings share.

    Position ``s`` of every per-slot array belongs to slot ``s``. A
    transaction is only ever confirmed through the slot it was
    submitted on, so matching never looks across slots. Subclasses add
    slots in construction order — RPC endpoints register with the
    network as they are built, and that order, the rng stream names and
    the order of the ``schedule`` calls in :meth:`start` fix the
    ``(time, seq)`` of everything the driver does.
    """

    def __init__(self, cluster, workload: Workload, config: DriverConfig) -> None:
        self.cluster = cluster
        self.workload = workload
        self.config = config
        self.scheduler: Scheduler = cluster.scheduler
        #: Cluster lifecycle tracer (None when trace_stages is off).
        self.tracer = getattr(cluster, "tracer", None)
        self.connectors: list[SimChainConnector] = []
        self.stats_slots: list[StatsCollector] = []
        # Outstanding = submitted, awaiting confirmation.
        self.outstanding: list[dict[str, float]] = []
        self.poll_heights: list[int] = []
        # Failover backoff: starts at the retry interval, doubles per
        # consecutive timeout, reset by the first accepted reply.
        self.backoffs: list[float] = []
        # Poll RPCs are bounded only in failover mode: a poll at a
        # crashed endpoint must resolve so the slot can repoint itself.
        self._poll_timeout_s = (
            SimChainConnector.SUBMIT_TIMEOUT_S if config.failover else None
        )
        # Confirmations come from the poll tick unless a front-end
        # replaces it (closed loop with ``subscribe``).
        self._polls = True
        self._prepared = False
        self._running = False
        self._deadline = 0.0
        #: Run-wide statistics; see :meth:`run`.
        self.stats: StatsCollector | None = None

    def _add_slot(self, rpc_name: str, server_id: str, stats: StatsCollector) -> None:
        rpc = RPCClient(rpc_name, self.scheduler, self.cluster.network)
        self.connectors.append(SimChainConnector(self.cluster, rpc, server_id))
        self.stats_slots.append(stats)
        self.outstanding.append({})
        self.poll_heights.append(0)
        self.backoffs.append(self.config.retry_interval_s)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Deploy contracts and preload state."""
        for contract in self.workload.required_contracts:
            for node in self.cluster.nodes:
                node.deploy(contract)
        self.workload.preload(self.cluster)
        self._prepared = True

    def start(self, duration_s: float) -> None:
        """Open the measurement window and start offering load.

        For callers that advance the simulation themselves (attack and
        fault harnesses); :meth:`run` is start + run to completion.
        """
        now = self.scheduler.now
        self._running = True
        self._deadline = now + duration_s
        for stats in self.stats_slots:
            stats.begin(now)
        self._begin_load()
        schedule = self.scheduler.schedule
        if self._polls:
            schedule(self.config.poll_interval_s, self._tick_poll)
        schedule(self.config.queue_sample_interval_s, self._tick_sample)
        schedule(duration_s, self._stop)

    def _stop(self) -> None:
        self._running = False
        now = self.scheduler.now
        for stats in self.stats_slots:
            stats.finish(now)

    def run(self, extra_drain_s: float = 5.0) -> StatsCollector:
        """Run the configured duration; returns the run-wide statistics."""
        if not self._prepared:
            self.prepare()
        self.start(self.config.duration_s)
        self.cluster.run_until(
            self.scheduler.now + self.config.duration_s + extra_drain_s
        )
        self.stats = self._collect()
        return self.stats

    def queue_series(self) -> list[tuple[float, int]]:
        """Summed queue lengths over time (Figures 6 and 18), after :meth:`run`."""
        return self.stats.queue_samples

    # ------------------------------------------------------------------
    # Submission: one RPC, one reply handler
    # ------------------------------------------------------------------
    def _submit(self, slot: int, tx: Transaction) -> None:
        self.stats_slots[slot].record_submission()
        self.connectors[slot].send_transaction(tx).add_done_callback(
            partial(self._on_reply, slot, tx, self.scheduler.now)
        )

    def _on_reply(
        self, slot: int, tx: Transaction, submit_time: float, future: SimFuture
    ) -> None:
        reply = future.result()
        failover = self.config.failover
        if reply.get("accepted") or (failover and reply.get("dup")):
            # A "dup" reply after failover means the transaction is
            # already pooled (or committed) cluster-side — it counts as
            # submitted and the poller will confirm it.
            self.backoffs[slot] = self.config.retry_interval_s
            self.outstanding[slot][tx.tx_id] = submit_time
            if self.tracer is not None:
                self.tracer.record_submit(tx.tx_id, submit_time)
            self._accepted(slot)
        else:
            self.stats_slots[slot].record_rejection()
            self._refused(slot, tx, bool(failover and reply.get("timeout")))

    def _next_backoff(self, slot: int) -> float:
        cap = self.config.max_backoff_s
        delay = min(self.backoffs[slot], cap)
        self.backoffs[slot] = min(self.backoffs[slot] * 2.0, cap)
        return delay

    # ------------------------------------------------------------------
    # Confirmation: getLatestBlock polling, one round per slot per tick
    # ------------------------------------------------------------------
    def _tick_poll(self) -> None:
        """Rounds overlap the interval (the next tick is not gated on
        the previous reply), and polling keeps going briefly past the
        deadline to drain confirmations of transactions submitted
        inside the window."""
        poll = self.config.poll_interval_s
        if self.scheduler.now > self._deadline + 10 * poll:
            return
        for slot, connector in enumerate(self.connectors):
            connector.get_latest_block(
                self.poll_heights[slot], timeout_s=self._poll_timeout_s
            ).add_done_callback(partial(self._on_poll_reply, slot))
        self.scheduler.schedule(poll, self._tick_poll)

    def _on_poll_reply(self, slot: int, future: SimFuture) -> None:
        reply = future.result()
        if reply.get("timeout"):
            # Dead endpoint: repoint; the next poll tick covers the gap.
            self.connectors[slot].fail_over()
            return
        for block in reply.get("blocks", ()):
            self._confirm(slot, block)

    def _confirm(self, slot: int, block: dict) -> None:
        """Match one confirmed block's transactions against outstanding."""
        if block["height"] > self.poll_heights[slot]:
            self.poll_heights[slot] = block["height"]
        outstanding = self.outstanding[slot]
        stats = self.stats_slots[slot]
        for tx_id in block["tx_ids"]:
            submitted_at = outstanding.pop(tx_id, None)
            if submitted_at is not None:
                if submitted_at <= self._deadline:
                    confirmed_at = self.scheduler.now
                    stats.record_confirmation(submitted_at, confirmed_at)
                    if self.tracer is not None:
                        self.tracer.record_notify(tx_id, confirmed_at)
                self._confirmed(slot)

    def _tick_sample(self) -> None:
        if not self._running:
            return
        self._sample(self.scheduler.now)
        self.scheduler.schedule(
            self.config.queue_sample_interval_s, self._tick_sample
        )

    # ------------------------------------------------------------------
    # What a pacing front-end decides
    # ------------------------------------------------------------------
    def _begin_load(self) -> None:
        """Start offering transactions (called once, by :meth:`start`)."""
        raise NotImplementedError

    def _accepted(self, slot: int) -> None:
        """The backend took a submission on ``slot``."""

    def _refused(self, slot: int, tx: Transaction, timed_out: bool) -> None:
        """The backend refused ``tx``, or (failover mode) never answered."""
        raise NotImplementedError

    def _confirmed(self, slot: int) -> None:
        """One of ``slot``'s outstanding transactions confirmed."""

    def _sample(self, now: float) -> None:
        """Record the queue-length sample(s) for this instant."""
        raise NotImplementedError

    def _collect(self) -> StatsCollector:
        """The run-wide view of the slot collectors."""
        raise NotImplementedError


class Driver(_LoadDriver):
    """Closed loop: N WorkloadClients, each bound to one server.

    Client ``i`` talks to server ``i mod n_servers`` and draws from rng
    stream ``client-i``. Every client shares the config, so their rate
    ticks would fire at the same instant in client order with nothing
    able to sort between them; one tick sweeping the slots in client
    order is that timeline with N× fewer scheduler events.
    """

    def __init__(self, cluster, workload: Workload, config: DriverConfig) -> None:
        super().__init__(cluster, workload, config)
        self._polls = not config.subscribe
        server_ids = cluster.node_ids()
        #: One name per client: every transaction it sends carries it.
        self.client_names = [f"client-{i}" for i in range(config.n_clients)]
        self.rngs = [cluster.rng.stream(name) for name in self.client_names]
        for index, name in enumerate(self.client_names):
            self._add_slot(
                name,
                server_ids[index % len(server_ids)],
                StatsCollector(
                    cluster.platform,
                    workload.name,
                    reservoir=config.stats_reservoir,
                    reservoir_seed=index,
                ),
            )
        # Backlog = generated/refused, awaiting (re)submission.
        self.backlogs: list[deque[Transaction]] = [deque() for _ in self.rngs]
        # Submission RPCs awaiting a reply (one per busy worker thread).
        self.inflight = [0] * len(self.rngs)

    def _next_tx(self, slot: int) -> Transaction:
        return self.workload.next_transaction(
            self.client_names[slot], self.rngs[slot], self.scheduler.now
        )

    def _begin_load(self) -> None:
        for slot in range(len(self.connectors)):
            if self.config.blocking:
                self._submit(slot, self._next_tx(slot))
            if self.config.subscribe:
                spawn(self._subscribe_pump(slot))
        if not self.config.blocking:
            self.scheduler.schedule(0.0, self._tick_submit)

    def _tick_submit(self) -> None:
        """Offered load: one new transaction per client per rate tick.

        The tick enqueues regardless of whether a worker thread is
        free; when all threads are blocked on submission RPCs the
        backlog grows — Figure 6's curves.
        """
        if not self._running:
            return
        threads = self.config.threads_per_client
        for slot, backlog in enumerate(self.backlogs):
            backlog.append(self._next_tx(slot))
            if self.inflight[slot] < threads:
                self._submit(slot, backlog.popleft())
        self.scheduler.schedule(
            1.0 / self.config.request_rate_tx_s, self._tick_submit
        )

    def _submit(self, slot: int, tx: Transaction) -> None:
        """Occupies one of the client's worker threads for the round trip."""
        self.inflight[slot] += 1
        super()._submit(slot, tx)

    def _on_reply(
        self, slot: int, tx: Transaction, submit_time: float, future: SimFuture
    ) -> None:
        self.inflight[slot] -= 1
        super()._on_reply(slot, tx, submit_time, future)

    def _drain(self, slot: int) -> None:
        """A free worker thread takes the head of the backlog."""
        if (
            self._running
            and self.backlogs[slot]
            and self.inflight[slot] < self.config.threads_per_client
        ):
            self._submit(slot, self.backlogs[slot].popleft())

    def _accepted(self, slot: int) -> None:
        if not self.config.blocking:
            self._drain(slot)

    def _refused(self, slot: int, tx: Transaction, timed_out: bool) -> None:
        if timed_out:
            # Dead endpoint: back off, repoint at the next live server
            # and resubmit the same transaction (mempool dedup makes
            # that safe) — past the deadline too, so nothing is lost.
            self.scheduler.schedule(
                self._next_backoff(slot), self._failover_resubmit, slot, tx
            )
        else:
            # Throttle / full queue: back to the backlog, and a freed
            # thread retries after a backoff, like a real client facing
            # HTTP 429-style pushback.
            self.backlogs[slot].append(tx)
            self.scheduler.schedule(
                self.config.retry_interval_s, self._drain, slot
            )

    def _failover_resubmit(self, slot: int, tx: Transaction) -> None:
        self.connectors[slot].fail_over()
        self._submit(slot, tx)

    def _confirmed(self, slot: int) -> None:
        if self.config.blocking and self._running:
            self._submit(slot, self._next_tx(slot))

    def _subscribe_pump(self, slot: int) -> SimCoroutine:
        """Consume the pub/sub block feed (ErisDB, Section 3.2)."""
        subscription = self.connectors[slot].subscribe_new_blocks(0)
        while True:
            block = yield subscription.next_block()
            self._confirm(slot, block)

    def _sample(self, now: float) -> None:
        for slot, stats in enumerate(self.stats_slots):
            # Stage-depth gauges are cluster-global; exactly one client
            # samples them so the merge doesn't multiply the series.
            depths = (
                self.tracer.queue_depths()
                if slot == 0 and self.tracer is not None
                else None
            )
            stats.record_queue_length(
                now,
                len(self.outstanding[slot]) + len(self.backlogs[slot]),
                stage_depths=depths,
            )

    def _collect(self) -> StatsCollector:
        return merge_collectors(self.stats_slots)


class OpenLoopDriver(_LoadDriver):
    """Open loop: an aggregate arrival process, no clients.

    Closed-loop clients are coupled to the system under test — a
    saturated server back-pressures them through their in-flight caps,
    so offered load sags exactly when the measurement is most
    interesting. The open loop severs that coupling: an
    :class:`ArrivalGenerator` emits transactions at the configured
    aggregate rate regardless of how the backend responds, which is
    both the BlockMeter recipe for "make sure the harness is not the
    bottleneck" and the only shape that scales to 100k–1M simulated
    senders (state is one dict entry per outstanding tx, not one object
    per client).

    Arrivals are pre-scheduled a chunk at a time through the
    scheduler's ``push_many`` bulk insert; each draws a sender account
    from the arrival spec (uniform or Zipf-skewed) and fires at the
    sender's home server (``account % n_servers``). One slot per
    server, all feeding one collector.
    """

    #: Arrivals pre-scheduled per push_many batch. Bounds generator
    #: look-ahead memory while amortizing heap maintenance.
    ARRIVAL_CHUNK = 4096

    def __init__(self, cluster, workload: Workload, config: DriverConfig) -> None:
        if config.arrival is None:
            raise BenchmarkError("OpenLoopDriver requires DriverConfig.arrival")
        super().__init__(cluster, workload, config)
        self.generator = ArrivalGenerator(
            config.arrival, cluster.rng.stream("arrivals")
        )
        self.txgen_rng = cluster.rng.stream("openloop-txgen")
        self._senders = IndexedNames("account-")
        self.stats = StatsCollector(
            cluster.platform,
            workload.name,
            reservoir=config.stats_reservoir,
            reservoir_seed=cluster.rng.master_seed,
        )
        for server_id in cluster.node_ids():
            self._add_slot(f"openloop-{server_id}", server_id, self.stats)
        # Refused submissions waiting out their backoff.
        self._retries_pending = 0
        self._arrival_clock = 0.0

    def _begin_load(self) -> None:
        self._arrival_clock = self.scheduler.now
        self._schedule_chunk()

    def _schedule_chunk(self) -> None:
        """Pre-schedule the next chunk of arrivals in one bulk insert."""
        now = self.scheduler.now
        clock = self._arrival_clock
        items: list[tuple[float, object, tuple]] = []
        exhausted = False
        while len(items) < self.ARRIVAL_CHUNK:
            gap, sender = next(self.generator)
            clock += gap
            if clock > self._deadline:
                exhausted = True
                break
            items.append((clock - now, self._arrive, (sender,)))
        self._arrival_clock = clock
        if items:
            self.scheduler.push_many(items)
            if not exhausted:
                # Continue right after the last scheduled arrival (same
                # instant, later sequence number).
                self.scheduler.schedule_at(clock, self._schedule_chunk)

    def _arrive(self, sender: int) -> None:
        tx = self.workload.next_transaction(
            self._senders[sender], self.txgen_rng, self.scheduler.now
        )
        self._submit(sender % len(self.connectors), tx)

    def _refused(self, slot: int, tx: Transaction, timed_out: bool) -> None:
        """The same transaction retries, only while the window is open."""
        if self._running:
            self._retries_pending += 1
            delay = (
                self._next_backoff(slot)
                if timed_out
                else self.config.retry_interval_s
            )
            self.scheduler.schedule(delay, self._retry, slot, tx, timed_out)

    def _retry(self, slot: int, tx: Transaction, fail_over: bool) -> None:
        self._retries_pending -= 1
        if self._running:
            if fail_over:
                self.connectors[slot].fail_over()
            self._submit(slot, tx)

    def queue_length(self) -> int:
        return sum(len(o) for o in self.outstanding) + self._retries_pending

    def _sample(self, now: float) -> None:
        depths = self.tracer.queue_depths() if self.tracer is not None else None
        self.stats.record_queue_length(
            now, self.queue_length(), stage_depths=depths
        )

    def _collect(self) -> StatsCollector:
        return self.stats
