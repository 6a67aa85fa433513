"""Deterministic discrete-event scheduler.

The scheduler is the heart of the simulation substrate: every node,
network link, consensus timer, and benchmark client schedules callbacks
on a single priority queue keyed by simulated time. Determinism is
guaranteed by breaking time ties with a monotonically increasing
sequence number, so two runs with the same seed replay the exact same
event order.

Three things keep the scheduler from being the layer that is measured:

* Events scheduled at *exactly the current instant* go to a FIFO run
  queue instead of the heap. Dispatch order is unchanged (the run queue
  is consumed in sequence order, interleaved with any same-timestamp
  heap entries by their sequence numbers); only the
  ``heappush``/``heappop`` pair is skipped.
* :meth:`Scheduler.push_many` bulk-schedules a batch of timers with one
  ``heapify`` instead of N ``heappush`` calls — the entry point the
  open-loop arrival pump uses to pre-schedule a chunk of arrivals.
* :meth:`Scheduler.idle_now` lets a caller skip a zero-delay event
  altogether. It holds when the run queue is empty and the heap head is
  strictly later than ``now``; a zero-delay event scheduled at that
  moment would be the very next one dispatched, with nothing able to
  run in between, so doing its work inline yields the same ``(time,
  seq)`` order of everything else — every later event just carries a
  sequence number one smaller, and only their relative order is ever
  compared. ``SimNode`` uses it to serve a message with two events
  (delivery, finish) instead of three or four.

Cancelled events stay buried until popped; when they outnumber the live
ones the containers are compacted *in place*, because ``run`` and
``run_until`` dispatch from local aliases of them.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable

from ..errors import SimulationError
from .clock import NEVER, SimTime
from .futures import SimCoroutine, SimFuture, spawn

# Heap entries are plain ``(time, seq, event)`` tuples. The unique,
# monotonically increasing ``seq`` breaks time ties before comparison
# ever reaches the (non-comparable) event, and tuple comparison in C is
# several times faster than a dataclass __lt__ — this queue is pushed
# and popped for every simulated message, timer, and client tick.
# Run-queue entries are ``(seq, event)`` — their time is always the
# scheduler's current instant.


class Event:
    """Handle for a scheduled callback; supports cancellation."""

    #: ``timer_id`` is set only on timers a ``SimNode`` tracks.
    __slots__ = ("fn", "args", "cancelled", "_scheduler", "timer_id")

    def __init__(
        self,
        fn: Callable[..., Any],
        args: tuple[Any, ...],
        scheduler: "Scheduler | None" = None,
    ) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._scheduler = scheduler

    def cancel(self) -> None:
        """Prevent the callback from firing. Idempotent; cancelling an
        event that already fired is a no-op."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._scheduler is not None:
            self._scheduler._on_cancel()
            self._scheduler = None


class Scheduler:
    """Single-threaded event loop over simulated time.

    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.schedule(2.0, fired.append, "b")
    >>> _ = sched.schedule(1.0, fired.append, "a")
    >>> sched.run()
    >>> fired
    ['a', 'b']
    """

    #: Compact the heap when at least this many cancelled entries are
    #: buried in it *and* they outnumber the live ones; below the
    #: floor, popping them lazily is cheaper than a rebuild.
    COMPACT_FLOOR = 64

    def __init__(self) -> None:
        self._queue: list[tuple[SimTime, int, Event]] = []
        # Events scheduled at exactly ``now`` while the clock already
        # stands there: consumed FIFO (== seq order) without touching
        # the heap. Invariant: every entry's time is the current
        # instant, so the queue always drains before the clock moves.
        self._runq: deque[tuple[int, Event]] = deque()
        self._seq = 0
        self.now: SimTime = 0.0
        self.events_processed = 0
        # Tombstones (cancelled events) still buried in the heap or run
        # queue. pending() derives the live count from the container
        # sizes minus this, so the hot dispatch path maintains no
        # separate live counter.
        self._cancelled = 0

    def schedule(self, delay: SimTime, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        event = Event(fn, args, self)
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._runq.append((seq, event))
        else:
            heapq.heappush(self._queue, (self.now + delay, seq, event))
        return event

    def schedule_at(self, when: SimTime, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when:.6f}s; current time is {now:.6f}s"
            )
        event = Event(fn, args, self)
        self._seq = seq = self._seq + 1
        if when == now:
            self._runq.append((seq, event))
        else:
            heapq.heappush(self._queue, (when, seq, event))
        return event

    def push_many(
        self,
        items: Iterable[tuple[SimTime, Callable[..., Any], tuple[Any, ...]]],
    ) -> list[Event]:
        """Bulk-schedule ``(delay, fn, args)`` entries; returns their Events.

        One ``heapify`` over the merged heap replaces N ``heappush``
        sift-ups when the batch is large relative to the pending queue
        — the win the open-loop arrival pump depends on when it
        pre-schedules a chunk of arrivals at once. Order semantics are
        identical to N sequential :meth:`schedule` calls (entries take
        consecutive sequence numbers in input order).
        """
        now = self.now
        queue = self._queue
        seq = self._seq
        events: list[Event] = []
        entries: list[tuple[SimTime, int, Event]] = []
        for delay, fn, args in items:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule {delay:.6f}s in the past"
                )
            seq += 1
            event = Event(fn, args, self)
            events.append(event)
            entries.append((now + delay, seq, event))
        self._seq = seq
        # Crossover: k pushes cost O(k log n); extend+heapify O(n + k).
        if len(entries) * 4 >= len(queue):
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            for entry in entries:
                heapq.heappush(queue, entry)
        return events

    def _on_cancel(self) -> None:
        """Bookkeeping for Event.cancel(); compacts tombstones lazily."""
        self._cancelled += 1
        if (
            self._cancelled >= self.COMPACT_FLOOR
            and self._cancelled > (len(self._queue) + len(self._runq)) // 2
        ):
            # In place: run()/run_until() dispatch from local aliases of
            # both containers, so rebinding them mid-run would hide every
            # event scheduled afterwards.
            self._queue[:] = [
                entry for entry in self._queue if not entry[2].cancelled
            ]
            heapq.heapify(self._queue)
            live = [entry for entry in self._runq if not entry[1].cancelled]
            self._runq.clear()
            self._runq.extend(live)
            self._cancelled = 0

    def idle_now(self) -> bool:
        """True when nothing else is due at the current instant, so a
        zero-delay event scheduled now would be dispatched next (see the
        module docstring). O(1): a cancelled head at ``now`` counts as
        busy — falling back to scheduling is always safe."""
        queue = self._queue
        return not self._runq and (not queue or queue[0][0] > self.now)

    def peek_time(self) -> SimTime:
        """Time of the next pending event, or ``NEVER`` if queue is empty."""
        runq = self._runq
        while runq and runq[0][1].cancelled:
            runq.popleft()
            self._cancelled -= 1
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
            self._cancelled -= 1
        if runq:
            return self.now  # run-queue entries live at the current instant
        return queue[0][0] if queue else NEVER

    def _pop_next(self) -> tuple[SimTime, Event] | None:
        """Pop the next live event honoring (time, seq) order, or None."""
        queue = self._queue
        runq = self._runq
        pop = heapq.heappop
        while True:
            if runq:
                # A heap entry at the same instant with a smaller seq
                # was scheduled earlier and goes first.
                head = queue[0] if queue else None
                if head is not None and head[0] == self.now and head[1] < runq[0][0]:
                    when, _seq, event = pop(queue)
                else:
                    when, event = self.now, runq.popleft()[1]
            elif queue:
                when, _seq, event = pop(queue)
            else:
                return None
            if event.cancelled:
                self._cancelled -= 1
                continue
            return when, event

    def step(self) -> bool:
        """Run the single next event. Returns False when nothing is left."""
        nxt = self._pop_next()
        if nxt is None:
            return False
        when, event = nxt
        self.now = when
        self.events_processed += 1
        # Detach before firing so a later cancel() of this handle
        # cannot corrupt the tombstone counter.
        event._scheduler = None
        event.fn(*event.args)
        return True

    def run(self, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping after ``max_events``."""
        queue = self._queue
        runq = self._runq
        pop = heapq.heappop
        remaining = -1 if max_events is None else max_events
        # Inlined _pop_next: this loop is the simulator's innermost
        # hot path, so it avoids a Python call per dispatched event.
        while True:
            if runq:
                head = queue[0] if queue else None
                if head is not None and head[0] == self.now and head[1] < runq[0][0]:
                    when, _seq, event = pop(queue)
                else:
                    when, event = self.now, runq.popleft()[1]
            elif queue:
                when, _seq, event = pop(queue)
            else:
                return
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = when
            self.events_processed += 1
            event._scheduler = None
            event.fn(*event.args)
            if remaining != -1:
                remaining -= 1
                if remaining <= 0:
                    return

    def run_until(self, deadline: SimTime) -> None:
        """Run all events with time <= ``deadline`` and advance the clock.

        The clock always lands exactly on ``deadline`` so callers can
        interleave ``run_until`` calls with direct inspection.
        """
        if deadline < self.now:
            raise SimulationError(
                f"deadline {deadline:.6f}s is before current time {self.now:.6f}s"
            )
        queue = self._queue
        runq = self._runq
        pop = heapq.heappop
        while True:
            if runq:
                # Run-queue entries live at the current instant, which
                # is always <= deadline.
                head = queue[0] if queue else None
                if head is not None and head[0] == self.now and head[1] < runq[0][0]:
                    when, _seq, event = pop(queue)
                else:
                    when, event = self.now, runq.popleft()[1]
            elif queue:
                head = queue[0]
                if head[2].cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if head[0] > deadline:
                    break
                when, _seq, event = pop(queue)
            else:
                break
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.now = when
            self.events_processed += 1
            event._scheduler = None
            event.fn(*event.args)
        self.now = deadline

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued. O(1):
        derived from the container sizes minus buried tombstones."""
        return len(self._queue) + len(self._runq) - self._cancelled

    # ------------------------------------------------------------------
    # Coroutine support (see repro.sim.futures)
    # ------------------------------------------------------------------
    def sleep(self, delay: SimTime) -> SimFuture:
        """A future resolving ``delay`` simulated seconds from now.

        The awaitable replacement for ``schedule(delay, fn)``-style
        timer callbacks: ``yield scheduler.sleep(0.5)``. Costs exactly
        one heap event, like the callback it replaces.
        """
        future = SimFuture()
        self.schedule(delay, future.set_result, None)
        return future

    def spawn(self, coroutine: SimCoroutine) -> SimFuture:
        """Run a generator-coroutine against this scheduler's timeline.

        Pure convenience over :func:`repro.sim.futures.spawn` — the
        trampoline itself never touches the heap; only ``sleep`` and
        the RPC layer do.
        """
        return spawn(coroutine)
