"""Deterministic discrete-event scheduler.

The scheduler is the heart of the simulation substrate: every node,
network link, consensus timer, and benchmark client schedules callbacks
on a single priority queue keyed by simulated time. Determinism is
guaranteed by breaking time ties with a monotonically increasing
sequence number, so two runs with the same seed replay the exact same
event order.

Several things keep the scheduler from being the layer that is measured:

* Entries are handle-free: a heap entry is the tuple ``(time, seq, fn,
  args)`` and a run-queue entry ``(seq, fn, args)``, so scheduling
  allocates nothing but the tuple. Nothing is ever cancelled: a
  callback that may have been overtaken (a mining search the tip moved
  past, a timer armed before its node crashed) checks on firing whether
  it still matters, and returns if not.
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
* :meth:`Scheduler.reserve` takes the next sequence number without
  scheduling anything, and :meth:`Scheduler.schedule_reserved` later
  puts a callback on the heap under it. A deadline that is usually met
  (an RPC timeout) reserves its slot when it is set, and one lazily
  re-armed watchdog is scheduled into the earliest slot still needed.
  A deadline that does expire fires at exactly the ``(time, seq)`` a
  timer set at the same moment would have had, and every other event
  keeps its number — without an event per deadline.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Iterable

from ..errors import SimulationError
from .clock import NEVER, SimTime
from .futures import SimCoroutine, SimFuture, spawn

# The unique, monotonically increasing ``seq`` breaks time ties before
# comparison ever reaches the (non-comparable) callback, and tuple
# comparison in C is several times faster than a dataclass __lt__ —
# this queue is pushed and popped for every simulated message, timer,
# and client tick.
HeapEntry = tuple[SimTime, int, Callable[..., Any], tuple[Any, ...]]
RunEntry = tuple[int, Callable[..., Any], tuple[Any, ...]]

#: Events :meth:`Scheduler.run_until` dispatches between livelock
#: checks: a chunk that leaves the clock where it found it is a livelock.
_CHUNK = 1_000_000


class Scheduler:
    """Single-threaded event loop over simulated time.

    >>> sched = Scheduler()
    >>> fired = []
    >>> sched.schedule(2.0, fired.append, "b")
    >>> sched.schedule(1.0, fired.append, "a")
    >>> sched.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._queue: list[HeapEntry] = []
        # Events scheduled at exactly ``now`` while the clock already
        # stands there: consumed FIFO (== seq order) without touching
        # the heap. Invariant: every entry's time is the current
        # instant, so the queue always drains before the clock moves.
        self._runq: deque[RunEntry] = deque()
        self._seq = 0
        self.now: SimTime = 0.0
        self.events_processed = 0

    def schedule(self, delay: SimTime, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        self._seq = seq = self._seq + 1
        if delay == 0.0:
            self._runq.append((seq, fn, args))
        else:
            heapq.heappush(self._queue, (self.now + delay, seq, fn, args))

    def schedule_at(self, when: SimTime, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute simulated time ``when``."""
        now = self.now
        if when < now:
            raise SimulationError(
                f"cannot schedule at {when:.6f}s; current time is {now:.6f}s"
            )
        self._seq = seq = self._seq + 1
        if when == now:
            self._runq.append((seq, fn, args))
        else:
            heapq.heappush(self._queue, (when, seq, fn, args))

    def reserve(self) -> int:
        """Take the next sequence number without scheduling anything.

        Event numbering is exactly what a :meth:`schedule` call at this
        point would have produced; :meth:`schedule_reserved` may later
        claim the slot (see the module docstring).
        """
        self._seq = seq = self._seq + 1
        return seq

    def schedule_reserved(
        self, when: SimTime, seq: int, fn: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` at ``(when, seq)``, ``seq`` from
        :meth:`reserve` and claimed at most once.

        Always the heap, even at the current instant: the run queue is
        FIFO by arrival, and a reserved ``seq`` may be older than
        entries already in it.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when:.6f}s; current time is {self.now:.6f}s"
            )
        heapq.heappush(self._queue, (when, seq, fn, args))

    def push_many(
        self,
        items: Iterable[tuple[SimTime, Callable[..., Any], tuple[Any, ...]]],
    ) -> None:
        """Bulk-schedule ``(delay, fn, args)`` entries.

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
        entries: list[HeapEntry] = []
        for delay, fn, args in items:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule {delay:.6f}s in the past"
                )
            seq += 1
            entries.append((now + delay, seq, fn, args))
        self._seq = seq
        # Crossover: k pushes cost O(k log n); extend+heapify O(n + k).
        if len(entries) * 4 >= len(queue):
            queue.extend(entries)
            heapq.heapify(queue)
        else:
            for entry in entries:
                heapq.heappush(queue, entry)

    def idle_now(self) -> bool:
        """True when nothing else is due at the current instant, so a
        zero-delay event scheduled now would be dispatched next (see the
        module docstring). O(1): a stale timer at the head counts as busy
        like any other entry — falling back to scheduling is always safe."""
        queue = self._queue
        return not self._runq and (not queue or queue[0][0] > self.now)

    def _dispatch(self, deadline: SimTime, budget: int) -> None:
        """The dispatch loop: fire events in ``(time, seq)`` order
        while their time is <= ``deadline``, at most ``budget`` of them
        (a negative budget never runs out)."""
        queue = self._queue
        runq = self._runq
        pop = heapq.heappop
        popleft = runq.popleft
        while budget:
            if runq:
                # Run-queue entries live at the current instant, which
                # is always <= deadline. A heap entry at the same
                # instant with a smaller seq was scheduled earlier and
                # goes first.
                if queue and queue[0][0] == self.now and queue[0][1] < runq[0][0]:
                    when, _, fn, args = pop(queue)
                else:
                    _, fn, args = popleft()
                    when = self.now
            elif queue and queue[0][0] <= deadline:
                when, _, fn, args = pop(queue)
            else:
                return
            self.now = when
            self.events_processed += 1
            fn(*args)
            budget -= 1

    def step(self) -> bool:
        """Run the single next event. Returns False when nothing is left."""
        before = self.events_processed
        self._dispatch(NEVER, 1)
        return self.events_processed != before

    def run(self, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping after ``max_events``."""
        self._dispatch(NEVER, -1 if max_events is None else max_events)

    def run_until(self, deadline: SimTime) -> None:
        """Run all events with time <= ``deadline`` and advance the clock.

        The clock always lands exactly on ``deadline`` so callers can
        interleave ``run_until`` calls with direct inspection.

        Events are dispatched in chunks of ``_CHUNK``, so a livelock
        (events that keep scheduling one another at one instant) raises
        :class:`SimulationError` instead of hanging, at one check per
        chunk rather than per event.
        """
        if deadline < self.now:
            raise SimulationError(
                f"deadline {deadline:.6f}s is before current time {self.now:.6f}s"
            )
        while True:
            start = self.now
            before = self.events_processed
            self._dispatch(deadline, _CHUNK)
            if self.events_processed - before < _CHUNK:
                break
            if self.now == start:
                runq, queue = self._runq, self._queue
                head = runq[0][1] if runq else queue[0][2] if queue else None
                raise SimulationError(
                    f"livelock: {_CHUNK} events dispatched at {start:.6f}s "
                    f"without the clock moving; next: "
                    f"{getattr(head, '__qualname__', repr(head))}"
                )
        self.now = deadline

    def pending(self) -> int:
        """Number of events still queued. O(1)."""
        return len(self._queue) + len(self._runq)

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
