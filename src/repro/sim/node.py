"""Base class for simulated nodes.

A :class:`SimNode` owns a *bounded* inbox drained by a single logical
CPU: each message costs ``message_cost(msg)`` seconds of processing
before its handler runs, and messages arriving while the node is
saturated beyond ``inbox_capacity`` are dropped. That bounded channel
is not a convenience — it is the mechanism behind the paper's headline
negative result (Hyperledger v0.6 failing past 16 nodes because
"consensus messages are rejected ... on account of the message channel
being full", Section 4.1.2).

A message costs two scheduler events: the network's delivery and the
finish ``message_cost`` seconds later, when the handler runs. The
hand-offs around them — idle node picks up an arrival, busy node moves
on to the next queued message — are zero-delay events only when
something else is due at that very instant; when
``Scheduler.idle_now()`` says the hand-off would be the next event
dispatched anyway, it is done inline. Same ``(time, seq)`` order either
way, so simulated output is byte-identical; see ``sim/events.py``.

A timer is a plain scheduler entry and is never cancelled. It carries
the node's crash epoch from when it was armed: :meth:`SimNode.crash`
bumps the epoch, so no timer armed before a crash fires after the
restart, and anything finer (a superseded mining search, a watchdog a
protocol replaced) is the callback's own check.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from .clock import SimTime
from .events import Scheduler
from .network import Message, Network


class SimNode:
    """A network-attached actor with serial message processing."""

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        inbox_capacity: int | None = None,
    ) -> None:
        self.node_id = node_id
        self.scheduler = scheduler
        self.network = network
        self.inbox_capacity = inbox_capacity
        self.inbox: deque[Message] = deque()
        self.crashed = False
        self._processing = False
        self.cpu_time: SimTime = 0.0
        self.dropped_messages = 0
        #: Crash epoch: bumped by crash(), carried by every timer.
        self._epoch = 0
        self._deferred_cost: SimTime = 0.0
        network.register(self)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(
        self, recipient: str, kind: str, payload: Any, size_bytes: int = 256
    ) -> None:
        if self.crashed:
            return
        self.network.send(self.node_id, recipient, kind, payload, size_bytes)

    def deliver(self, message: Message) -> None:
        """Called by the network when a message arrives."""
        if self.crashed:
            return
        if self.inbox_capacity is not None and len(self.inbox) >= self.inbox_capacity:
            self.dropped_messages += 1
            return
        self.inbox.append(message)
        if not self._processing:
            self._processing = True
            if self.scheduler.idle_now():
                self._process_next()
            else:
                self.scheduler.schedule(0.0, self._process_next)

    def _process_next(self) -> None:
        """Start on the inbox head: charge its cost, schedule its finish.

        Zero-cost messages finish on the spot, so they are drained by
        this loop (never by recursion) for as long as the scheduler has
        nothing else due at this instant.
        """
        while self.inbox and not self.crashed:
            message = self.inbox.popleft()
            cost = self.message_cost(message)
            if cost > 0:
                self.consume_cpu(cost)
                self.scheduler.schedule(cost, self._finish_message, message)
                return
            if not self._complete(message):
                return
        self._processing = False

    def _finish_message(self, message: Message) -> None:
        if self._complete(message):
            self._process_next()

    def _complete(self, message: Message) -> bool:
        """Run the handler; True when the caller may start the next
        message inline, False when a hand-off event was scheduled."""
        if not self.crashed:
            self.handle_message(message)
        # Handlers may discover extra work mid-flight (e.g. executing a
        # block's transactions) via defer_cost(); it extends the busy
        # window before the next message is served.
        extra = self._deferred_cost
        if extra > 0:
            self._deferred_cost = 0.0
            self.consume_cpu(extra)
            self.scheduler.schedule(extra, self._process_next)
            return False
        if self.inbox and not self.crashed and not self.scheduler.idle_now():
            # Something else is due at this instant (say a zero-delay
            # event the handler just scheduled): it goes first.
            self.scheduler.schedule(0.0, self._process_next)
            return False
        return True

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def message_cost(self, message: Message) -> SimTime:
        """CPU seconds consumed before ``handle_message`` runs."""
        return 0.0

    def handle_message(self, message: Message) -> None:
        """Process one delivered message. Subclasses override."""

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, delay: SimTime, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)``; it does not run if the node crashed
        in the meantime, even if it has recovered since."""
        self.scheduler.schedule(delay, self._fire_timer, self._epoch, fn, args)

    def set_timer_at(self, when: SimTime, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`set_timer` at an absolute instant. Not the same as a
        delay of ``when - now``: in floats ``now + (when - now)`` need
        not equal ``when``, and a re-armed deadline must not drift."""
        self.scheduler.schedule_at(when, self._fire_timer, self._epoch, fn, args)

    def _fire_timer(self, epoch: int, fn: Any, args: tuple) -> None:
        if epoch == self._epoch and not self.crashed:
            fn(*args)

    # ------------------------------------------------------------------
    # CPU accounting / fault injection
    # ------------------------------------------------------------------
    def consume_cpu(self, seconds: SimTime) -> None:
        """Account ``seconds`` of CPU work (for utilization sampling)."""
        if seconds > 0:
            self.cpu_time += seconds

    def defer_cost(self, seconds: SimTime) -> None:
        """Charge CPU work discovered while handling the current message.

        The node stays busy for the extra time before draining its next
        message — this is what lets heavy block execution back-pressure
        a node's inbox (the mechanism behind Hyperledger's overload
        collapse).
        """
        if seconds > 0:
            self._deferred_cost += seconds

    def crash(self) -> None:
        """Stop the node: drop inbox, outdate timers, ignore future traffic."""
        self.crashed = True
        self.inbox.clear()
        self._processing = False
        # Work discovered mid-message dies with the process: a node
        # recovered later must not charge the interrupted handler's
        # deferred CPU to its first post-recovery message.
        self._deferred_cost = 0.0
        self._epoch += 1

    def recover(self) -> None:
        """Restart a crashed node (subclasses re-arm their timers)."""
        self.crashed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"<{type(self).__name__} {self.node_id} {state}>"
