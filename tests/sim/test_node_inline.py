"""The two-event message pipeline must be indistinguishable from the old one.

``SimNode`` serves a message with two scheduler events (delivery, finish)
instead of three or four, by doing a zero-delay hand-off inline whenever
``Scheduler.idle_now()`` says that hand-off would have been the very
next event dispatched anyway. ``HandOffNode`` below is the pipeline as
it was before — every hand-off a scheduled event — kept as the reference
the differential test replays random schedules against. The named tests
pin the exact-tie cases one by one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Message, Network, RngRegistry, Scheduler, SimNode


class ScriptedNode(SimNode):
    """Payload ``(tag, cost, action, amount)`` scripts cost and handler."""

    def __init__(self, node_id, scheduler, network, log, **kwargs):
        super().__init__(node_id, scheduler, network, **kwargs)
        self.log = log

    def message_cost(self, message):
        return message.payload[1]

    def handle_message(self, message):
        tag, _cost, action, amount = message.payload
        self.log.append((self.scheduler.now, "handled", tag))
        if action == "zero_delay":
            self.scheduler.schedule(
                0.0, lambda: self.log.append((self.scheduler.now, "event", tag))
            )
        elif action == "defer":
            self.defer_cost(amount)
        elif action == "crash":
            self.crash()


class HandOffNode(ScriptedNode):
    """Reference: the pre-elision pipeline, one event per hand-off."""

    def deliver(self, message):
        if self.crashed:
            return
        if self.inbox_capacity is not None and len(self.inbox) >= self.inbox_capacity:
            self.dropped_messages += 1
            return
        self.inbox.append(message)
        if not self._processing:
            self._processing = True
            self.scheduler.schedule(0.0, self._process_next)

    def _process_next(self):
        if self.crashed or not self.inbox:
            self._processing = False
            return
        message = self.inbox.popleft()
        cost = self.message_cost(message)
        self.consume_cpu(cost)
        if cost > 0:
            self.scheduler.schedule(cost, self._finish_message, message)
        else:
            self._finish_message(message)

    def _finish_message(self, message):
        if not self.crashed:
            self.handle_message(message)
        extra = self._deferred_cost
        self._deferred_cost = 0.0
        if extra > 0:
            self.consume_cpu(extra)
        if self.inbox and not self.crashed:
            self.scheduler.schedule(extra, self._process_next)
        elif extra > 0:
            self.scheduler.schedule(extra, self._resume_after_busy)
        else:
            self._processing = False

    def _resume_after_busy(self):
        if self.crashed:
            self._processing = False
        elif self.inbox:
            self._process_next()
        else:
            self._processing = False


def replay(node_class, steps, capacity=None):
    """Run ``steps`` — ``(time, kind, data)`` — and return everything
    observable: the handler/event log and the node's final accounting."""
    sched = Scheduler()
    net = Network(sched, RngRegistry(1), jitter=0.0)
    log = []
    node = node_class("dst", sched, net, log, inbox_capacity=capacity)
    for when, kind, data in steps:
        if kind == "msg":
            sched.schedule_at(when, node.deliver, Message("src", "dst", "m", data))
        elif kind == "event":
            sched.schedule_at(
                when, lambda d=data: log.append((sched.now, "event", d))
            )
        elif kind == "crash":
            sched.schedule_at(when, node.crash)
        elif kind == "recover":
            sched.schedule_at(when, node.recover)
    sched.run()
    return (
        log, node.cpu_time, node.dropped_messages, len(node.inbox),
        node._processing, sched.now,
    )


def handled(outcome):
    return [(when, tag) for when, kind, tag in outcome[0] if kind == "handled"]


# Quarter-second grid with costs on the same grid: collisions between a
# delivery, a finish, an external event and a crash at the *same float*
# are the rule in these schedules, not the exception.
TIMES = st.integers(0, 16).map(lambda q: q * 0.25)
COSTS = st.sampled_from([0.0, 0.0, 0.25, 0.5])
ACTIONS = st.sampled_from(["none", "none", "zero_delay", "defer", "crash"])
STEPS = st.lists(
    st.one_of(
        st.tuples(TIMES, st.just("msg"),
                  st.tuples(st.integers(0, 99), COSTS, ACTIONS, COSTS)),
        st.tuples(TIMES, st.just("msg"),
                  st.tuples(st.integers(0, 99), COSTS, ACTIONS, COSTS)),
        st.tuples(TIMES, st.just("event"), st.integers(100, 199)),
        st.tuples(TIMES, st.just("crash"), st.none()),
        st.tuples(TIMES, st.just("recover"), st.none()),
    ),
    max_size=24,
)


@settings(max_examples=400, deadline=None)
@given(steps=STEPS, capacity=st.sampled_from([None, None, 1, 3]))
def test_inline_pipeline_matches_the_hand_off_pipeline(steps, capacity):
    assert replay(ScriptedNode, steps, capacity) == replay(
        HandOffNode, steps, capacity
    )


def both(steps, capacity=None):
    outcome = replay(ScriptedNode, steps, capacity)
    assert outcome == replay(HandOffNode, steps, capacity)
    return outcome


def test_two_messages_delivered_to_an_idle_node_at_the_same_instant():
    outcome = both([
        (1.0, "msg", ("a", 0.5, "none", 0.0)),
        (1.0, "msg", ("b", 0.5, "none", 0.0)),
    ])
    assert handled(outcome) == [(1.5, "a"), (2.0, "b")]


def test_zero_delay_event_from_a_handler_runs_before_the_next_message():
    outcome = both([
        (1.0, "msg", ("a", 0.0, "zero_delay", 0.0)),
        (1.0, "msg", ("b", 0.0, "none", 0.0)),
    ])
    # Second delivery finds the node busy (a's hand-off is queued), so
    # b waits in the inbox while a's handler schedules its event.
    assert [(kind, tag) for _, kind, tag in outcome[0]] == [
        ("handled", "a"), ("event", "a"), ("handled", "b"),
    ]


def test_heap_event_at_exactly_now_with_a_smaller_seq_goes_first():
    outcome = both([
        (1.0, "msg", ("a", 0.0, "none", 0.0)),
        (1.0, "event", 100),
        (1.0, "msg", ("b", 0.0, "none", 0.0)),
    ])
    assert [tag for _, _, tag in outcome[0]] == [100, "a", "b"]


def test_finish_colliding_with_a_delivery_and_an_event():
    # a finishes at 1.5, exactly when c is delivered and an external
    # event is due; b is already queued behind a.
    outcome = both([
        (1.0, "msg", ("a", 0.5, "none", 0.0)),
        (1.0, "msg", ("b", 0.25, "none", 0.0)),
        (1.5, "event", 100),
        (1.5, "msg", ("c", 0.0, "none", 0.0)),
    ])
    assert handled(outcome) == [(1.5, "a"), (1.75, "b"), (1.75, "c")]


def test_inbox_capacity_drops_while_busy():
    steps = [(1.0, "msg", (0, 1.0, "none", 0.0))]
    steps += [(1.25, "msg", (i, 1.0, "none", 0.0)) for i in range(1, 6)]
    outcome = both(steps, capacity=2)
    # One in service (taken inline on arrival), two queued, three
    # dropped — the drop check runs ahead of the inline path.
    assert [tag for _, tag in handled(outcome)] == [0, 1, 2]
    assert outcome[2] == 3


def test_crash_between_delivery_and_finish_suppresses_the_handler():
    outcome = both([
        (1.0, "msg", ("a", 1.0, "none", 0.0)),
        (1.5, "crash", None),
    ])
    assert handled(outcome) == []
    assert outcome[1] == 1.0  # the CPU time was spent before the crash


def test_crash_and_recover_before_the_finish_fires():
    outcome = both([
        (1.0, "msg", ("a", 1.0, "none", 0.0)),
        (1.0, "msg", ("b", 1.0, "none", 0.0)),
        (1.25, "crash", None),
        (1.5, "recover", None),
        (1.75, "msg", ("c", 0.5, "none", 0.0)),
    ])
    # b died with the inbox; a's finish event outlives the crash and,
    # the node being back up, still runs its handler.
    assert handled(outcome) == [(2.0, "a"), (2.25, "c")]


def test_deferred_cost_extends_the_busy_window():
    outcome = both([
        (1.0, "msg", ("a", 0.5, "defer", 0.5)),
        (1.0, "msg", ("b", 0.25, "none", 0.0)),
    ])
    assert handled(outcome) == [(1.5, "a"), (2.25, "b")]
    assert outcome[1] == 1.25


def test_deep_zero_cost_inbox_drains_without_recursion():
    steps = [(1.0, "msg", (i, 0.0, "none", 0.0)) for i in range(10_000)]
    outcome = replay(ScriptedNode, steps)
    assert [tag for _, tag in handled(outcome)] == list(range(10_000))
    assert outcome[5] == 1.0


def test_a_message_costs_two_scheduler_events():
    sched = Scheduler()
    net = Network(sched, RngRegistry(1))
    sender = SimNode("src", sched, net)
    node = ScriptedNode("dst", sched, net, [])
    for i in range(100):
        sender.send("dst", "m", (i, 0.001, "none", 0.0))
    sched.run()
    assert len(node.log) == 100
    # Network delivery + finish. Spaced arrivals would each add a
    # hand-off event in the old pipeline; a backlog added one per message.
    assert sched.events_processed == 200
