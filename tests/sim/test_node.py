"""Unit tests for SimNode: serial processing, bounded inbox, timers."""

from repro.sim import Network, RngRegistry, Scheduler, SimNode


class CostlyNode(SimNode):
    """Node whose message handling costs fixed CPU time."""

    def __init__(self, node_id, scheduler, network, cost=0.1, **kwargs):
        super().__init__(node_id, scheduler, network, **kwargs)
        self.cost = cost
        self.handled = []

    def message_cost(self, message):
        return self.cost

    def handle_message(self, message):
        self.handled.append((self.scheduler.now, message.payload))


def build(cost=0.1, capacity=None):
    sched = Scheduler()
    net = Network(sched, RngRegistry(1), jitter=0.0)
    sender = SimNode("src", sched, net)
    node = CostlyNode("dst", sched, net, cost=cost, inbox_capacity=capacity)
    return sched, net, sender, node


def test_messages_processed_serially():
    sched, net, sender, node = build(cost=1.0)
    for i in range(3):
        sender.send("dst", "m", i)
    sched.run()
    times = [t for t, _ in node.handled]
    assert len(times) == 3
    # Each message occupies the CPU for 1s, so completions are >= 1s apart.
    assert times[1] - times[0] >= 1.0
    assert times[2] - times[1] >= 1.0


def test_cpu_time_accounted():
    sched, net, sender, node = build(cost=0.5)
    for i in range(4):
        sender.send("dst", "m", i)
    sched.run()
    assert abs(node.cpu_time - 2.0) < 1e-9


def test_bounded_inbox_drops_overflow():
    sched, net, sender, node = build(cost=10.0, capacity=2)
    for i in range(10):
        sender.send("dst", "m", i)
    sched.run_until(5.0)
    # One message is in processing, two are queued; the rest were dropped.
    assert node.dropped_messages > 0
    assert node.dropped_messages >= 10 - 3 - 1


def test_unbounded_inbox_never_drops():
    sched, net, sender, node = build(cost=10.0, capacity=None)
    for i in range(50):
        sender.send("dst", "m", i)
    sched.run_until(1.0)
    assert node.dropped_messages == 0


def test_zero_cost_messages_processed_same_tick():
    sched, net, sender, node = build(cost=0.0)
    sender.send("dst", "m", "fast")
    sched.run()
    assert node.handled[0][1] == "fast"


def test_crash_stops_processing_and_clears_inbox():
    sched, net, sender, node = build(cost=1.0)
    for i in range(5):
        sender.send("dst", "m", i)
    sched.run_until(0.5)  # first message mid-processing
    node.crash()
    sched.run()
    assert node.handled == []
    assert len(node.inbox) == 0


def test_crashed_node_does_not_send():
    sched, net, sender, node = build()
    node.crash()
    node.send("src", "m", "x")
    sched.run()
    assert net.stats.messages_sent == 0


def test_timer_fires():
    sched, net, sender, node = build()
    fired = []
    node.set_timer(2.0, fired.append, "tick")
    sched.run()
    assert fired == ["tick"]


def test_timer_suppressed_after_crash():
    sched, net, sender, node = build()
    fired = []
    node.set_timer(2.0, fired.append, "tick")
    node.crash()
    sched.run()
    assert fired == []


def test_crash_discards_deferred_cost():
    """Deferred work pending at crash time dies with the process: the
    first post-recovery message must not be charged for it.

    ``defer_cost`` called outside a message handler (a timer callback
    discovering work, e.g. replay) parks cost until the next message
    drain — a crash in that window must drop it."""
    sched, net, sender, node = build(cost=0.0)
    node.defer_cost(10.0)  # timer-context work, not yet drained
    node.crash()
    assert node._deferred_cost == 0.0
    node.recover()
    sender.send("dst", "m", "after")
    sched.run()
    assert node.handled[-1][1] == "after"
    # The post-recovery message was processed without inheriting the
    # pre-crash 10s busy window.
    assert sched.now < 10.0
    assert node.cpu_time == 0.0


def test_recover_allows_new_work():
    sched, net, sender, node = build(cost=0.0)
    node.crash()
    node.recover()
    sender.send("dst", "m", "after")
    sched.run()
    assert node.handled[0][1] == "after"


def test_crash_cancels_exactly_the_pending_timers():
    sched, net, sender, node = build()
    fired = []
    for i in range(10):
        node.set_timer(1.0 + i, fired.append, i)
    sched.run_until(4.5)  # four fired, six pending
    node.crash()
    node.recover()
    sched.run()
    assert fired == [0, 1, 2, 3]  # none of the six survives the restart


def test_a_timer_armed_before_a_crash_stays_dead_after_recover():
    """Due after recover(), where a check of ``crashed`` alone would let
    it run: the crash epoch it carries is what keeps it dead."""
    sched, net, sender, node = build()
    fired = []
    node.set_timer(2.0, fired.append, "armed before the crash")
    sched.run_until(0.5)
    node.crash()
    sched.run_until(1.0)
    node.recover()
    node.set_timer(2.0, fired.append, "armed after recover")
    sched.run()
    assert fired == ["armed after recover"]
    assert sched.now == 3.0


def test_set_timer_at_hits_the_absolute_instant():
    sched, net, sender, node = build()
    sched.run_until(0.3)
    when = 0.9
    assert sched.now + (when - sched.now) != when  # why a delay won't do
    fired = []
    node.set_timer_at(when, lambda: fired.append(sched.now))
    sched.run()
    assert fired == [when]


def test_set_timer_at_is_suppressed_after_crash():
    sched, net, sender, node = build()
    fired = []
    node.set_timer_at(2.0, fired.append, "tick")
    node.crash()
    sched.run()
    assert fired == []
