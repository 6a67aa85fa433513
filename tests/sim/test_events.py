"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim import Scheduler


def test_events_fire_in_time_order():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "c")
    sched.schedule(1.0, fired.append, "a")
    sched.schedule(2.0, fired.append, "b")
    sched.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sched = Scheduler()
    fired = []
    for name in "abcde":
        sched.schedule(1.0, fired.append, name)
    sched.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sched = Scheduler()
    seen = []
    sched.schedule(2.5, lambda: seen.append(sched.now))
    sched.run()
    assert seen == [2.5]
    assert sched.now == 2.5


def test_run_until_stops_at_deadline_and_advances_clock():
    sched = Scheduler()
    fired = []
    sched.schedule(1.0, fired.append, "early")
    sched.schedule(5.0, fired.append, "late")
    sched.run_until(3.0)
    assert fired == ["early"]
    assert sched.now == 3.0
    sched.run_until(10.0)
    assert fired == ["early", "late"]


def test_run_until_includes_events_exactly_at_deadline():
    sched = Scheduler()
    fired = []
    sched.schedule(3.0, fired.append, "edge")
    sched.run_until(3.0)
    assert fired == ["edge"]


def test_nested_scheduling_during_execution():
    sched = Scheduler()
    fired = []

    def outer():
        fired.append("outer")
        sched.schedule(1.0, fired.append, "inner")

    sched.schedule(1.0, outer)
    sched.run()
    assert fired == ["outer", "inner"]
    assert sched.now == 2.0


def test_negative_delay_rejected():
    sched = Scheduler()
    with pytest.raises(SimulationError):
        sched.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sched = Scheduler()
    sched.schedule(5.0, lambda: None)
    sched.run()
    with pytest.raises(SimulationError):
        sched.schedule_at(1.0, lambda: None)


def test_run_until_backwards_rejected():
    sched = Scheduler()
    sched.run_until(5.0)
    with pytest.raises(SimulationError):
        sched.run_until(1.0)


def test_pending_counts_live_events():
    sched = Scheduler()
    sched.schedule(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    sched.schedule(0.0, lambda: None)  # the run queue counts too
    assert sched.pending() == 3
    sched.step()
    assert sched.pending() == 2
    sched.run()
    assert sched.pending() == 0


def test_run_max_events():
    sched = Scheduler()
    fired = []
    for i in range(10):
        sched.schedule(float(i + 1), fired.append, i)
    sched.run(max_events=3)
    assert fired == [0, 1, 2]


def test_events_processed_counter():
    sched = Scheduler()
    for i in range(5):
        sched.schedule(float(i), lambda: None)
    sched.run()
    assert sched.events_processed == 5


def test_idle_now_tracks_run_queue_and_heap_head():
    sched = Scheduler()
    assert sched.idle_now()
    sched.schedule(1.0, lambda: None)
    assert sched.idle_now()  # heap head strictly later than now
    sched.schedule(0.0, lambda: None)
    assert not sched.idle_now()  # run queue non-empty
    sched.run_until(0.5)
    assert sched.idle_now()
    sched.run_until(1.0)
    assert sched.idle_now()  # drained


def test_idle_now_counts_a_stale_timer_at_now_as_busy():
    """A timer whose callback will find itself outdated is still an
    entry: idle_now does not look inside callbacks, and falling back to
    scheduling is always safe."""
    sched = Scheduler()
    serial = [0]
    seen = []

    def timer(armed_serial):
        if armed_serial == serial[0]:
            seen.append("fired")

    def first():
        serial[0] += 1  # outdates the timer queued behind us
        seen.append(sched.idle_now())

    sched.schedule(1.0, first)
    sched.schedule(1.0, timer, 0)
    sched.run()
    assert seen == [False]
    assert sched.events_processed == 2  # dispatched, as a no-op


def test_idle_now_false_for_heap_event_at_the_current_instant():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: seen.append(sched.idle_now()))
    sched.schedule(1.0, lambda: seen.append(sched.idle_now()))
    sched.run()
    assert seen == [False, True]
