"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim import NEVER, Scheduler


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


def test_cancelled_events_do_not_fire():
    sched = Scheduler()
    fired = []
    event = sched.timer(1.0, fired.append, "x")
    sched.schedule(2.0, fired.append, "y")
    event.cancel()
    sched.run()
    assert fired == ["y"]


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


def test_peek_time_empty_queue():
    sched = Scheduler()
    assert sched.peek_time() == NEVER


def test_peek_time_skips_cancelled():
    sched = Scheduler()
    event = sched.timer(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    assert sched.peek_time() == 2.0


def test_pending_counts_live_events():
    sched = Scheduler()
    e1 = sched.timer(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    assert sched.pending() == 2
    e1.cancel()
    assert sched.pending() == 1


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


def test_pending_counter_tracks_schedule_fire_cancel():
    sched = Scheduler()
    events = [sched.timer(float(i + 1), lambda: None) for i in range(4)]
    assert sched.pending() == 4
    events[0].cancel()
    assert sched.pending() == 3
    sched.step()  # fires the event at t=2 (t=1 was cancelled)
    assert sched.pending() == 2
    sched.run()
    assert sched.pending() == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    sched = Scheduler()
    fired = sched.timer(1.0, lambda: None)
    keeper = sched.timer(2.0, lambda: None)
    sched.step()
    assert sched.pending() == 1
    fired.cancel()  # no-op: already fired
    fired.cancel()
    assert sched.pending() == 1
    keeper.cancel()
    assert sched.pending() == 0


def test_double_cancel_decrements_once():
    sched = Scheduler()
    event = sched.timer(1.0, lambda: None)
    sched.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sched.pending() == 1


def test_mass_cancellation_compacts_heap_and_keeps_order():
    sched = Scheduler()
    fired = []
    keepers = []
    for i in range(500):
        event = sched.timer(float(i), fired.append, i)
        if i % 10 == 0:
            keepers.append(i)
        else:
            event.cancel()
    # Lazy compaction kicked in: tombstones no longer dominate the heap.
    assert sched.pending() == len(keepers)
    assert len(sched._queue) < 500
    sched.run()
    assert fired == keepers
    assert sched.pending() == 0


def _cancel_most_of_the_heap_mid_run(drive):
    """Schedule 200 far events; at t=1 cancel them all (forcing a
    compaction while the dispatch loop is running) and schedule one
    more. The late event must still fire and pending() must be exact."""
    sched = Scheduler()
    fired = []
    doomed = [sched.timer(10.0 + i, fired.append, i) for i in range(200)]

    def cancel_and_reschedule():
        for event in doomed:
            event.cancel()
        sched.schedule(1.0, fired.append, "late")
        sched.schedule(0.0, fired.append, "same-instant")

    sched.schedule(1.0, cancel_and_reschedule)
    drive(sched)
    assert fired == ["same-instant", "late"]
    assert sched.pending() == 0


def test_compaction_during_run_until_keeps_later_events():
    _cancel_most_of_the_heap_mid_run(lambda sched: sched.run_until(5.0))


def test_compaction_during_run_keeps_later_events():
    _cancel_most_of_the_heap_mid_run(lambda sched: sched.run())


def test_compaction_during_step_keeps_later_events():
    def drive(sched):
        while sched.step():
            pass

    _cancel_most_of_the_heap_mid_run(drive)


def test_compaction_purges_cancelled_run_queue_entries_in_place():
    sched = Scheduler()
    fired = []

    def burst():
        events = [sched.timer(0.0, fired.append, i) for i in range(200)]
        for event in events[:150]:
            event.cancel()

    sched.schedule(1.0, burst)
    sched.run_until(2.0)
    assert fired == list(range(150, 200))
    assert sched.pending() == 0


def test_idle_now_tracks_run_queue_and_heap_head():
    sched = Scheduler()
    assert sched.idle_now()
    later = sched.timer(1.0, lambda: None)
    assert sched.idle_now()  # heap head strictly later than now
    sched.schedule(0.0, lambda: None)
    assert not sched.idle_now()  # run queue non-empty
    sched.run_until(0.5)
    assert sched.idle_now()
    later.cancel()
    assert sched.idle_now()


def test_idle_now_counts_a_cancelled_head_at_now_as_busy():
    """Falling back to scheduling is always safe; looking past
    tombstones would not be O(1)."""
    sched = Scheduler()
    seen = []

    def first():
        second.cancel()
        seen.append(sched.idle_now())

    sched.schedule(1.0, first)
    second = sched.timer(1.0, seen.append, "never")
    sched.run()
    assert seen == [False]


def test_idle_now_false_for_heap_event_at_the_current_instant():
    sched = Scheduler()
    seen = []
    sched.schedule(1.0, lambda: seen.append(sched.idle_now()))
    sched.schedule(1.0, lambda: seen.append(sched.idle_now()))
    sched.run()
    assert seen == [False, True]
