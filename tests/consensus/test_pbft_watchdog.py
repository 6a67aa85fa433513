"""PBFT's no-progress watchdog: one lazily re-armed timer per replica.

Arming only moves ``_progress_deadline``; a single timer chases it and,
when it fires early, re-arms at the *absolute* deadline. The observable
contract is unchanged from the timer-per-arm implementation: the check
body runs at exactly ``last arm + view_timeout``. The pinned values at
the bottom were captured on the commit before the change.

The crashed-primary pin was recaptured once, when the PBFT log stopped
holding executed sequences: a deliberate model change. The recovered
``server-0`` used to start a view change at 11.252835764186376 s for
entries it had caught up on by sync and never marked; the run's JSON
differs from the old capture only in ``view_changes`` (7 -> 6).
"""

import hashlib
import json

import pytest

from repro.consensus import PBFT, PBFTConfig
from repro.core import (
    CrashFault,
    Driver,
    DriverConfig,
    ExperimentSpec,
    FaultSchedule,
    run_experiment,
)
from repro.core.scenario import build_fault_schedule
from repro.core.suitestore import result_to_dict
from repro.platforms import build_cluster as build_platform_cluster
from repro.workloads import make_workload

from .harness import build_cluster, make_tx, queued_timers, submit_everywhere

# The request-timeout watchdog is parked far away so that only the
# no-progress watchdog can start a view change in the harness tests.
FAST = PBFTConfig(
    batch_size=10, batch_interval=0.1, view_timeout=2.0, request_timeout=60.0
)


def pbft_factory(node, all_ids):
    return PBFT(node, FAST, replicas=all_ids)


def live_watchdogs(node):
    """Queued timers of ``node`` that will run its progress check: the
    node's current crash epoch and the protocol's current serial."""
    protocol = node.protocol
    return [
        when for when, fn, args in queued_timers(node)
        if fn == protocol._progress_check and args == (protocol._progress_serial,)
    ]


def record_view_changes(monkeypatch):
    """Log ``(instant, replica, new_view)`` for every view change started."""
    started = []
    original = PBFT._start_view_change

    def recording(self, new_view):
        if self._running:
            started.append((self.host.now, self.host.node_id, new_view))
        original(self, new_view)

    monkeypatch.setattr(PBFT, "_start_view_change", recording)
    return started


def test_at_most_one_live_watchdog_per_replica_under_a_tx_flood():
    sched, net, nodes = build_cluster(4, pbft_factory)
    worst = {"watchdogs": 0, "pending": 0}

    def sample():
        for node in nodes:
            worst["watchdogs"] = max(worst["watchdogs"], len(live_watchdogs(node)))
        worst["pending"] = max(worst["pending"], sched.pending())

    # 2,000 transactions admitted on every replica over four seconds:
    # 8,000 watchdog arms, each of which used to park its own event in
    # the heap for view_timeout.
    for i in range(2000):
        sched.schedule_at(i * 0.002, submit_everywhere, nodes, [make_tx(i)])
    for i in range(100):
        sched.schedule_at(i * 0.05 + 0.001, sample)
    sched.run_until(6.0)
    assert worst["watchdogs"] == 1
    # In-flight messages, four batch ticks, four watchdogs, the not yet
    # submitted transactions — not thousands of dead timers on top.
    assert worst["pending"] < 2000 + 400
    assert all(node.chain().height > 0 for node in nodes)
    assert all(node.protocol.view_changes_started == 0 for node in nodes)


def test_watchdog_fires_at_exactly_last_arm_plus_view_timeout(monkeypatch):
    started = record_view_changes(monkeypatch)
    sched, net, nodes = build_cluster(4, pbft_factory)
    leader = next(n for n in nodes if n.protocol.is_leader())
    follower = next(n for n in nodes if n is not leader)
    leader.crash()
    # Arms at awkward instants; the last one decides. 0.3 + 2.0 is the
    # deadline float, and no chain of now + (deadline - now) re-arms may
    # land next to it instead of on it.
    for when in (0.1, 0.2, 0.3):
        sched.schedule_at(when, follower.submit_tx, make_tx(int(when * 10)))
    sched.run_until(2.2)
    assert started == []  # the timers for 0.1 and 0.2 found a later deadline
    sched.run_until(2.4)
    assert started == [(0.3 + 2.0, follower.node_id, 1)]


def test_an_admitted_tx_moves_the_deadline_without_scanning_for_work(monkeypatch):
    """The mempool has just grown, so that arm site skips ``_has_work``
    (a call per admitted transaction); every other site still asks."""
    scans = []
    has_work = PBFT._has_work
    monkeypatch.setattr(
        PBFT, "_has_work", lambda self: scans.append(self.host.now) or has_work(self)
    )
    sched, net, nodes = build_cluster(4, pbft_factory)
    node = nodes[1]
    for i, when in enumerate((0.01, 0.02, 0.03)):
        sched.schedule_at(when, node.submit_tx, make_tx(i))
    sched.run_until(0.05)  # before the first batch tick
    assert scans == []
    assert node.protocol._progress_deadline == 0.03 + 2.0
    assert len(live_watchdogs(node)) == 1
    node.protocol.stop()
    node.submit_tx(make_tx(9))
    assert node.protocol._progress_deadline == 0.03 + 2.0  # stopped: not armed
    node.protocol.start()
    submit_everywhere(nodes, [make_tx(20)])
    assert scans == []
    sched.run_until(0.5)
    assert scans  # proposing and committing arm through the scan


def test_watchdog_stands_down_without_work():
    sched, net, nodes = build_cluster(4, pbft_factory)
    submit_everywhere(nodes, [make_tx(i) for i in range(10)])
    sched.run_until(10.0)
    assert all(node.chain().height == 1 for node in nodes)
    assert all(node.protocol.view_changes_started == 0 for node in nodes)
    assert all(live_watchdogs(node) == [] for node in nodes)


def test_restart_rearms_the_watchdog(monkeypatch):
    started = record_view_changes(monkeypatch)
    sched, net, nodes = build_cluster(4, pbft_factory)
    node = nodes[3]
    submit_everywhere(nodes, [make_tx(i) for i in range(10)])
    sched.run_until(1.0)
    node.submit_tx(make_tx(50))
    assert len(live_watchdogs(node)) == 1
    node.crash()
    assert live_watchdogs(node) == []
    sched.run_until(2.5)
    # Back up, cut off from everyone, one transaction still pending:
    # only its own watchdog can make it suspect the primary.
    net.partition([[node.node_id], [n.node_id for n in nodes[:3]]])
    node.recover()
    node.protocol.restart(node.chain().height)
    assert len(live_watchdogs(node)) == 1
    sched.run_until(5.0)
    assert started == [(2.5 + 2.0, node.node_id, 1)]


def test_stop_and_restart_without_a_crash_leave_one_watchdog():
    """stop() outdates the queued watchdog even though the node never
    crashed (its epoch stands), and restart() arms exactly one."""
    sched, net, nodes = build_cluster(4, pbft_factory)
    node = nodes[3]
    submit_everywhere(nodes, [make_tx(i) for i in range(10)])
    sched.run_until(1.0)
    node.submit_tx(make_tx(50))
    assert len(live_watchdogs(node)) == 1
    node.protocol.stop()
    assert live_watchdogs(node) == []
    node.protocol.restart(node.chain().height)
    assert len(live_watchdogs(node)) == 1
    node.protocol.stop()
    node.protocol.restart(node.chain().height)
    assert len(live_watchdogs(node)) == 1
    for _ in range(40):
        sched.run_until(sched.now + 0.25)
        assert len(live_watchdogs(node)) <= 1


@pytest.mark.parametrize("mode", ["warm", "cold"])
def test_one_watchdog_per_replica_through_a_crash_cycle(mode):
    cluster = build_platform_cluster("hyperledger", 4, seed=29)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=60, duration_s=12),
    )
    driver.prepare()
    FaultSchedule(crashes=[
        CrashFault(at_time=3.0, nodes=["server-3"], recover_at=6.0,
                   recovery_mode=mode),
    ]).arm(cluster)
    victim = cluster.nodes[3]
    counts = []

    def sample():
        counts.append((
            cluster.scheduler.now,
            [len(live_watchdogs(node)) for node in cluster.nodes],
        ))

    for i in range(1, 120):
        cluster.scheduler.schedule_at(i * 0.1 + 0.003, sample)
    driver.run()
    assert victim.recovery_times
    assert all(max(per_node) <= 1 for _, per_node in counts)
    down = [per_node[3] for when, per_node in counts if 3.0 < when < 6.0]
    assert set(down) == {0}  # the crash outdated it
    rejoined = victim.recovery_times[0] + 6.0
    after = [per_node[3] for when, per_node in counts if rejoined + 0.5 < when < 11]
    assert after and max(after) == 1  # restart() re-armed it
    assert cluster.auditor.report().safe
    cluster.close()


# ----------------------------------------------------------------------
# Pinned against the timer-per-arm implementation
# ----------------------------------------------------------------------
def _run(monkeypatch, **kwargs):
    started = record_view_changes(monkeypatch)
    kwargs["faults"] = build_fault_schedule(kwargs["faults"])
    result = run_experiment(ExperimentSpec(
        platform="hyperledger", workload="ycsb", seed=7, **kwargs
    ))
    canonical = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return result, started, hashlib.sha256(canonical.encode()).hexdigest()


def test_silenced_primary_view_change_instants_are_pinned(monkeypatch):
    result, started, digest = _run(
        monkeypatch, n_servers=4, n_clients=4, request_rate_tx_s=40,
        duration_s=10,
        faults={"byzantines": [{"at_time": 2.0, "until_time": 8.0,
                                "count": 1, "behavior": "silent"}]},
    )
    assert [(repr(when), who, view) for when, who, view in started] == (
        SILENT_PRIMARY_VIEW_CHANGES
    )
    assert result.view_changes == len(SILENT_PRIMARY_VIEW_CHANGES)
    assert digest == SILENT_PRIMARY_DIGEST


def test_crashed_primary_recovery_is_pinned(monkeypatch):
    result, started, digest = _run(
        monkeypatch, n_servers=7, n_clients=8, request_rate_tx_s=100,
        failover=True, duration_s=8,
        faults={"crashes": [{"at_time": 1.5, "count": 1, "recover_at": 5.0,
                             "recovery_mode": "cold"}]},
    )
    assert [(repr(when), who, view) for when, who, view in started] == (
        CRASHED_PRIMARY_VIEW_CHANGES
    )
    assert result.view_changes == len(CRASHED_PRIMARY_VIEW_CHANGES)
    assert {
        node: repr(seconds)
        for node, seconds in result.summary.recovery_time_s.items()
    } == CRASHED_PRIMARY_RECOVERY_TIME_S
    assert digest == CRASHED_PRIMARY_DIGEST


SILENT_PRIMARY_VIEW_CHANGES = [
    ("4.5", "server-0", 1),
    ("4.5", "server-1", 1),
    ("4.5", "server-2", 1),
    ("4.5", "server-3", 1),
    ("4.75", "server-1", 2),
    ("4.75", "server-2", 2),
    ("4.75", "server-3", 2),
    ("4.751324362068377", "server-0", 2),
    ("5.0", "server-1", 3),
    ("5.0", "server-2", 3),
    ("5.0", "server-3", 3),
    ("5.000935081540017", "server-0", 3),
    ("5.25", "server-1", 4),
    ("5.25", "server-2", 4),
    ("5.25", "server-3", 4),
    ("5.251392749478017", "server-0", 4),
    ("7.25", "server-0", 5),
    ("7.75", "server-1", 5),
    ("7.75", "server-2", 5),
    ("7.75", "server-3", 5),
    ("8.0", "server-0", 6),
    ("8.0", "server-1", 6),
    ("8.0", "server-2", 6),
    ("8.0", "server-3", 6),
    ("8.25", "server-0", 7),
    ("10.75", "server-0", 8),
    ("14.25", "server-0", 9),
]
SILENT_PRIMARY_DIGEST = (
    "1406305bc625e4f85e2c5a63a5ac14ef598cab9dc8af7376c76c2209d27c0ee8"
)
CRASHED_PRIMARY_VIEW_CHANGES = [
    ("4.25", "server-1", 1),
    ("4.25", "server-2", 1),
    ("4.25", "server-3", 1),
    ("4.25", "server-4", 1),
    ("4.25", "server-5", 1),
    ("4.25", "server-6", 1),
]
CRASHED_PRIMARY_RECOVERY_TIME_S = {"server-0": "0.7726742867803464"}
CRASHED_PRIMARY_DIGEST = (
    "310f0b215803f115bae3dfe97528ac6c28f165341775cf636491e21b76e47454"
)
