"""Tests for fault injection and the partition-attack security metric."""

import pytest

from repro.core import (
    CorruptionFault,
    CrashFault,
    DelayFault,
    Driver,
    DriverConfig,
    FaultSchedule,
    PartitionFault,
    run_partition_attack,
)
from repro.core.scenario import build_fault_schedule
from repro.errors import BenchmarkError
from repro.platforms import build_cluster
from repro.workloads import DoNothingWorkload


def test_crash_fault_fires_at_time():
    cluster = build_cluster("hyperledger", 4, seed=11)
    schedule = FaultSchedule(crashes=[CrashFault(at_time=5.0, count=1)])
    schedule.arm(cluster)
    cluster.run_until(4.9)
    assert len(cluster.alive_nodes()) == 4
    cluster.run_until(5.1)
    assert len(cluster.alive_nodes()) == 3
    assert len(schedule.crashed_node_ids) == 1
    cluster.close()


def test_delay_fault_window():
    cluster = build_cluster("ethereum", 2, seed=11)
    schedule = FaultSchedule(delays=[DelayFault(2.0, 4.0, extra_s=0.5)])
    schedule.arm(cluster)
    cluster.run_until(3.0)
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.5
    cluster.run_until(5.0)
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.0
    cluster.close()


def test_corruption_fault_window():
    cluster = build_cluster("ethereum", 2, seed=11)
    schedule = FaultSchedule(corruptions=[CorruptionFault(1.0, 3.0, rate=0.5)])
    schedule.arm(cluster)
    cluster.run_until(2.0)
    assert cluster.network.active_corruption_rate() == 0.5
    cluster.run_until(4.0)
    assert cluster.network.active_corruption_rate() == 0.0
    cluster.close()


def test_overlapping_delay_windows_end_at_own_until_time():
    """Two overlapping delays: the first ending must not clobber the
    second, and while both are active the extras stack."""
    cluster = build_cluster("ethereum", 2, seed=11)
    schedule = FaultSchedule(
        delays=[
            DelayFault(2.0, 6.0, extra_s=0.5),
            DelayFault(4.0, 10.0, extra_s=0.25),
        ]
    )
    schedule.arm(cluster)
    probe = lambda: cluster.network.active_delay_extra("server-0", "server-1")  # noqa: E731
    cluster.run_until(3.0)
    assert probe() == 0.5
    cluster.run_until(5.0)
    assert probe() == 0.75  # both windows active: extras stack
    cluster.run_until(7.0)
    assert probe() == 0.25  # first ended at 6.0; second keeps running
    cluster.run_until(11.0)
    assert probe() == 0.0  # second ended exactly at its own until_time
    cluster.close()


def test_partition_heal_does_not_end_overlapping_windows():
    """A partition healing inside delay+corruption windows leaves them
    active until their own until_times (heal() used to wipe them)."""
    cluster = build_cluster("ethereum", 4, seed=11)
    schedule = FaultSchedule(
        delays=[DelayFault(1.0, 10.0, extra_s=0.5)],
        corruptions=[CorruptionFault(1.0, 12.0, rate=0.3)],
        partitions=[PartitionFault(2.0, 5.0)],
    )
    schedule.arm(cluster)
    cluster.run_until(3.0)
    assert cluster.network.partitioned("server-0", "server-3")
    cluster.run_until(6.0)  # partition healed at 5.0
    assert not cluster.network.partitioned("server-0", "server-3")
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.5
    assert cluster.network.active_corruption_rate() == 0.3
    cluster.run_until(10.5)
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.0
    assert cluster.network.active_corruption_rate() == 0.3
    cluster.run_until(12.5)
    assert cluster.network.active_corruption_rate() == 0.0
    cluster.close()


def test_nested_corruption_and_delay_windows():
    """Corruption nested inside a delay window: each fault ends at its
    own until_time; effective corruption is the max of active rates."""
    cluster = build_cluster("ethereum", 2, seed=11)
    schedule = FaultSchedule(
        delays=[DelayFault(1.0, 20.0, extra_s=0.2)],
        corruptions=[
            CorruptionFault(2.0, 18.0, rate=0.1),
            CorruptionFault(5.0, 9.0, rate=0.6),
        ],
    )
    schedule.arm(cluster)
    cluster.run_until(3.0)
    assert cluster.network.active_corruption_rate() == 0.1
    cluster.run_until(6.0)
    assert cluster.network.active_corruption_rate() == 0.6  # max wins
    cluster.run_until(9.5)
    assert cluster.network.active_corruption_rate() == 0.1  # inner ended
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.2
    cluster.run_until(18.5)
    assert cluster.network.active_corruption_rate() == 0.0
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.2
    cluster.run_until(20.5)
    assert cluster.network.active_delay_extra("server-0", "server-1") == 0.0
    cluster.close()


def test_partition_fault_window():
    cluster = build_cluster("ethereum", 4, seed=11)
    schedule = FaultSchedule(partitions=[PartitionFault(2.0, 6.0)])
    schedule.arm(cluster)
    cluster.run_until(3.0)
    assert cluster.network.partitioned("server-0", "server-3")
    cluster.run_until(7.0)
    assert not cluster.network.partitioned("server-0", "server-3")
    cluster.close()


#: Every fault type whose entries name victims by ``count`` or ``nodes``,
#: with a valid entry of that type.
_VICTIM_FAULTS = {
    "crashes": {"at_time": 1.0},
    "delays": {"at_time": 1.0, "until_time": 2.0, "extra_s": 0.1},
    "byzantines": {"at_time": 1.0, "until_time": 2.0},
}


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        (kind, "count", count, message)
        for kind in ("crashes", "byzantines")
        for count, message in (
            (5, "5 exceeds the cluster's 4 nodes"),
            (-1, "-1 is negative"),
        )
    ]
    + [
        (kind, "nodes", ["server-0", "n9"], "unknown node 'n9'")
        for kind in _VICTIM_FAULTS
    ],
)
def test_a_fault_naming_victims_the_cluster_lacks_fails_on_arm(
    kind, field, value, message
):
    """A victim count beyond the cluster or an unknown node id is
    rejected when the schedule is armed, naming the entry's path,
    instead of arming fewer victims (or none) without a word."""
    valid = _VICTIM_FAULTS[kind]
    schedule = build_fault_schedule({kind: [valid, {**valid, field: value}]})
    cluster = build_cluster("hyperledger", 4, seed=11)
    with pytest.raises(BenchmarkError) as raised:
        schedule.arm(cluster)
    assert str(raised.value) == f"faults.{kind}[1].{field}: {message}"
    cluster.close()


@pytest.mark.parametrize("kind", ["crashes", "byzantines"])
def test_a_fault_may_name_every_node(kind):
    valid = _VICTIM_FAULTS[kind]
    cluster = build_cluster("hyperledger", 4, seed=11)
    schedule = build_fault_schedule({kind: [
        {**valid, "count": 4},
        {**valid, "nodes": cluster.node_ids()},
    ]})
    schedule.arm(cluster)
    cluster.run_until(1.5)
    victims = (
        schedule.crashed_node_ids if kind == "crashes"
        else schedule.byzantine_node_ids
    )
    assert victims == cluster.node_ids()
    cluster.close()


def test_a_zero_count_crash_from_the_tail_crashes_no_one():
    cluster = build_cluster("hyperledger", 4, seed=11)
    FaultSchedule(crashes=[
        CrashFault(at_time=1.0, count=0, include_leader=False)
    ]).arm(cluster)
    cluster.run_until(1.5)
    assert len(cluster.alive_nodes()) == 4
    cluster.close()


def test_figure9_pbft_halts_after_excess_crashes():
    """12 servers, 4 crashed: quorum 9 > 8 alive, so commits stop."""
    cluster = build_cluster("hyperledger", 12, seed=11)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=4, request_rate_tx_s=20, duration_s=40),
    )
    driver.prepare()
    FaultSchedule(crashes=[CrashFault(at_time=20.0, count=4)]).arm(cluster)
    stats = driver.run()
    late = [t for t in stats.confirm_times if t > 25.0]
    early = [t for t in stats.confirm_times if t <= 20.0]
    assert early  # it worked before the crash
    assert not late  # and halted after
    cluster.close()


@pytest.mark.slow
def test_figure10_pow_forks_pbft_does_not():
    """Partition attack: Ethereum forks, Hyperledger never does."""
    results = {}
    for platform in ("ethereum", "hyperledger"):
        cluster = build_cluster(platform, 4, seed=13)
        driver = Driver(
            cluster,
            DoNothingWorkload(),
            DriverConfig(n_clients=4, request_rate_tx_s=20, duration_s=90),
        )
        driver.prepare()
        driver.start(90.0)
        report = run_partition_attack(
            cluster,
            attack_start=20.0,
            attack_duration=40.0,
            total_duration=100.0,
            sample_interval=5.0,
        )
        results[platform] = report
        cluster.close()
    assert results["ethereum"].final_fork_blocks() > 0
    assert results["ethereum"].fork_ratio() < 1.0
    assert results["hyperledger"].final_fork_blocks() == 0
    assert results["hyperledger"].fork_ratio() == 1.0


def test_attack_report_metrics():
    from repro.core.security import AttackReport, ForkSample

    report = AttackReport(
        samples=[
            ForkSample(10.0, 10, 10),
            ForkSample(20.0, 20, 15),
            ForkSample(30.0, 30, 24),
        ]
    )
    assert report.final_fork_blocks() == 6
    assert report.fork_ratio() == 24 / 30
    assert report.peak_fork_fraction() == 5 / 20  # worst sample


def test_attack_report_empty():
    from repro.core.security import AttackReport

    report = AttackReport()
    assert report.fork_ratio() == 1.0
    assert report.final_fork_blocks() == 0
    assert report.peak_fork_fraction() == 0.0
