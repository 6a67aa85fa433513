"""Crash-recovery tests: restart, block-sync catch-up, consensus
rejoin, fault composition, and client failover.

The differential tests pin the tentpole guarantee: a node that crashes
and recovers ends with byte-identical per-height state roots to a peer
that never crashed — warm or cold, on every platform.
"""

import pytest

from repro.core import (
    ByzantineFault,
    CrashFault,
    Driver,
    DriverConfig,
    FaultSchedule,
)
from repro.core.runner import ExperimentSpec, run_experiment
from repro.core.suitestore import spec_hash
from repro.platforms import build_cluster
from repro.workloads import DoNothingWorkload, make_workload

PLATFORMS = ("hyperledger", "ethereum", "parity", "erisdb")


def _run_with_crash(platform, mode, crash_at=8.0, recover_at=12.0,
                    duration=20.0):
    cluster = build_cluster(platform, 4, seed=17)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=duration),
    )
    driver.prepare()
    FaultSchedule(
        crashes=[
            CrashFault(
                at_time=crash_at,
                count=1,
                include_leader=False,
                recover_at=recover_at,
                recovery_mode=mode,
            )
        ]
    ).arm(cluster)
    driver.run()
    return cluster


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("mode", ["warm", "cold"])
def test_recovered_roots_match_uninterrupted_peer(platform, mode, height_roots):
    """Catch-up replays through the normal execution path, so the
    recovered node's roots are indistinguishable from never crashing."""
    cluster = _run_with_crash(platform, mode)
    recovered = cluster.nodes[-1]
    witness = cluster.nodes[1]  # never crashed, never the leader
    roots = height_roots(cluster)
    assert recovered.recovery_times, "recovery never completed"
    assert not recovered._recovering
    common = min(recovered.executed_height, witness.executed_height)
    assert common > 0
    for height in range(1, common + 1):
        assert (
            roots[-1][height] == roots[1][height]
        ), f"{platform}/{mode}: state root diverges at height {height}"
        assert (
            recovered.executed_block_hashes[height]
            == witness.executed_block_hashes[height]
        ), f"{platform}/{mode}: block hash diverges at height {height}"
    report = cluster.auditor.report()
    assert report.safe, report.to_json()
    assert recovered.node_id in report.recovered_nodes
    cluster.close()


def test_cold_recovery_syncs_and_counts_traffic():
    cluster = _run_with_crash("hyperledger", "cold")
    recovered = cluster.nodes[-1]
    assert recovered.sync_requests_sent > 0
    assert recovered.sync_bytes_received > 0
    traffic = cluster.sync_traffic()
    assert traffic["requests"] >= recovered.sync_requests_sent
    assert cluster.recovery_times()[recovered.node_id] > 0.0
    cluster.close()


def test_pbft_primary_crash_view_change_and_rejoin():
    """Crashing the view-0 primary forces a view change; the restarted
    primary learns the current view from sync peers and rejoins it."""
    cluster = build_cluster("hyperledger", 4, seed=23)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=30),
    )
    driver.prepare()
    FaultSchedule(
        crashes=[
            CrashFault(at_time=5.0, count=1, recover_at=12.0)
        ]
    ).arm(cluster)
    driver.run()
    primary = cluster.nodes[0]
    assert primary.recovery_times
    view_changes = sum(
        getattr(n.protocol, "view_changes_started", 0) for n in cluster.nodes
    )
    assert view_changes > 0
    views = {n.protocol.view for n in cluster.nodes}
    assert len(views) == 1, f"views did not converge: {views}"
    assert cluster.auditor.report().safe
    cluster.close()


# ---------------------------------------------------------------------------
# Fault composition
# ---------------------------------------------------------------------------
def test_crash_during_byzantine_window_does_not_resurrect_filter():
    """A byzantine node that crashes and restarts comes back honest:
    the send filter dies with the process, the taint does not."""
    cluster = build_cluster("hyperledger", 4, seed=31)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=2, request_rate_tx_s=20, duration_s=16),
    )
    driver.prepare()
    FaultSchedule(
        byzantines=[
            ByzantineFault(
                at_time=2.0, until_time=10.0, nodes=["server-0"]
            )
        ],
        crashes=[
            CrashFault(at_time=4.0, nodes=["server-0"], recover_at=6.0)
        ],
    ).arm(cluster)
    driver.run()
    assert "server-0" not in cluster.network._send_filters
    assert "server-0" in cluster.network.ever_byzantine
    assert cluster.nodes[0].recovery_times
    cluster.close()


def test_crash_inside_partition_syncs_only_after_heal():
    """A node recovering while partitioned away retries until heal():
    its sync requests are dropped in transit, not failed over."""
    cluster = build_cluster("hyperledger", 4, seed=37)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=2, request_rate_tx_s=20, duration_s=25),
    )
    driver.prepare()
    victim = cluster.nodes[-1]
    others = [n.node_id for n in cluster.nodes[:-1]]
    scheduler = cluster.scheduler
    scheduler.schedule_at(
        2.0, cluster.network.partition, [[victim.node_id], others]
    )
    scheduler.schedule_at(3.0, victim.crash)
    scheduler.schedule_at(5.0, victim.recover, "warm")
    driver.start(25.0)
    cluster.run_until(12.0)
    assert victim._recovering, "synced across an active partition"
    assert victim.sync_requests_sent > 1  # retry loop kept rotating
    cluster.network.heal()
    cluster.run_until(25.0)
    assert not victim._recovering
    assert victim.recovery_times
    # Caught up to the honest tip it could see at finish time.
    assert victim.executed_height > 0
    assert cluster.auditor.report().safe
    cluster.close()


def test_back_to_back_crash_recover_cycles():
    """Two full crash/recover cycles on the same node: each records its
    own recovery time and the node still converges."""
    cluster = build_cluster("hyperledger", 4, seed=41)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=24),
    )
    driver.prepare()
    FaultSchedule(
        crashes=[
            CrashFault(at_time=3.0, nodes=["server-3"], recover_at=7.0),
            CrashFault(at_time=11.0, nodes=["server-3"], recover_at=15.0),
        ]
    ).arm(cluster)
    driver.run()
    node = cluster.nodes[-1]
    assert len(node.recovery_times) == 2
    assert cluster.recovery_times()["server-3"] == node.recovery_times[-1]
    report = cluster.auditor.report()
    assert report.safe, report.to_json()
    cluster.close()


# ---------------------------------------------------------------------------
# Client failover
# ---------------------------------------------------------------------------
def test_failover_completes_workload_through_crash():
    """A client whose server crashes fails over and finishes the run
    with zero lost transactions (no stuck backlog)."""
    result = run_experiment(
        ExperimentSpec(
            platform="hyperledger",
            workload="donothing",
            n_servers=4,
            n_clients=4,
            request_rate_tx_s=40,
            duration_s=30,
            seed=7,
            failover=True,
            faults=FaultSchedule(
                crashes=[
                    CrashFault(at_time=5.0, count=1, recover_at=15.0)
                ]
            ),
        )
    )
    summary = result.summary
    assert summary.confirmed > 0
    # Zero lost transactions: every submission was either confirmed or
    # explicitly rejected-and-retried; nothing vanished with the crash.
    assert summary.submitted - summary.rejected - summary.confirmed == 0
    assert summary.recovery_time_s
    assert summary.safety_violations == 0


def test_failover_timeline_is_deterministic():
    """Two runs of one failover spec walk the identical timeline: same
    submissions, confirmations, and throughput."""
    outcomes = set()
    for _ in range(2):
        result = run_experiment(
            ExperimentSpec(
                platform="hyperledger",
                workload="donothing",
                n_servers=4,
                n_clients=2,
                request_rate_tx_s=30,
                duration_s=20,
                seed=7,
                failover=True,
                faults=FaultSchedule(
                    crashes=[
                        CrashFault(at_time=5.0, count=1, recover_at=12.0)
                    ]
                ),
            )
        )
        outcomes.add(
            (
                result.summary.submitted,
                result.summary.confirmed,
                round(result.summary.throughput_tx_s, 9),
            )
        )
    assert len(outcomes) == 1, outcomes


def test_failover_off_keeps_runs_byte_identical():
    """The failover machinery is inert unless asked for: a faultless
    run with the knob at its default matches the pre-knob timeline."""
    base = run_experiment(
        ExperimentSpec(
            platform="ethereum", workload="donothing", n_servers=4,
            n_clients=2, request_rate_tx_s=20, duration_s=10, seed=5,
        )
    )
    again = run_experiment(
        ExperimentSpec(
            platform="ethereum", workload="donothing", n_servers=4,
            n_clients=2, request_rate_tx_s=20, duration_s=10, seed=5,
        )
    )
    assert base.summary == again.summary
    assert base.summary.recovery_time_s == {}
    assert base.summary.sync_bytes == 0


# ---------------------------------------------------------------------------
# Spec-hash stability
# ---------------------------------------------------------------------------
def test_old_style_crash_spec_hash_is_stable():
    """Specs written before the recovery knobs existed keep their
    content hash, so resumable suite stores stay addressable."""
    spec = ExperimentSpec(
        platform="hyperledger",
        workload="ycsb",
        n_servers=4,
        n_clients=2,
        duration_s=20.0,
        faults=FaultSchedule(crashes=[CrashFault(at_time=10.0, count=1)]),
    )
    # Frozen values computed at the commit before the recovery knobs.
    assert spec_hash(spec) == "a492163c7e8636a2"
    assert spec_hash(ExperimentSpec()) == "9f9e36779f700672"


def test_recovery_knobs_change_the_spec_hash():
    def crash_spec(**kwargs):
        return ExperimentSpec(
            faults=FaultSchedule(crashes=[CrashFault(at_time=10.0, **kwargs)])
        )

    plain = spec_hash(crash_spec(count=1))
    assert spec_hash(crash_spec(count=1, recover_at=20.0)) != plain
    assert (
        spec_hash(
            crash_spec(count=1, recover_at=20.0, recovery_mode="cold")
        )
        != spec_hash(crash_spec(count=1, recover_at=20.0))
    )
    assert spec_hash(crash_spec(nodes=["server-2"])) != plain
    failover = ExperimentSpec(failover=True)
    assert spec_hash(failover) != spec_hash(ExperimentSpec())


def test_crash_nodes_knob_targets_exactly_those_nodes():
    cluster = build_cluster("ethereum", 4, seed=3)
    schedule = FaultSchedule(
        crashes=[CrashFault(at_time=1.0, nodes=["server-1", "server-2"])]
    )
    schedule.arm(cluster)
    cluster.run_until(2.0)
    crashed = {n.node_id for n in cluster.nodes if n.crashed}
    assert crashed == {"server-1", "server-2"}
    assert sorted(schedule.crashed_node_ids) == ["server-1", "server-2"]
    cluster.close()


def test_recover_before_crash_is_rejected():
    from repro.errors import BenchmarkError

    cluster = build_cluster("ethereum", 2, seed=3)
    schedule = FaultSchedule(
        crashes=[CrashFault(at_time=5.0, count=1, recover_at=4.0)]
    )
    with pytest.raises(BenchmarkError):
        schedule.arm(cluster)
    bad_mode = FaultSchedule(
        crashes=[CrashFault(at_time=5.0, count=1, recovery_mode="tepid")]
    )
    with pytest.raises(BenchmarkError):
        bad_mode.arm(cluster)
    cluster.close()
