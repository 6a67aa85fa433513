"""Integration tests for the ErisDB platform and its pub/sub feed."""

import pytest

from repro.config import erisdb_config
from repro.consensus.tendermint import Tendermint
from repro.core import Driver, DriverConfig
from repro.core.connector import RPCClient, SimChainConnector
from repro.errors import ConnectorError
from repro.platforms import build_cluster
from repro.platforms.triestate import TrieState
from repro.workloads import YCSBConfig, YCSBWorkload


def collect_blocks(cluster, subscription) -> list[dict]:
    """Consume a push feed into a list (filled as the simulation runs)."""
    events: list[dict] = []

    def consume():
        try:
            while True:
                events.append((yield subscription.next_block()))
        except ConnectorError:
            pass  # cancelled: the feed is over

    cluster.scheduler.spawn(consume())
    return events


def small_driver(cluster, rate=40, duration=20, clients=2, **kwargs):
    workload = YCSBWorkload(YCSBConfig(record_count=100))
    return Driver(
        cluster,
        workload,
        DriverConfig(
            n_clients=clients,
            request_rate_tx_s=rate,
            duration_s=duration,
            **kwargs,
        ),
    )


# ---------------------------------------------------------------------------
# Cluster construction and end-to-end commits
# ---------------------------------------------------------------------------
def test_cluster_builds_with_tendermint():
    cluster = build_cluster("erisdb", 4, seed=3)
    assert len(cluster.nodes) == 4
    for node in cluster.nodes:
        assert isinstance(node.protocol, Tendermint)
        assert node.supports_subscription
    cluster.close()


def test_transactions_commit_end_to_end():
    cluster = build_cluster("erisdb", 4, seed=5)
    stats = small_driver(cluster).run()
    assert stats.confirmed > 50
    assert stats.latency_avg() > 0
    cluster.close()


def test_all_nodes_agree_no_forks():
    cluster = build_cluster("erisdb", 4, seed=5)
    small_driver(cluster).run()
    tips = {node.chain().tip.hash for node in cluster.nodes}
    assert len(tips) == 1
    assert all(node.chain().fork_blocks == 0 for node in cluster.nodes)
    cluster.close()


def test_historical_state_queries_work():
    """ErisDB's trie snapshots support get_at, like Ethereum's."""
    state = TrieState()
    state.put(b"k", b"v1")
    state.commit_block(1)
    state.put(b"k", b"v2")
    state.commit_block(2)
    assert state.get_at(1, b"k") == b"v1"
    assert state.get_at(2, b"k") == b"v2"
    state.close()


def test_config_preset_is_registered():
    config = erisdb_config()
    assert config.name == "erisdb"
    assert config.tendermint.max_txs_per_block == 500


# ---------------------------------------------------------------------------
# Publish/subscribe (Section 3.2's ErisDB interface)
# ---------------------------------------------------------------------------
def test_subscription_pushes_block_events():
    cluster = build_cluster("erisdb", 4, seed=5)
    client = RPCClient("watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    events = collect_blocks(cluster, connector.subscribe_new_blocks(0))
    driver = small_driver(cluster, duration=15)
    stats = driver.run()
    assert events, "no block events pushed"
    heights = [event["height"] for event in events]
    assert heights == sorted(heights)
    confirmed_ids = {tx for event in events for tx in event["tx_ids"]}
    assert len(confirmed_ids) >= stats.confirmed
    cluster.close()


def test_subscription_replays_missed_blocks():
    """Subscribing after commits replays history from from_height."""
    cluster = build_cluster("erisdb", 4, seed=5)
    small_driver(cluster, duration=10).run()
    height_before = cluster.chain_height()
    assert height_before > 0
    client = RPCClient("late-watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    events = collect_blocks(cluster, connector.subscribe_new_blocks(0))
    cluster.run_until(cluster.scheduler.now + 2.0)
    assert [e["height"] for e in events[:height_before]] == list(
        range(1, height_before + 1)
    )
    cluster.close()


def test_subscription_refused_on_polling_platforms():
    cluster = build_cluster("hyperledger", 4, seed=5)
    client = RPCClient("watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    with pytest.raises(ConnectorError):
        connector.subscribe_new_blocks(0)
    cluster.close()


def test_driver_subscribe_mode_confirms_without_polling():
    cluster = build_cluster("erisdb", 4, seed=5)
    stats = small_driver(cluster, subscribe=True).run()
    assert stats.confirmed > 50
    cluster.close()


def test_subscribe_and_poll_agree_on_throughput():
    """Push and poll modes must measure the same chain."""
    polled = small_driver(build_cluster("erisdb", 4, seed=9)).run()
    pushed = small_driver(
        build_cluster("erisdb", 4, seed=9), subscribe=True
    ).run()
    assert pushed.confirmed == pytest.approx(polled.confirmed, rel=0.1)
    # Push-based confirmation can only be faster than periodic polling.
    assert pushed.latency_avg() <= polled.latency_avg() + 0.1


def test_unsubscribe_tears_down_server_side_subscription():
    """unsubscribe() must stop the server publishing, not just drop the
    local callback — otherwise rpc/event traffic flows forever."""
    cluster = build_cluster("erisdb", 4, seed=5)
    client = RPCClient("watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    server = cluster.nodes[0]
    subscription = connector.subscribe_new_blocks(0)
    events = collect_blocks(cluster, subscription)
    driver = small_driver(cluster, duration=10)
    driver.prepare()
    driver.start(10)
    cluster.run_until(8.0)
    assert events, "subscription never delivered"
    assert "watcher" in server._subscribers
    subscription.cancel()
    cluster.run_until(9.0)  # let the unsubscribe message arrive
    assert "watcher" not in server._subscribers
    published_at_cancel = server.events_published
    seen_at_cancel = len(events)
    cluster.run_until(cluster.scheduler.now + 12.0)
    # The chain kept growing, but nothing more was pushed to us.
    assert cluster.chain_height() > 0
    assert len(events) == seen_at_cancel
    # Other subscribers (none here) aside, the server stopped publishing.
    assert server.events_published == published_at_cancel
    cluster.close()


def test_subscription_cancel_is_idempotent():
    cluster = build_cluster("erisdb", 2, seed=5)
    client = RPCClient("watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    subscription = connector.subscribe_new_blocks(0)
    subscription.cancel()
    subscription.cancel()
    assert not subscription.active
    cluster.close()


def test_cancel_wakes_pending_waiter_and_blocks_new_ones():
    """cancel() must not strand a coroutine awaiting next_block()."""
    cluster = build_cluster("erisdb", 2, seed=5)
    client = RPCClient("watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    subscription = connector.subscribe_new_blocks(0)
    outcome: list[str] = []

    def consume():
        try:
            yield subscription.next_block()
            outcome.append("got a block")  # pragma: no cover
        except ConnectorError:
            outcome.append("woken by cancel")

    cluster.scheduler.spawn(consume())
    subscription.cancel()
    assert outcome == ["woken by cancel"]
    with pytest.raises(ConnectorError, match="cancelled"):
        subscription.next_block()
    cluster.close()


def test_awaitable_subscription_stream_buffers_in_order():
    """next_block() futures deliver every event exactly once, in order."""
    cluster = build_cluster("erisdb", 4, seed=5)
    client = RPCClient("watcher", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, cluster.node_ids()[0])
    subscription = connector.subscribe_new_blocks(0)
    heights: list[int] = []

    def consume():
        while True:
            block = yield subscription.next_block()
            heights.append(block["height"])

    cluster.scheduler.spawn(consume())
    small_driver(cluster, duration=15).run()
    assert heights == sorted(heights)
    assert len(heights) == len(set(heights))
    assert heights, "stream delivered nothing"
    assert subscription.pending_blocks() == 0  # consumer kept up
    cluster.close()


def test_crash_below_threshold_keeps_committing():
    cluster = build_cluster("erisdb", 7, seed=5)  # f = 2
    driver = small_driver(cluster, duration=30)
    driver.prepare()
    cluster.scheduler.schedule(10.0, lambda: cluster.crash_named(cluster.node_ids()[:2]))
    stats = driver.run()
    assert stats.confirmed > 50
    alive = cluster.alive_nodes()
    assert len({n.chain().tip.hash for n in alive}) == 1
    cluster.close()
