"""Integration tests for the BLOCKBENCH driver and connector."""

import pytest

from repro.core import Driver, DriverConfig, RPCClient, SimChainConnector
from repro.errors import ConnectorError
from repro.platforms import build_cluster
from repro.workloads import DoNothingWorkload, YCSBConfig, YCSBWorkload


@pytest.fixture
def cluster():
    c = build_cluster("hyperledger", 4, seed=9)
    yield c
    c.close()


def test_driver_end_to_end(cluster):
    driver = Driver(
        cluster,
        YCSBWorkload(YCSBConfig(record_count=50)),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=15),
    )
    stats = driver.run()
    assert stats.confirmed > 100
    assert stats.submitted >= stats.confirmed
    assert stats.latency_avg() > 0
    assert stats.latency_percentile(99) >= stats.latency_percentile(50)


def test_driver_measures_queue(cluster):
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=2, request_rate_tx_s=20, duration_s=10),
    )
    driver.run()
    series = driver.queue_series()
    assert len(series) >= 8
    times = [t for t, _ in series]
    assert times == sorted(times)


def test_blocking_mode_serializes(cluster):
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=1, request_rate_tx_s=1000, duration_s=15, blocking=True),
    )
    stats = driver.run()
    # One tx at a time: confirmations bounded by latency, far below rate.
    assert 0 < stats.confirmed < 100


def test_clients_spread_across_servers(cluster):
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=8, request_rate_tx_s=5, duration_s=5),
    )
    driver.prepare()
    servers = {client.server_id for client in driver.clients}
    assert len(servers) == 4  # 8 clients round-robin onto 4 servers


def test_thread_flow_control_limits_inflight(cluster):
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(
            n_clients=1, request_rate_tx_s=5000, duration_s=5, threads_per_client=4
        ),
    )
    driver.prepare()
    client = driver.clients[0]
    client.start(5.0)
    cluster.run_until(2.0)
    assert client._inflight_submissions <= 4
    assert len(client.backlog) > 0  # overload queues locally


def test_rpc_client_timeout():
    cluster = build_cluster("hyperledger", 2, seed=9)
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    cluster.nodes[0].crash()
    replies = []
    client.request(
        "server-0", "rpc/send_tx", {"tx": None}, replies.append, timeout_s=2.0
    )
    cluster.run_until(5.0)
    assert replies == [{"accepted": False, "timeout": True, "req_id": 0}]
    cluster.close()


def test_rpc_timeout_is_cancelled_when_the_reply_arrives(cluster):
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    replies = []
    idle = cluster.scheduler.pending()
    for _ in range(100):
        client.request(
            "server-0", "rpc/get_blocks", {"from_height": 0}, replies.append,
            timeout_s=5.0,
        )
    assert len(client._timeouts) == len(client._timers) == 100
    cluster.run_until(1.0)
    assert len(replies) == 100 and not any(r.get("timeout") for r in replies)
    # Answered: no timeout handle is kept and none waits in the scheduler
    # to fire as a no-op four seconds from now.
    assert client._timeouts == {} and client._timers == {}
    assert cluster.scheduler.pending() == idle
    cluster.run_until(10.0)
    assert len(replies) == 100


def test_rpc_timeout_handle_is_forgotten_when_it_fires():
    cluster = build_cluster("hyperledger", 2, seed=9)
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    cluster.nodes[0].crash()
    replies = []
    client.request(
        "server-0", "rpc/get_blocks", {"from_height": 0}, replies.append,
        timeout_s=2.0,
    )
    cluster.run_until(5.0)
    assert [r["timeout"] for r in replies] == [True]
    assert client._timeouts == {} and client._timers == {}
    assert client.outstanding_requests() == 0
    cluster.close()


def test_connector_rejects_unknown_server():
    cluster = build_cluster("hyperledger", 2, seed=9)
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    with pytest.raises(ConnectorError):
        SimChainConnector(cluster, client, "ghost")
    cluster.close()


def test_connector_query_roundtrip(cluster):
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, "server-0")
    replies = []
    connector.query("donothing", "nop", (), replies.append)
    cluster.run_until(1.0)
    assert replies and replies[0]["output"] is True


def test_connector_query_unknown_contract(cluster):
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, "server-0")
    replies = []
    connector.query("nope", "nop", (), replies.append)
    cluster.run_until(1.0)
    assert "error" in replies[0]


def test_get_latest_block_returns_confirmed_only(cluster):
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=1, request_rate_tx_s=50, duration_s=10),
    )
    stats = driver.run()
    client = driver.clients[0]
    # Polling height advanced and matches confirmations.
    assert client._poll_height > 0
    assert stats.confirmed > 0
