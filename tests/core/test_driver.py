"""Integration tests for the BLOCKBENCH driver and connector."""

import pytest

from repro.core import (
    ArrivalSpec,
    Driver,
    DriverConfig,
    ExperimentSpec,
    OpenLoopDriver,
    RPCClient,
    SimChainConnector,
    run_experiment,
)
from repro.errors import BenchmarkError, ConnectorError
from repro.platforms import build_cluster
from repro.workloads import (
    DoNothingWorkload,
    YCSBConfig,
    YCSBWorkload,
    make_workload,
)


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
    servers = {connector.server_id for connector in driver.connectors}
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
    driver.start(5.0)
    cluster.run_until(2.0)
    assert driver.inflight[0] <= 4
    assert len(driver.backlogs[0]) > 0  # overload queues locally


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
    reply = connector.query("donothing", "nop", ())
    cluster.run_until(1.0)
    assert reply.result()["output"] is True


def test_connector_query_unknown_contract(cluster):
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, client, "server-0")
    reply = connector.query("nope", "nop", ())
    cluster.run_until(1.0)
    assert "error" in reply.result()


def test_get_latest_block_returns_confirmed_only(cluster):
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=1, request_rate_tx_s=50, duration_s=10),
    )
    stats = driver.run()
    # Polling height advanced and matches confirmations.
    assert driver.poll_heights[0] > 0
    assert stats.confirmed > 0


def test_closed_loop_is_self_deterministic():
    """Two runs with one seed replay the same timeline."""
    spec = ExperimentSpec(
        platform="hyperledger", workload="ycsb", n_servers=4, n_clients=2,
        request_rate_tx_s=80.0, duration_s=12.0, seed=9,
    )
    first = run_experiment(spec)
    second = run_experiment(spec)
    assert first.summary == second.summary
    assert first.chain_height == second.chain_height


def test_driver_knobs_flow_from_spec_to_clients():
    cluster = build_cluster("hyperledger", 4, seed=9)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(
            n_clients=1,
            poll_interval_s=0.2,
            threads_per_client=7,
            retry_interval_s=0.05,
        ),
    )
    assert driver.config.threads_per_client == 7
    assert driver.config.poll_interval_s == 0.2
    assert driver.backoffs == [0.05]
    cluster.close()


def test_driver_keeps_one_collector_per_client():
    """The merged view is derived, not the storage, so per-client
    breakdowns remain possible."""
    cluster = build_cluster("hyperledger", 2, seed=3)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=5, request_rate_tx_s=20.0, duration_s=4.0),
    )
    merged = driver.run()
    assert len(driver.stats_slots) == 5
    assert len(set(map(id, driver.stats_slots))) == 5
    assert sum(s.confirmed for s in driver.stats_slots) == merged.confirmed > 0
    assert driver.stats is merged  # queue_series() reads it, no second merge
    cluster.close()


@pytest.mark.parametrize("open_loop", [False, True])
@pytest.mark.parametrize("prepare_first", [False, True])
def test_run_prepares_exactly_once(cluster, open_loop, prepare_first):
    """run() deploys and preloads unless prepare() already did — on both
    drivers (the open loop used to skip the preload silently)."""
    preloads = []

    class Counting(DoNothingWorkload):
        def preload(self, cluster):
            preloads.append(cluster)
            super().preload(cluster)

    config = DriverConfig(n_clients=1, request_rate_tx_s=10, duration_s=1)
    if open_loop:
        config.arrival = ArrivalSpec(process="poisson", rate_tx_s=10.0, accounts=10)
    driver = (OpenLoopDriver if open_loop else Driver)(cluster, Counting(), config)
    if prepare_first:
        driver.prepare()
    assert driver.run(extra_drain_s=0.0).submitted > 0
    assert len(preloads) == 1


@pytest.mark.parametrize(
    "bad_knobs",
    [
        {"poll_interval_s": 0.0},  # polling at the same instant forever
        {"poll_interval_s": -1.0},
        {"threads_per_client": 0},  # nothing could ever submit
        {"retry_interval_s": -0.1},  # invalid timer
        {"request_rate_tx_s": 0.0},
        {"queue_sample_interval_s": 0.0},  # sampling at the same instant forever
        {"queue_sample_interval_s": -1.0},
    ],
)
def test_driver_config_rejects_degenerate_knobs(bad_knobs):
    """Knob values reachable from the CLI / scenario JSON that would
    hang or starve a run must fail at construction, not mid-suite."""
    with pytest.raises(BenchmarkError):
        DriverConfig(**bad_knobs)
