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


def test_answered_rpcs_leave_at_most_one_watchdog_and_no_timers(cluster):
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    replies = []
    idle = cluster.scheduler.pending()
    for _ in range(100):
        client.request(
            "server-0", "rpc/get_blocks", {"from_height": 0}, replies.append,
            timeout_s=5.0,
        )
    cluster.run_until(1.0)
    assert len(replies) == 100 and not any(r.get("timeout") for r in replies)
    # No timer per request: 100 requests were in flight, one watchdog event.
    assert cluster.scheduler.pending() - idle <= 1
    cluster.run_until(10.0)
    # The watchdog fired on answered requests only: nothing re-armed.
    assert len(replies) == 100
    assert cluster.scheduler.pending() == idle
    assert client.outstanding_requests() == 0


def test_a_request_that_never_returns_does_not_pin_answered_deadlines():
    cluster = build_cluster("hyperledger", 2, seed=9)
    client = RPCClient("c0", cluster.scheduler, cluster.network)
    cluster.nodes[1].crash()
    replies = []

    def send(server):
        client.request(
            server, "rpc/get_blocks", {"from_height": 0}, replies.append,
            timeout_s=5.0,
        )

    send("server-1")  # the head: unanswered for the whole timeout
    for i in range(500):
        cluster.scheduler.schedule_at(0.005 * (i + 1), send, "server-0")
    cluster.run_until(4.9)
    assert len(replies) == 500
    assert len(client._deadlines) < 2 * RPCClient.COMPACT_FLOOR
    cluster.run_until(10.0)
    assert [r["timeout"] for r in replies if "timeout" in r] == [True]
    assert client.outstanding_requests() == 0
    cluster.close()


def _tied_timeouts(with_rpc: bool) -> list[str]:
    """Two bursts at t=0.5, each sending one RPC that is answered and one
    to a crashed server, between plain events due at their 2 s deadline.
    Without RPCs, each expiring request is a plain ``schedule`` call made
    where its request was sent: the order a timer per request gives."""
    cluster = build_cluster("hyperledger", 2, seed=9)
    sched = cluster.scheduler
    client = RPCClient("c0", sched, cluster.network)
    cluster.nodes[1].crash()
    order = []

    def rpc(server, label):
        if with_rpc:
            client.request(
                server, "rpc/get_blocks", {"from_height": 0},
                lambda reply: order.append(label if reply.get("timeout") else "reply"),
                timeout_s=2.0,
            )
        elif server == "server-1":
            sched.schedule(2.0, order.append, label)

    def before(tag):
        # A same-instant event: it must not overtake the expiries.
        order.append(f"{tag}-before")
        sched.schedule(0.0, order.append, f"{tag}-now")

    def burst(tag):
        sched.schedule(2.0, before, tag)
        rpc("server-0", f"{tag}-answered")
        rpc("server-1", f"{tag}-timeout")
        sched.schedule(2.0, order.append, f"{tag}-after")

    sched.schedule_at(0.5, burst, "a")
    sched.schedule_at(0.5, burst, "b")
    cluster.run_until(5.0)
    assert client.outstanding_requests() == 0
    cluster.close()
    return order


def test_rpc_timeout_fires_in_its_original_time_seq_slot():
    order = _tied_timeouts(with_rpc=True)
    assert order[:2] == ["reply", "reply"]
    assert order[2:] == _tied_timeouts(with_rpc=False) == [
        "a-before", "a-timeout", "a-after",
        "b-before", "b-timeout", "b-after", "a-now", "b-now",
    ]


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
        {"duration_s": 0.0},  # throughput over the 1e-9 s duration floor
        {"duration_s": -1.0},
        {"n_clients": 0},  # a closed loop with no load
    ],
)
def test_driver_config_rejects_degenerate_knobs(bad_knobs):
    """Knob values reachable from the CLI / scenario JSON that would
    hang or starve a run must fail at construction, not mid-suite, and
    say which knob."""
    with pytest.raises(BenchmarkError, match=next(iter(bad_knobs))):
        DriverConfig(**bad_knobs)


def test_an_open_loop_run_needs_no_clients():
    """The arrival process is the load; n_clients is ignored."""
    arrival = ArrivalSpec(process="poisson", rate_tx_s=10.0, accounts=10)
    assert DriverConfig(n_clients=0, arrival=arrival).n_clients == 0
