"""Integration tests for the three platform implementations."""

import pytest

from repro.chain import Transaction
from repro.core import Driver, DriverConfig
from repro.errors import BenchmarkError, ConnectorError
from repro.platforms import build_cluster
from repro.platforms.base import RPC_SEND_TX
from repro.platforms.ethereum import EthereumState
from repro.platforms.hyperledger import HyperledgerState
from repro.platforms.parity import ParityState
from repro.sim import Message
from repro.workloads import YCSBConfig, YCSBWorkload


def small_driver(cluster, rate=40, duration=20, clients=2):
    workload = YCSBWorkload(YCSBConfig(record_count=100))
    return Driver(
        cluster,
        workload,
        DriverConfig(
            n_clients=clients, request_rate_tx_s=rate, duration_s=duration
        ),
    )


# ---------------------------------------------------------------------------
# Cluster construction
# ---------------------------------------------------------------------------
def test_unknown_platform_rejected():
    with pytest.raises(BenchmarkError):
        build_cluster("bitcoin", 4)


def test_zero_nodes_rejected():
    with pytest.raises(BenchmarkError):
        build_cluster("ethereum", 0)


@pytest.mark.parametrize("platform", ["ethereum", "parity", "hyperledger"])
def test_cluster_builds_and_deploys(platform):
    cluster = build_cluster(platform, 4, seed=3)
    assert len(cluster.nodes) == 4
    for node in cluster.nodes:
        assert "kvstore" in node.contracts
        assert len(node.peers) == 3
    cluster.close()


# ---------------------------------------------------------------------------
# End-to-end commits on each platform
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("platform", ["ethereum", "parity", "hyperledger"])
def test_transactions_commit_end_to_end(platform):
    cluster = build_cluster(platform, 4, seed=5)
    stats = small_driver(cluster).run()
    assert stats.confirmed > 50
    assert stats.latency_avg() > 0
    cluster.close()


def test_hyperledger_all_nodes_agree():
    cluster = build_cluster("hyperledger", 4, seed=5)
    small_driver(cluster).run()
    tips = {node.chain().tip.hash for node in cluster.nodes}
    assert len(tips) == 1
    assert all(node.chain().fork_blocks == 0 for node in cluster.nodes)
    cluster.close()


def test_ethereum_converges_to_one_chain():
    cluster = build_cluster("ethereum", 4, seed=5)
    small_driver(cluster).run()
    heights = [node.chain().height for node in cluster.nodes]
    assert max(heights) - min(heights) <= 1  # propagation lag only
    cluster.close()


def test_parity_throughput_capped_by_signing():
    """The paper's Parity finding: constant ~45 tx/s regardless of load."""
    cluster = build_cluster("parity", 4, seed=5)
    driver = small_driver(cluster, rate=100, duration=30, clients=4)
    stats = driver.run()
    assert 25 <= stats.throughput() <= 70
    # Offered 400 tx/s >> ~45 signed: the client queues grow (Figure 6).
    assert sum(len(backlog) for backlog in driver.backlogs) > 1000
    # Every confirmed tx went through the signer; the remainder is bounded
    # by the in-flight window (txs signed but still inside the 5 s
    # confirmation lag when the run stops).
    in_flight_cap = len(driver.connectors) * driver.config.threads_per_client
    gap = cluster.nodes[0].signed_count - stats.confirmed
    assert 0 <= gap <= in_flight_cap
    cluster.close()


def test_parity_latency_flat_under_overload():
    cluster = build_cluster("parity", 4, seed=5)
    stats = small_driver(cluster, rate=200, duration=30, clients=4).run()
    # Latency bounded by signing queue + confirmation, not by offered load.
    assert stats.latency_avg() < 12.0
    cluster.close()


def test_execution_receipts_recorded():
    cluster = build_cluster("hyperledger", 4, seed=5)
    small_driver(cluster).run()
    node = cluster.nodes[0]
    assert node.committed_tx_count > 0
    receipts = [r for rs in node.receipts.blocks.values() for r in rs]
    assert len(receipts) >= node.committed_tx_count
    assert receipts[0].gas_used > 0
    cluster.close()


def test_contract_state_consistent_across_replicas():
    cluster = build_cluster("hyperledger", 4, seed=5)
    small_driver(cluster).run()
    key = b"kvstore/user1"
    values = {node.state.get(key) for node in cluster.nodes}
    assert len(values) == 1  # replicated state machine
    cluster.close()


def _txs(count):
    return [
        Transaction.create("alice", "kvstore", "write", (f"k{i}", "v"), nonce=i)
        for i in range(count)
    ]


def _per_transaction_gas_batch(pool, max_count, gas_budget):
    """Block packing as it was when every transaction was charged an
    estimated 26,000 gas against the budget, one at a time."""
    batch = []
    remaining = gas_budget
    for tx in pool:
        if len(batch) >= max_count:
            break
        if 26_000 > remaining and batch:
            break
        remaining -= 26_000
        batch.append(tx)
    return batch


@pytest.mark.parametrize("gas_limit", [1, 25_999, 26_000, 52_000, 20_000_000])
@pytest.mark.parametrize(
    "pool_size, max_txs", [(0, 800), (1, 800), (3, 800), (900, 800), (900, None)]
)
def test_gas_limit_packs_what_the_per_transaction_loop_packed(
    gas_limit, pool_size, max_txs
):
    """A gas limit is a transaction count: ``gas_limit // 26,000``, at
    least one, under the protocol's own cap (10,000 when it has none)."""
    cluster = build_cluster(
        "ethereum", 1, seed=1, config_overrides={"block_gas_limit": gas_limit}
    )
    node = cluster.nodes[0]
    txs = _txs(pool_size)
    for tx in txs:
        node.mempool.add(tx)
    block = node.assemble_block(node.chain().tip, {}, max_txs)
    expected = _per_transaction_gas_batch(
        txs, 10_000 if max_txs is None else max_txs, gas_limit
    )
    assert block.tx_ids == tuple(tx.tx_id for tx in expected)
    cluster.close()


def test_admission_charges_the_broadcast_cost_per_gossip_copy():
    """Every platform admits through one path, which charges
    ``tx_broadcast_send_cost_s`` per gossip copy: Ethereum forwards to 3
    of its 4 peers, so an admitted submission costs its node 3 s here and
    a duplicate costs nothing."""
    cluster = build_cluster(
        "ethereum", 5, seed=1,
        config_overrides={"execution": {"tx_broadcast_send_cost_s": 1.0}},
    )
    node = cluster.nodes[0]
    txs = _txs(4)
    before = node.cpu_time
    for req_id, tx in enumerate(txs + txs[:1]):
        node.handle_message(Message(
            node.peers[0], node.node_id, RPC_SEND_TX, {"tx": tx, "req_id": req_id}
        ))
    assert len(node.mempool) == len(txs)
    assert node.cpu_time - before == 3.0 * len(txs)
    cluster.close()


# ---------------------------------------------------------------------------
# State layers
# ---------------------------------------------------------------------------
def test_ethereum_state_historical_reads():
    state = EthereumState()
    state.put(b"k", b"v1")
    state.commit_block(1)
    state.put(b"k", b"v2")
    state.commit_block(2)
    assert state.get_at(1, b"k") == b"v1"
    assert state.get_at(2, b"k") == b"v2"
    assert state.get(b"k") == b"v2"


def test_ethereum_state_lsm_backend(tmp_path):
    state = EthereumState(tmp_path)
    for i in range(200):
        state.put(f"key{i}".encode(), b"value")
    state.commit_block(1)
    assert state.get(b"key100") == b"value"
    assert state.disk_usage_bytes() > 0
    state.close()


def test_parity_state_memory_cap():
    from repro.errors import StorageError

    state = ParityState(memory_cap_bytes=20_000)
    with pytest.raises(StorageError, match="out of memory"):
        for i in range(2000):
            state.put(f"key{i}".encode(), b"x" * 50)


def test_hyperledger_state_rejects_historical():
    state = HyperledgerState()
    state.put(b"k", b"v")
    state.commit_block(1)
    with pytest.raises(ConnectorError):
        state.get_at(1, b"k")


def test_hyperledger_state_lsm_roundtrip(tmp_path):
    state = HyperledgerState(tmp_path)
    state.put(b"k", b"v")
    assert state.get(b"k") == b"v"
    state.delete(b"k")
    assert state.get(b"k") is None
    state.close()


# ---------------------------------------------------------------------------
# Fault behaviour (platform level)
# ---------------------------------------------------------------------------
def test_cluster_crash_nodes():
    cluster = build_cluster("hyperledger", 4, seed=5)
    crashed = cluster.crash_named(cluster.node_ids()[:1])
    assert len(crashed) == 1
    assert len(cluster.alive_nodes()) == 3
    cluster.close()


def test_cluster_partition_and_heal():
    cluster = build_cluster("ethereum", 4, seed=5)
    first, second = cluster.partition_halves()
    assert len(first) == 2 and len(second) == 2
    assert cluster.network.partitioned(first[0], second[0])
    cluster.heal()
    assert not cluster.network.partitioned(first[0], second[0])
    cluster.close()


def test_global_block_stats():
    cluster = build_cluster("hyperledger", 4, seed=5)
    small_driver(cluster, duration=10).run()
    total, main = cluster.global_block_stats()
    assert total == main  # PBFT never forks
    assert total > 0
    cluster.close()
