"""Cross-module integration tests: the full Figure-4 pipeline.

These run the real stack end to end — driver, connectors, platform
nodes, consensus, contracts, state trees — and assert invariants that
only hold when every layer cooperates: replicated state machines agree
byte-for-byte, money is conserved through Smallbank, faults injected at
the network layer surface as the right application-level behaviour.
"""

import hashlib
import json

import pytest

from repro.core import Driver, DriverConfig, ExperimentSpec, run_experiment
from repro.core.faults import (
    CorruptionFault,
    CrashFault,
    DelayFault,
    FaultSchedule,
)
from repro.core.suitestore import result_to_dict
from repro.platforms import build_cluster
from repro.workloads import SmallbankConfig, SmallbankWorkload, make_workload

from ..receipts import receipt_of

ALL_PLATFORMS = ("ethereum", "parity", "hyperledger", "erisdb")
BFT_PLATFORMS = ("hyperledger", "erisdb")


def run_driver(cluster, workload_name="ycsb", rate=40, duration=20, clients=2):
    workload = make_workload(workload_name)
    driver = Driver(
        cluster,
        workload,
        DriverConfig(
            n_clients=clients, request_rate_tx_s=rate, duration_s=duration
        ),
    )
    return driver.run()


# ---------------------------------------------------------------------------
# Replicated state machine: every layer must agree
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("platform", ALL_PLATFORMS)
def test_state_roots_identical_across_replicas(platform, height_roots):
    """After a run, executed state commits to the same root everywhere."""
    cluster = build_cluster(platform, 4, seed=17)
    run_driver(cluster)
    floor = min(node.executed_height for node in cluster.nodes)
    assert floor > 0
    roots = {node_roots[floor] for node_roots in height_roots(cluster)}
    assert len(roots) == 1
    cluster.close()


@pytest.mark.parametrize("platform", ALL_PLATFORMS)
def test_receipts_agree_across_replicas(platform):
    cluster = build_cluster(platform, 4, seed=17)
    run_driver(cluster)
    floor = min(node.executed_height for node in cluster.nodes)
    reference = cluster.nodes[0]
    ref_ids = {
        tx.tx_id
        for h in range(1, floor + 1)
        for tx in reference.chain().block_by_height(h).transactions
    }
    for node in cluster.nodes[1:]:
        ids = {
            tx.tx_id
            for h in range(1, floor + 1)
            for tx in node.chain().block_by_height(h).transactions
        }
        assert ids == ref_ids
        # One cluster shares one execution cache: every replica files the
        # first executor's record of a block.
        for h in range(1, floor + 1):
            block_hash = node.chain().block_by_height(h).hash
            assert block_hash == reference.chain().block_by_height(h).hash
            record = node.receipts.blocks[block_hash]
            assert record is reference.receipts.blocks[block_hash]
        for tx_id in ids:
            mine = receipt_of(node.receipts, tx_id)
            theirs = receipt_of(reference.receipts, tx_id)
            assert mine.success == theirs.success
    cluster.close()


class _PaymentsOnly(SmallbankWorkload):
    """Smallbank restricted to send_payment: an exactly zero-sum mix."""

    def next_transaction(self, client_id, rng, now):
        sender = self._account(rng)
        recipient = self._account(rng)
        while recipient == sender:
            recipient = self._account(rng)
        amount = rng.randrange(1, 100)
        from repro.chain import Transaction

        return Transaction.create(
            client_id,
            "smallbank",
            "send_payment",
            (sender, recipient, amount),
            value=amount,
            nonce=self.next_nonce(),
        )


def _ledger_total(node, n_accounts: int) -> int:
    from repro.contracts.base import decode_int
    from repro.platforms.base import _NamespacedState

    facade = _NamespacedState(node.state, "smallbank")
    total = 0
    for i in range(n_accounts):
        for prefix in (b"chk:", b"sav:"):
            raw = facade.get_state(prefix + f"acct{i}".encode())
            if raw is not None:
                total += decode_int(raw)
    return total


@pytest.mark.parametrize("platform", BFT_PLATFORMS)
def test_smallbank_conserves_money(platform):
    """send_payment moves money, never mints it: through the driver,
    the consensus protocol, execution, and the state tree, the ledger
    total is exactly the preload total — on every replica."""
    config = SmallbankConfig(n_accounts=50)
    cluster = build_cluster(platform, 4, seed=23)
    driver = Driver(
        cluster,
        _PaymentsOnly(config),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=20),
    )
    stats = driver.run()
    assert stats.confirmed > 0
    expected = config.n_accounts * (
        config.initial_savings + config.initial_checking
    )
    for node in cluster.nodes:
        assert node.executed_height > 0
        assert _ledger_total(node, config.n_accounts) == expected
    cluster.close()


# ---------------------------------------------------------------------------
# Fault schedules through the full stack (Section 3.3's three modes)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("platform", ("hyperledger", "erisdb", "parity"))
def test_delay_fault_slows_but_does_not_fork(platform):
    faults = FaultSchedule(
        delays=[DelayFault(at_time=5.0, until_time=15.0, extra_s=0.05)]
    )
    result = run_experiment(
        ExperimentSpec(
            platform=platform,
            workload="ycsb",
            n_servers=4,
            n_clients=2,
            request_rate_tx_s=30,
            duration_s=25.0,
            faults=faults,
            seed=29,
        )
    )
    assert result.summary.confirmed > 0
    if platform in BFT_PLATFORMS:
        assert result.total_blocks == result.main_branch_blocks


@pytest.mark.parametrize("platform", ("hyperledger", "erisdb"))
def test_corruption_fault_is_survived(platform):
    """Random-response faults: corrupted messages drop at verification."""
    faults = FaultSchedule(
        corruptions=[CorruptionFault(at_time=5.0, until_time=12.0, rate=0.2)]
    )
    result = run_experiment(
        ExperimentSpec(
            platform=platform,
            workload="ycsb",
            n_servers=4,
            n_clients=2,
            request_rate_tx_s=30,
            duration_s=25.0,
            faults=faults,
            seed=31,
        )
    )
    assert result.summary.confirmed > 0
    assert result.total_blocks == result.main_branch_blocks


def test_crash_fault_splits_bft_platforms_by_quorum():
    """The Figure 9 dichotomy holds for both BFT backends at N=12."""
    outcomes = {}
    for platform in BFT_PLATFORMS:
        faults = FaultSchedule(crashes=[CrashFault(at_time=12.0, count=4)])
        result = run_experiment(
            ExperimentSpec(
                platform=platform,
                workload="ycsb",
                n_servers=12,
                n_clients=4,
                request_rate_tx_s=25,
                duration_s=35.0,
                faults=faults,
                seed=37,
            )
        )
        outcomes[platform] = result
    # 4 of 12 crashed: quorum needs 9 (PBFT) / 9 (Tendermint) of 8 alive
    # -> both halt after the crash; everything confirmed predates it.
    for platform, result in outcomes.items():
        assert result.summary.confirmed > 0, platform
        assert result.stats.confirm_times, platform
        assert max(result.stats.confirm_times) < 12.0 + 8.0, platform


# ---------------------------------------------------------------------------
# Runner and workload registry integration
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", ("ycsb", "smallbank", "donothing"))
def test_runner_covers_macro_workloads(workload):
    result = run_experiment(
        ExperimentSpec(
            platform="erisdb",
            workload=workload,
            n_servers=4,
            n_clients=2,
            request_rate_tx_s=30,
            duration_s=15.0,
            seed=41,
        )
    )
    assert result.summary.confirmed > 0
    assert result.throughput > 0
    assert result.chain_height > 0


def test_ethereum_run_repeats_in_one_interpreter():
    """Tx ids pick geth's gossip targets (8 servers > the fan-out of 3),
    and each run's workload numbers its own transactions: a second run
    of the same spec in this interpreter is byte-identical to the first."""
    spec = ExperimentSpec(
        platform="ethereum", workload="ycsb", n_servers=8, n_clients=4,
        request_rate_tx_s=20, duration_s=12.0, seed=9,
    )

    def digest():
        data = result_to_dict(run_experiment(spec))
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    assert digest() == digest()


def test_monitor_integration_reports_utilization():
    result = run_experiment(
        ExperimentSpec(
            platform="hyperledger",
            workload="ycsb",
            n_servers=4,
            n_clients=2,
            request_rate_tx_s=50,
            duration_s=15.0,
            with_monitor=True,
            seed=43,
        )
    )
    assert result.mean_cpu_pct > 0
    assert result.mean_net_mbps > 0
