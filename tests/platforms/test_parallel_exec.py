"""Serial-vs-parallel execution differentials (PR 9).

The parallel execution path (``exec_workers > 1``) promises exactly
one thing changes relative to serial execution: the *charged simulated
execution time* (the dependency-schedule makespan instead of the
serial sum). Everything observable about state must be byte-identical
— roots, receipts, write-sets — on every platform, for any worker
count, for any interleaving of conflicting and independent
transactions. A hypothesis differential pins that across random
transaction programs in the style of ``test_state_overlay.py``; the
adversarial fully-conflicting workload must degrade to the serial
chain (same roots *and* the same charged CPU, since every level holds
one transaction); and the PR 8 stage breakdown must show the
``execution`` interval shrinking on a contention-light macro run.
"""

import hashlib
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.core.runner import ExperimentSpec, run_experiment
from repro.platforms import build_cluster

from ..receipts import receipt_of

PLATFORMS = ["hyperledger", "ethereum", "parity", "erisdb"]

#: One kvstore invocation: (op, key index, payload). Small key space so
#: hypothesis finds RAW/WAW/WAR collisions; read_modify_write on a
#: missing key exercises the revert path (partial writes + failure
#: receipts must match serial too).
OPS = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "delete", "read_modify_write"]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=99),
    ),
    min_size=1,
    max_size=40,
)


def _make_txs(ops):
    txs = []
    for i, (op, key_idx, payload) in enumerate(ops):
        if op in ("write", "read_modify_write"):
            args = (f"k{key_idx}", f"v{payload}")
        else:
            args = (f"k{key_idx}",)
        txs.append(
            Transaction.create(
                sender=f"acct{i % 5}",
                contract="kvstore",
                function=op,
                args=args,
                nonce=i,  # pinned: tx_ids must match across runs
            )
        )
    return tuple(txs)


def _execute_direct(platform, workers, txs, seed=7):
    """Execute one constructed block on a single node, off-scheduler."""
    cluster = build_cluster(
        platform, 1, seed=seed,
        config_overrides={"exec_workers": workers},
    )
    node = cluster.nodes[0]
    genesis = node.chain().block_by_height(0)
    block = Block.build(
        height=1,
        parent_hash=genesis.hash,
        transactions=txs,
        state_root=b"",
        proposer=node.node_id,
        timestamp=1.0,
    )
    node._execute_block(block)
    root = node.state.pre_state_root()
    # The block's outputs digest beside its per-transaction rows.
    receipts = node.receipts.blocks[block.hash].outputs_digest, tuple(
        (r.tx_id, r.success, r.gas_used, r.error)
        for r in (receipt_of(node.receipts, tx.tx_id) for tx in txs)
    )
    cpu = node.cpu_time
    cluster.close()
    return root, receipts, cpu


# ---------------------------------------------------------------------------
# Hypothesis differential: byte-equal roots and receipts, any program
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("platform", PLATFORMS)
@settings(max_examples=10, deadline=None)
@given(ops=OPS, workers=st.sampled_from([2, 3, 4, 8]))
def test_parallel_matches_serial_byte_for_byte(platform, ops, workers):
    txs = _make_txs(ops)
    serial_root, serial_receipts, serial_cpu = _execute_direct(
        platform, 1, txs
    )
    par_root, par_receipts, par_cpu = _execute_direct(platform, workers, txs)
    assert par_root == serial_root
    assert par_receipts == serial_receipts
    # Parallelism can only help (or break even, under total conflict).
    assert par_cpu <= serial_cpu + 1e-12


# ---------------------------------------------------------------------------
# Conflict path: total contention degrades to the serial chain
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("platform", PLATFORMS)
def test_single_hot_key_degrades_to_serial(platform):
    """Every transaction read-modify-writes one key: the dependency
    chain forces one transaction per level, so the parallel path must
    reproduce the serial roots, receipts, AND charged CPU exactly —
    the makespan telescopes to the serial sum in the same float
    addition order."""
    txs = tuple(
        Transaction.create(
            sender="acct0",
            contract="kvstore",
            function="write" if i == 0 else "read_modify_write",
            args=("hot", f"v{i}"),
            nonce=i,
        )
        for i in range(20)
    )
    serial_root, serial_receipts, serial_cpu = _execute_direct(
        platform, 1, txs
    )
    par_root, par_receipts, par_cpu = _execute_direct(platform, 8, txs)
    assert par_root == serial_root
    assert par_receipts == serial_receipts
    assert par_cpu == serial_cpu  # exact: no overlap is possible


@pytest.mark.parametrize("platform", PLATFORMS)
def test_outputs_digest_is_the_same_serial_and_parallel(platform):
    """A block's outputs digest commits to each transaction's return
    value in block order, whichever path executed it: writes return
    True, reads the value an earlier write stored (or None), a revert
    None."""
    txs = _make_txs(
        [("write", i, i) for i in range(6)]
        + [("read", i, 0) for i in range(8)]
        + [("read_modify_write", 12, 0), ("write", 3, 99), ("read", 3, 0)]
    )
    outputs = (
        (True,) * 6 + tuple(f"v{i}" for i in range(6)) + (None, None)
        + (None, True, "v99")
    )
    expected = hashlib.sha256(repr(outputs).encode()).digest()
    for workers in (1, 4):
        _root, (digest, rows), _cpu = _execute_direct(platform, workers, txs)
        assert digest == expected, workers
        assert [row[1] for row in rows].count(False) == 1  # the revert


def test_single_hot_key_schedule_is_the_serial_chain():
    cluster = build_cluster(
        "hyperledger", 1, seed=7,
        config_overrides={"exec_workers": 4},
    )
    node = cluster.nodes[0]
    txs = tuple(
        Transaction.create(
            sender="acct0", contract="kvstore", function="write",
            args=("hot", f"v{i}"), nonce=i,
        )
        for i in range(10)
    )
    genesis = node.chain().block_by_height(0)
    block = Block.build(
        height=1, parent_hash=genesis.hash, transactions=txs,
        state_root=b"", proposer=node.node_id, timestamp=1.0,
    )
    _receipts, levels = node._execute_block_parallel(block)
    assert levels == tuple(range(1, 11))
    cluster.close()


def test_disjoint_keys_schedule_flat():
    cluster = build_cluster(
        "hyperledger", 1, seed=7,
        config_overrides={"exec_workers": 4},
    )
    node = cluster.nodes[0]
    txs = tuple(
        Transaction.create(
            sender="acct0", contract="kvstore", function="write",
            args=(f"k{i}", "v"), nonce=i,
        )
        for i in range(10)
    )
    genesis = node.chain().block_by_height(0)
    block = Block.build(
        height=1, parent_hash=genesis.hash, transactions=txs,
        state_root=b"", proposer=node.node_id, timestamp=1.0,
    )
    _receipts, levels = node._execute_block_parallel(block)
    assert levels == (1,) * 10
    cluster.close()


# ---------------------------------------------------------------------------
# Macro determinism and the stage-breakdown win
# ---------------------------------------------------------------------------
def _macro(platform, workers, duration, seed=5):
    return run_experiment(
        ExperimentSpec(
            platform=platform,
            workload="ycsb",
            n_servers=4,
            n_clients=2,
            request_rate_tx_s=40.0,
            duration_s=duration,
            seed=seed,
            config_overrides={"exec_workers": workers},
        )
    )


@pytest.mark.parametrize("platform", PLATFORMS)
def test_repeated_parallel_runs_are_byte_identical(platform):
    """The determinism gate in miniature: two independent runs at
    exec_workers=4 must agree on every field of the StatsSummary —
    the scheduler introduces no run-to-run nondeterminism."""
    # Ethereum's first transaction-bearing blocks confirm between 25s
    # and 30s at 4 servers; shorter windows measure an empty run.
    duration = 30.0 if platform == "ethereum" else 12.0
    first = _macro(platform, 4, duration)
    second = _macro(platform, 4, duration)
    assert asdict(first.summary) == asdict(second.summary)
    assert first.chain_height == second.chain_height
    assert first.total_blocks == second.total_blocks
    assert first.summary.confirmed > 0  # the run did real work


def test_execution_stage_shrinks_with_workers():
    """Ethereum YCSB is contention-light (wide key space) and has the
    fattest per-gas cost, so the PR 8 ``execution`` interval must
    visibly shrink when 4 modeled workers overlap independent
    transactions."""

    def execution_avg(result):
        breakdown = result.summary.stage_breakdown
        assert breakdown is not None and breakdown.traced > 0
        return next(
            s.avg_s for s in breakdown.stages if s.stage == "execution"
        )

    serial = _macro("ethereum", 1, 30.0)
    parallel = _macro("ethereum", 4, 30.0)
    serial_exec = execution_avg(serial)
    parallel_exec = execution_avg(parallel)
    assert serial.summary.confirmed > 0
    assert parallel.summary.confirmed > 0
    # Visibly shrink: at least 30% off the serial execution interval.
    assert parallel_exec < 0.7 * serial_exec
