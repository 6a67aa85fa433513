"""Unit tests for the H-Store baseline engine."""

import random

import pytest

from repro.errors import BenchmarkError
from repro.hstore import (
    HStoreEngine,
    HStoreTxn,
    TxnOp,
    load_smallbank,
    load_ycsb,
    run_smallbank,
    run_ycsb,
    smallbank_txn,
    ycsb_txn,
)


def test_load_and_read():
    engine = HStoreEngine(4)
    engine.load("k", b"v")
    assert engine.get("k") == b"v"


def test_partitioning_is_stable():
    engine = HStoreEngine(8)
    assert engine.partition_of("key") == engine.partition_of("key")
    partitions = {engine.partition_of(f"k{i}") for i in range(200)}
    assert len(partitions) == 8  # all partitions get keys


def test_execute_reads_and_writes():
    engine = HStoreEngine(4)
    engine.load("a", b"1")
    result = engine.execute(
        HStoreTxn(ops=[TxnOp("read", "a"), TxnOp("write", "b", b"2")])
    )
    assert result.committed
    assert result.reads["a"] == b"1"
    assert engine.get("b") == b"2"


def test_write_none_deletes():
    engine = HStoreEngine(2)
    engine.load("a", b"1")
    engine.execute(HStoreTxn(ops=[TxnOp("write", "a", None)]))
    assert engine.get("a") is None


def test_single_vs_multi_partition_classified():
    engine = HStoreEngine(16)
    keys = [f"k{i}" for i in range(100)]
    same = next(
        (a, b)
        for a in keys
        for b in keys
        if a != b and engine.partition_of(a) == engine.partition_of(b)
    )
    different = next(
        (a, b)
        for a in keys
        for b in keys
        if engine.partition_of(a) != engine.partition_of(b)
    )
    engine.execute(HStoreTxn(ops=[TxnOp("read", same[0]), TxnOp("read", same[1])]))
    assert engine.single_partition_txns == 1
    engine.execute(
        HStoreTxn(ops=[TxnOp("read", different[0]), TxnOp("read", different[1])])
    )
    assert engine.multi_partition_txns == 1


def test_multi_partition_latency_higher():
    engine = HStoreEngine(16)
    single = engine.execute(HStoreTxn(ops=[TxnOp("read", "a")]))
    keys = [f"k{i}" for i in range(50)]
    a, b = next(
        (x, y) for x in keys for y in keys
        if engine.partition_of(x) != engine.partition_of(y)
    )
    multi = engine.execute(HStoreTxn(ops=[TxnOp("read", a), TxnOp("read", b)]))
    assert multi.latency_s > single.latency_s * 2


def test_empty_txn_rejected():
    with pytest.raises(BenchmarkError):
        HStoreEngine(2).execute(HStoreTxn(ops=[]))


def test_bad_op_kind_rejected():
    with pytest.raises(BenchmarkError):
        HStoreEngine(2).execute(HStoreTxn(ops=[TxnOp("upsert", "k", b"v")]))


def test_invalid_partition_count():
    with pytest.raises(BenchmarkError):
        HStoreEngine(0)


def test_throughput_metrics():
    engine = HStoreEngine(8)
    load_ycsb(engine, 1000)
    run_ycsb(engine, 5000, 1000)
    assert engine.committed == 5000
    assert engine.throughput_tx_s() > 50_000  # in-memory speed class
    assert engine.mean_latency_s() < 0.001  # sub-millisecond


def test_figure14_shape_ycsb_vs_smallbank():
    """YCSB >> Smallbank on H-Store due to 2PC (paper's 6.6x)."""
    ycsb = HStoreEngine(8)
    load_ycsb(ycsb, 5000)
    run_ycsb(ycsb, 10_000, 5000)
    bank = HStoreEngine(8)
    load_smallbank(bank, 5000)
    run_smallbank(bank, 10_000, 5000)
    ratio = ycsb.throughput_tx_s() / bank.throughput_tx_s()
    assert 3.0 < ratio < 15.0
    assert bank.multi_partition_txns > 0


def test_smallbank_generator_covers_procedures():
    rng = random.Random(3)
    names = {smallbank_txn(rng, 100).name for _ in range(500)}
    assert names == {
        "send_payment",
        "amalgamate",
        "write_check",
        "transact_savings",
        "deposit_checking",
        "balance",
    }


def test_ycsb_generator_mix():
    rng = random.Random(3)
    names = {ycsb_txn(rng, 100).name for _ in range(100)}
    assert names == {"ycsb-read", "ycsb-write"}

