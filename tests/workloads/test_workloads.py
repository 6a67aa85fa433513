"""Unit tests for workload generators."""

import random

import pytest

from repro.chain import Transaction
from repro.errors import BenchmarkError
from repro.workloads import (
    DoNothingWorkload,
    DoublerWorkload,
    EtherIdWorkload,
    SmallbankWorkload,
    WavesPresaleWorkload,
    YCSBConfig,
    YCSBWorkload,
    ZipfianGenerator,
    make_workload,
)


@pytest.fixture
def rng():
    return random.Random(17)


def test_make_workload_by_name():
    assert make_workload("ycsb").name == "ycsb"
    assert make_workload("smallbank").name == "smallbank"
    with pytest.raises(BenchmarkError):
        make_workload("tpcc")


def test_make_workload_with_params():
    workload = make_workload("ycsb", record_count=10, read_proportion=1.0,
                             update_proportion=0.0)
    assert workload.config.record_count == 10


def test_zipfian_skews_to_head(rng):
    gen = ZipfianGenerator(1000)
    draws = [gen.next(rng) for _ in range(5000)]
    head = sum(1 for d in draws if d < 100)
    assert head > len(draws) * 0.5  # hot head
    assert all(0 <= d < 1000 for d in draws)


def test_zipfian_rejects_empty():
    with pytest.raises(BenchmarkError):
        ZipfianGenerator(0)


def test_ycsb_proportions_validated():
    with pytest.raises(BenchmarkError):
        YCSBConfig(read_proportion=0.9, update_proportion=0.9).validate()
    with pytest.raises(BenchmarkError):
        YCSBConfig(distribution="gaussian").validate()


def test_ycsb_generates_reads_and_writes(rng):
    workload = YCSBWorkload(YCSBConfig(record_count=100))
    functions = {
        workload.next_transaction("c0", rng, 0.0).function for _ in range(200)
    }
    assert functions == {"read", "write"}


def test_ycsb_inserts_use_fresh_keys(rng):
    workload = YCSBWorkload(
        YCSBConfig(
            record_count=10,
            read_proportion=0.0,
            update_proportion=0.0,
            insert_proportion=1.0,
        )
    )
    keys = [
        workload.next_transaction("c0", rng, 0.0).args[0] for _ in range(20)
    ]
    assert len(set(keys)) == 20
    assert keys[0] == "user10"  # first insert goes past the preload


def test_ycsb_uniform_distribution(rng):
    workload = YCSBWorkload(
        YCSBConfig(record_count=50, distribution="uniform")
    )
    txs = [workload.next_transaction("c0", rng, 0.0) for _ in range(100)]
    assert all(tx.contract == "kvstore" for tx in txs)


def test_smallbank_operations_cover_mix(rng):
    workload = SmallbankWorkload()
    functions = {
        workload.next_transaction("c0", rng, 0.0).function for _ in range(500)
    }
    assert functions == {
        "transact_savings",
        "deposit_checking",
        "send_payment",
        "write_check",
        "amalgamate",
        "balance",
    }


def test_smallbank_payment_args_distinct_accounts(rng):
    workload = SmallbankWorkload()
    for _ in range(300):
        tx = workload.next_transaction("c0", rng, 0.0)
        if tx.function == "send_payment":
            assert tx.args[0] != tx.args[1]
            assert tx.value == tx.args[2]


def test_etherid_mix(rng):
    workload = EtherIdWorkload()
    functions = {
        workload.next_transaction("c0", rng, 1.0).function for _ in range(300)
    }
    assert functions == {"register", "set_value", "buy", "lookup"}


def test_etherid_registrations_unique(rng):
    workload = EtherIdWorkload()
    domains = set()
    for _ in range(300):
        tx = workload.next_transaction("c0", rng, 1.0)
        if tx.function == "register":
            assert tx.args[0] not in domains
            domains.add(tx.args[0])


def test_doubler_entries_have_value(rng):
    workload = DoublerWorkload()
    tx = workload.next_transaction("c0", rng, 0.0)
    assert tx.function == "enter"
    assert tx.value > 0


def test_wavespresale_transfers_by_owner(rng):
    workload = WavesPresaleWorkload()
    owners = {}
    for _ in range(300):
        tx = workload.next_transaction("c0", rng, 0.0)
        if tx.function == "new_sale":
            owners[0] = tx.sender
        elif tx.function == "transfer_sale":
            # Transfer is always issued by the recorded current owner.
            assert tx.sender.startswith("c0-buyer")


def test_donothing_generates_nops(rng):
    workload = DoNothingWorkload()
    tx = workload.next_transaction("c0", rng, 0.0)
    assert (tx.contract, tx.function) == ("donothing", "nop")


@pytest.mark.parametrize(
    "workload_type",
    [YCSBWorkload, SmallbankWorkload, EtherIdWorkload, DoublerWorkload,
     WavesPresaleWorkload, DoNothingWorkload],
    ids=lambda workload_type: workload_type.name,
)
def test_workload_nonces_distinguish_identical_calls(workload_type):
    """Each instance numbers its own transactions from 0: identical
    calls get distinct ids, and a second instance replays the first's
    stream id for id, whatever ran before it in this interpreter."""
    first, second = workload_type(), workload_type()
    nops = [first.next_transaction("c0", random.Random(3), 0.0) for _ in range(3)]
    assert [tx.tx_id for tx in nops] == [
        Transaction.create(
            tx.sender, tx.contract, tx.function, tx.args, tx.value, nonce=nonce
        ).tx_id
        for nonce, tx in enumerate(nops)
    ]
    assert len({tx.tx_id for tx in nops}) == 3
    replay = [second.next_transaction("c0", random.Random(3), 0.0) for _ in range(3)]
    assert [tx.tx_id for tx in replay] == [tx.tx_id for tx in nops]
