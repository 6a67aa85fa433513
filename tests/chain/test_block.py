"""Unit tests for blocks and headers."""

import dataclasses

from repro.chain import Block, Transaction, genesis_block
from repro.crypto import EMPTY_HASH


def _tx(i=0):
    return Transaction.create("s", "c", "f", (i,), nonce=i)


def test_genesis_is_deterministic():
    assert genesis_block("x").hash == genesis_block("x").hash
    assert genesis_block("x").hash != genesis_block("y").hash


def test_genesis_height_zero_empty():
    g = genesis_block()
    assert g.height == 0
    assert g.transactions == []
    assert g.header.tx_root == EMPTY_HASH


def test_build_links_parent():
    g = genesis_block()
    block = Block.build(1, g.hash, [_tx()], EMPTY_HASH, "miner", 1.0)
    assert block.header.parent_hash == g.hash
    assert block.height == 1


def test_hash_covers_transactions():
    g = genesis_block()
    b1 = Block.build(1, g.hash, [_tx(1)], EMPTY_HASH, "m", 1.0)
    b2 = Block.build(1, g.hash, [_tx(2)], EMPTY_HASH, "m", 1.0)
    assert b1.hash != b2.hash


def test_hash_covers_consensus_meta():
    g = genesis_block()
    b1 = Block.build(1, g.hash, [], EMPTY_HASH, "m", 1.0, {"nonce": 1})
    b2 = Block.build(1, g.hash, [], EMPTY_HASH, "m", 1.0, {"nonce": 2})
    assert b1.hash != b2.hash


def test_meta_lookup():
    g = genesis_block()
    block = Block.build(1, g.hash, [], EMPTY_HASH, "m", 1.0, {"view": 3})
    assert block.header.meta("view") == "3"
    assert block.header.meta("absent", "dflt") == "dflt"


def test_meta_order_insensitive():
    g = genesis_block()
    b1 = Block.build(1, g.hash, [], EMPTY_HASH, "m", 1.0, {"a": 1, "b": 2})
    b2 = Block.build(1, g.hash, [], EMPTY_HASH, "m", 1.0, {"b": 2, "a": 1})
    assert b1.hash == b2.hash


def test_size_grows_with_transactions():
    g = genesis_block()
    empty = Block.build(1, g.hash, [], EMPTY_HASH, "m", 1.0)
    full = Block.build(1, g.hash, [_tx(i) for i in range(10)], EMPTY_HASH, "m", 1.0)
    assert full.size_bytes() > empty.size_bytes()


def test_block_hash_is_memoized_and_equals_a_fresh_header():
    block = Block.build(
        height=3, parent_hash=genesis_block().hash, transactions=[_tx(i) for i in range(4)],
        state_root=EMPTY_HASH, proposer="n1", timestamp=1.25,
        consensus_meta={"view": 2},
    )
    first = block.hash
    assert block.hash is first  # the same bytes object: computed once
    fresh = dataclasses.replace(block.header)
    assert "_block_hash" not in vars(fresh)
    assert fresh.block_hash() == first
    assert fresh == block.header  # the cache is not part of identity
    changed = dataclasses.replace(block.header, timestamp=1.5)
    assert changed.block_hash() != first


def test_block_size_is_memoized_and_equals_a_fresh_block():
    block = Block.build(
        height=1, parent_hash=genesis_block().hash, transactions=[_tx(i) for i in range(5)],
        state_root=EMPTY_HASH, proposer="n1", timestamp=0.5,
    )
    size = block.size_bytes()
    assert size == 320 + sum(tx.size_bytes() for tx in block.transactions)
    assert block.size_bytes() == size
    assert Block(block.header, list(block.transactions)).size_bytes() == size


def test_tx_ids_is_one_tuple_in_block_order():
    txs = [_tx(i) for i in range(5)]
    block = Block.build(
        height=1, parent_hash=genesis_block().hash, transactions=txs,
        state_root=EMPTY_HASH, proposer="n1", timestamp=0.5,
    )
    assert block.tx_ids == tuple(tx.tx_id for tx in txs)
    assert block.tx_ids is block.tx_ids  # built once, shared by every replica
    twin = Block(block.header, list(txs))
    assert twin.tx_ids == block.tx_ids and twin == block
    assert genesis_block().tx_ids == ()
