"""Unit tests for the fork-aware chain store."""

import pytest

from repro.chain import Block, Blockchain, Transaction
from repro.crypto import EMPTY_HASH
from repro.errors import InvalidBlock


def _block(parent, height, tag, txs=()):
    return Block.build(
        height, parent.hash, list(txs), EMPTY_HASH, f"m{tag}", float(height), {"tag": tag}
    )


def _tx(i):
    return Transaction.create("s", "c", "f", (i,), nonce=i)


def test_new_chain_has_genesis_tip():
    chain = Blockchain()
    assert chain.height == 0
    assert chain.tip is chain.genesis


def test_linear_extension():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    b2 = _block(b1, 2, "b")
    assert chain.add_block(b1)
    assert chain.add_block(b2)
    assert chain.height == 2
    assert chain.tip.hash == b2.hash


def test_duplicate_block_ignored():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    assert chain.add_block(b1)
    assert not chain.add_block(b1)
    assert chain.total_blocks == 1


def test_wrong_height_rejected():
    chain = Blockchain()
    bad = Block.build(5, chain.genesis.hash, [], EMPTY_HASH, "m", 1.0)
    with pytest.raises(InvalidBlock):
        chain.add_block(bad)


def test_fork_does_not_reorg_when_not_longer():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    b1_rival = _block(chain.genesis, 1, "rival")
    chain.add_block(b1)
    assert not chain.add_block(b1_rival)
    assert chain.tip.hash == b1.hash
    assert chain.fork_blocks == 1


def test_longer_branch_wins():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    chain.add_block(b1)
    r1 = _block(chain.genesis, 1, "r1")
    r2 = _block(r1, 2, "r2")
    chain.add_block(r1)
    assert chain.add_block(r2)  # reorg onto the rival branch
    assert chain.tip.hash == r2.hash
    assert chain.on_main_branch(r1.hash)
    assert not chain.on_main_branch(b1.hash)


def test_fork_ratio():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    chain.add_block(b1)
    chain.add_block(_block(chain.genesis, 1, "rival"))
    assert chain.total_blocks == 2
    assert chain.main_branch_blocks == 1
    assert chain.fork_ratio() == 0.5


def test_fork_ratio_empty_chain():
    assert Blockchain().fork_ratio() == 1.0


def test_orphans_connect_when_parent_arrives():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    b2 = _block(b1, 2, "b")
    assert not chain.add_block(b2)  # parent unknown: orphaned
    assert chain.orphan_count() == 1
    assert chain.add_block(b1)  # connects both
    assert chain.height == 2
    assert chain.orphan_count() == 0


def test_block_by_height_and_range():
    chain = Blockchain()
    parent = chain.genesis
    for h in range(1, 6):
        parent = _block(parent, h, f"x{h}", [_tx(h)])
        chain.add_block(parent)
    assert chain.block_by_height(3).height == 3
    assert chain.block_by_height(99) is None
    blocks = chain.blocks_in_range(1, 4)  # (1, 4] => heights 2,3,4
    assert [b.height for b in blocks] == [2, 3, 4]
    txs = [tx for b in chain.blocks_in_range(0, 5) for tx in b.transactions]
    assert len(txs) == 5


def test_main_branch_iteration():
    chain = Blockchain()
    b1 = _block(chain.genesis, 1, "a")
    chain.add_block(b1)
    heights = [b.height for b in chain.main_branch()]
    assert heights == [0, 1]


def test_deep_reorg_after_partition_heals():
    """Two isolated branches race; the longer one wins on heal."""
    chain = Blockchain()
    # Branch A: 3 blocks.
    parent = chain.genesis
    branch_a = []
    for h in range(1, 4):
        parent = _block(parent, h, f"a{h}")
        branch_a.append(parent)
        chain.add_block(parent)
    # Branch B: 5 blocks built privately, then delivered.
    parent = chain.genesis
    for h in range(1, 6):
        parent = _block(parent, h, f"b{h}")
        chain.add_block(parent)
    assert chain.height == 5
    assert chain.tip.header.meta("tag") == "b5"
    assert chain.fork_blocks == 3
    assert all(not chain.on_main_branch(b.hash) for b in branch_a)
