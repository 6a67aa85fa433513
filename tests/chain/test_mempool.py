"""Unit tests for the mempool."""

from repro.chain import Mempool, Transaction


def _tx(i):
    return Transaction.create("s", "c", "f", (i,), nonce=i)


def test_add_and_len():
    pool = Mempool()
    assert pool.add(_tx(1))
    assert len(pool) == 1


def test_duplicates_rejected():
    pool = Mempool()
    tx = _tx(1)
    assert pool.add(tx)
    assert not pool.add(tx)
    assert len(pool) == 1


def test_peek_batch_fifo_order():
    pool = Mempool()
    txs = [_tx(i) for i in range(5)]
    for tx in txs:
        pool.add(tx)
    batch = pool.peek_batch(3)
    assert [t.tx_id for t in batch] == [t.tx_id for t in txs[:3]]
    assert len(pool) == 5  # peek does not remove


def test_remove_committed():
    pool = Mempool()
    txs = [_tx(i) for i in range(4)]
    for tx in txs:
        pool.add(tx)
    removed = pool.remove([txs[0].tx_id, txs[2].tx_id, "unknown"])
    assert removed == 2
    assert len(pool) == 2


def test_contains():
    pool = Mempool()
    tx = _tx(1)
    pool.add(tx)
    assert tx.tx_id in pool
    assert "nope" not in pool
