"""Unit tests for transactions and receipts."""

import dataclasses

from repro.chain import Transaction, transaction


def test_create_assigns_content_derived_id():
    tx1 = Transaction.create("alice", "kv", "write", (b"k", b"v"), nonce=1)
    tx2 = Transaction.create("alice", "kv", "write", (b"k", b"v"), nonce=1)
    assert tx1.tx_id == tx2.tx_id


def test_id_binds_every_field():
    base = Transaction.create("a", "c", "f", (1,), value=0, nonce=1)
    assert base.tx_id != Transaction.create("b", "c", "f", (1,), value=0, nonce=1).tx_id
    assert base.tx_id != Transaction.create("a", "d", "f", (1,), value=0, nonce=1).tx_id
    assert base.tx_id != Transaction.create("a", "c", "g", (1,), value=0, nonce=1).tx_id
    assert base.tx_id != Transaction.create("a", "c", "f", (2,), value=0, nonce=1).tx_id
    assert base.tx_id != Transaction.create("a", "c", "f", (1,), value=5, nonce=1).tx_id
    assert base.tx_id != Transaction.create("a", "c", "f", (1,), value=0, nonce=2).tx_id


def test_size_accounts_for_payload():
    small = Transaction.create("a", "c", "f", (), nonce=1)
    big = Transaction.create("a", "c", "f", ("x" * 500,), nonce=1)
    assert big.size_bytes() > small.size_bytes() + 400


def test_negative_value_supported():
    tx = Transaction.create("a", "c", "f", (), value=-5, nonce=1)
    assert tx.value == -5


def test_size_is_memoized():
    tx = Transaction.create("alice", "kv", "write", ("k" * 40, "v" * 90), nonce=1)
    size = tx.size_bytes()
    assert size == 110 + len("alice") + len("kv") + len("write") + len(
        repr(tx.args).encode()
    )
    assert tx.size_bytes() == size
    # A fresh object with the same fields agrees: the cache holds only
    # what tx_id already freezes.
    twin = dataclasses.replace(tx)
    assert "_size" not in vars(twin)
    assert twin.size_bytes() == size
    assert twin == tx


def test_create_encodes_the_args_once(monkeypatch):
    """The id and the wire size share one encoding of the args."""
    encoded = []
    encode = transaction._encode_args
    monkeypatch.setattr(
        transaction, "_encode_args", lambda args: encoded.append(args) or encode(args)
    )
    tx = Transaction.create("alice", "kv", "write", ("k" * 40, "v" * 90), nonce=1)
    size = tx.size_bytes()
    assert encoded == [tx.args]
    # A directly constructed twin measures itself, and agrees.
    assert dataclasses.replace(tx).size_bytes() == size
    assert encoded == [tx.args, tx.args]
