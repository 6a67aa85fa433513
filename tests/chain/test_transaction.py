"""Unit tests for transactions and receipts."""

import copy
import dataclasses
import hashlib
import tracemalloc

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.chain import BlockReceipts, Transaction, transaction


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
    assert twin._size == 0
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


def test_instance_has_no_dict():
    tx = Transaction.create("alice", "kv", "write", ("k", "v"), nonce=1)
    assert not hasattr(tx, "__dict__")
    with pytest.raises(AttributeError):
        tx.nonce = 1


def test_instance_is_small():
    """Every confirmed transaction lives until the report: slotted and
    without a nonce, an instance is ~88 B (an unslotted one with its
    nonce, 144 B plus the nonce int, on CPython 3.11)."""
    fields = [("ab" * 32, "client-0", "kv", "write", ("key", "value"), 0)
              for _ in range(1000)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        txs = [Transaction(*f) for f in fields]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The list holding the instances is 8 B per slot.
    per_tx = (after - before) / len(txs) - 8
    assert per_tx < 112, f"{per_tx:.0f} B per transaction"


def test_direct_and_replaced_twins_measure_their_own_size():
    tx = Transaction.create("alice", "kv", "write", ("k" * 40, "v" * 90), nonce=1)
    direct = Transaction(tx.tx_id, tx.sender, tx.contract, tx.function, tx.args)
    replaced = dataclasses.replace(tx, value=0)
    for twin in (direct, replaced):
        assert twin._size == 0
        assert twin.size_bytes() == tx.size_bytes()
        assert twin._size == tx.size_bytes()
        assert twin == tx


#: What a contract returns: ``str``, ``int``, ``bool``, ``None``, or
#: JSON-decoded dicts and lists of them (floats among them).
_OUTPUT = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def _outputs_digest(outputs):
    tx_ids = tuple(f"t{i}" for i in range(len(outputs)))
    return BlockReceipts.pack(
        tx_ids, 1, [(21_000, output, None) for output in outputs]
    ).outputs_digest


@given(outputs=st.lists(_OUTPUT, min_size=2, max_size=6), data=st.data())
def test_the_outputs_digest_commits_to_every_output_in_block_order(
    outputs, data
):
    """A record keeps the SHA-256 of ``repr`` of its outputs tuple:
    equal outputs give equal digests, and changing any one output or
    swapping two different ones changes it."""
    digest = _outputs_digest(outputs)
    assert digest == hashlib.sha256(repr(tuple(outputs)).encode()).digest()
    assert _outputs_digest(copy.deepcopy(outputs)) == digest
    i = data.draw(st.integers(0, len(outputs) - 1))
    changed = data.draw(_OUTPUT.filter(lambda out: repr(out) != repr(outputs[i])))
    assert _outputs_digest(outputs[:i] + [changed] + outputs[i + 1:]) != digest
    j = data.draw(st.integers(0, len(outputs) - 1))
    assume(repr(outputs[i]) != repr(outputs[j]))
    swapped = list(outputs)
    swapped[i], swapped[j] = outputs[j], outputs[i]
    assert _outputs_digest(swapped) != digest
