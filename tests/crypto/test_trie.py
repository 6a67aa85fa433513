"""Unit and property tests for the Patricia-Merkle trie."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    DictNodeStore,
    PatriciaTrie,
    StateTrie,
    from_nibbles,
    sha256,
    to_nibbles,
)
from repro.crypto.trie import canonical_node, canonical_size, stored_node
from repro.errors import CorruptionError


@pytest.fixture
def trie():
    return PatriciaTrie(DictNodeStore())


def test_nibble_roundtrip():
    key = bytes(range(256))
    assert from_nibbles(to_nibbles(key)) == key


def test_odd_nibbles_rejected():
    with pytest.raises(CorruptionError):
        from_nibbles((1, 2, 3))


def test_get_missing_from_empty(trie):
    assert trie.get(None, b"missing") is None


def test_put_get_single(trie):
    root = trie.put(None, b"key", b"value")
    assert trie.get(root, b"key") == b"value"


def test_overwrite_value(trie):
    root = trie.put(None, b"key", b"v1")
    root = trie.put(root, b"key", b"v2")
    assert trie.get(root, b"key") == b"v2"


def test_prefix_keys_do_not_collide(trie):
    root = trie.put(None, b"dog", b"1")
    root = trie.put(root, b"doge", b"2")
    root = trie.put(root, b"do", b"3")
    assert trie.get(root, b"dog") == b"1"
    assert trie.get(root, b"doge") == b"2"
    assert trie.get(root, b"do") == b"3"
    assert trie.get(root, b"d") is None


def test_copy_on_write_preserves_old_roots(trie):
    root1 = trie.put(None, b"a", b"1")
    root2 = trie.put(root1, b"b", b"2")
    assert trie.get(root1, b"b") is None
    assert trie.get(root2, b"a") == b"1"


def test_same_content_same_root(trie):
    r1 = trie.put(None, b"x", b"1")
    r1 = trie.put(r1, b"y", b"2")
    r2 = trie.put(None, b"y", b"2")
    r2 = trie.put(r2, b"x", b"1")
    assert r1 == r2  # root is order-independent for the same final map


def test_delete_only_key_empties_trie(trie):
    root = trie.put(None, b"k", b"v")
    assert trie.delete(root, b"k") is None


def test_delete_missing_key_keeps_root(trie):
    root = trie.put(None, b"k", b"v")
    assert trie.delete(root, b"nope") == root


def test_delete_restores_prior_root(trie):
    root1 = trie.put(None, b"a", b"1")
    root2 = trie.put(root1, b"b", b"2")
    root3 = trie.delete(root2, b"b")
    assert root3 == root1


def test_node_writes_accumulate(trie):
    before = trie.node_writes
    root = trie.put(None, b"abcdefgh", b"v")
    trie.put(root, b"abcdefgi", b"w")
    # Second insert shares a long prefix: several path nodes rewritten.
    assert trie.node_writes - before >= 4


def test_items_iterates_all(trie):
    root = None
    expected = {}
    for i in range(50):
        key = f"key-{i:03d}".encode()
        root = trie.put(root, key, str(i).encode())
        expected[key] = str(i).encode()
    assert dict(trie.items(root)) == expected


def test_state_trie_snapshots():
    state = StateTrie()
    state.put(b"acct", b"100")
    idx0 = state.snapshot()
    state.put(b"acct", b"50")
    idx1 = state.snapshot()
    assert state.get_at(idx0, b"acct") == b"100"
    assert state.get_at(idx1, b"acct") == b"50"
    assert state.get(b"acct") == b"50"


def test_state_trie_delete():
    state = StateTrie()
    state.put(b"a", b"1")
    state.delete(b"a")
    assert state.get(b"a") is None


def test_state_trie_root_hash_changes():
    state = StateTrie()
    r0 = state.root_hash()
    state.put(b"a", b"1")
    assert state.root_hash() != r0


# ---------------------------------------------------------------------------
# Batched update (PR 5): one pass per block-commit write-set
# ---------------------------------------------------------------------------
def _sequential(ops):
    """Reference: the same ops applied one put/delete at a time."""
    trie = PatriciaTrie(DictNodeStore())
    root = None
    for key, value in ops:
        if value is None:
            root = trie.delete(root, key)
        else:
            root = trie.put(root, key, value)
    return trie, root


def test_update_empty_batch_keeps_root(trie):
    root = trie.put(None, b"k", b"v")
    assert trie.update(root, []) == root
    assert trie.update(None, []) is None


def test_update_batch_matches_sequential_puts(trie):
    batch = [(b"acct:%04d" % i, b"%08d" % i) for i in range(200)]
    _, expected = _sequential(batch)
    assert trie.update(None, batch) == expected


def test_update_is_last_write_wins(trie):
    root = trie.update(None, [(b"k", b"v1"), (b"k", b"v2"), (b"k", b"v3")])
    assert trie.get(root, b"k") == b"v3"
    assert root == trie.put(None, b"k", b"v3")


def test_update_shares_path_segments(trie):
    """K writes under a common prefix: far fewer node writes than K
    full leaf-to-root path rewrites."""
    batch = [(b"acct:%016d" % i, b"x") for i in range(500)]
    sequential_trie, expected = _sequential(batch)
    root = trie.update(None, batch)
    assert root == expected
    assert trie.node_writes < sequential_trie.node_writes / 3


def test_update_mixed_puts_and_deletes(trie):
    root = trie.update(None, [(b"a", b"1"), (b"ab", b"2"), (b"abc", b"3")])
    root = trie.update(root, [(b"ab", None), (b"abcd", b"4"), (b"a", b"9")])
    assert dict(trie.items(root)) == {b"a": b"9", b"abc": b"3", b"abcd": b"4"}
    _, expected = _sequential(
        [(b"a", b"1"), (b"ab", b"2"), (b"abc", b"3"),
         (b"ab", None), (b"abcd", b"4"), (b"a", b"9")]
    )
    assert root == expected


def test_update_delete_then_put_same_key_in_one_batch(trie):
    """Within one batch the net write wins: delete-then-put is a put."""
    root = trie.put(None, b"k", b"old")
    root = trie.update(root, [(b"k", None), (b"k", b"new")])
    assert trie.get(root, b"k") == b"new"
    assert root == trie.put(None, b"k", b"new")


def test_update_put_then_delete_same_key_in_one_batch(trie):
    root = trie.put(None, b"keep", b"1")
    root = trie.update(root, [(b"k", b"v"), (b"k", None)])
    assert root == trie.put(None, b"keep", b"1")


def test_update_delete_of_missing_key_is_noop(trie):
    root = trie.put(None, b"k", b"v")
    assert trie.update(root, [(b"nope", None)]) == root
    assert trie.update(None, [(b"nope", None)]) is None


def test_update_same_value_overwrites_keep_root(trie):
    root = trie.update(None, [(b"a", b"1"), (b"b", b"2")])
    assert trie.update(root, [(b"a", b"1"), (b"b", b"2")]) == root


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=6),
                  st.one_of(st.none(), st.binary(max_size=8))),
        max_size=40,
    ),
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=6),
                  st.one_of(st.none(), st.binary(max_size=8))),
        max_size=40,
    ),
)
def test_property_update_matches_sequential(pre_ops, batch):
    """Differential oracle: batched update == puts/deletes one at a
    time, for any pre-state and any batch (including in-batch
    overwrites, deletes of missing keys, and delete/put interleave)."""
    _, expected_pre = _sequential(pre_ops)
    seq_trie, expected = _sequential(pre_ops + batch)
    batched = PatriciaTrie(DictNodeStore())
    root = None
    for key, value in pre_ops:
        root = (
            batched.delete(root, key)
            if value is None
            else batched.put(root, key, value)
        )
    assert root == expected_pre
    assert batched.update(root, batch) == expected


_keys = st.binary(min_size=1, max_size=8)
_values = st.binary(min_size=1, max_size=16)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "delete"]), _keys, _values),
        max_size=60,
    )
)
def test_property_trie_matches_dict_model(ops):
    trie = PatriciaTrie(DictNodeStore())
    root = None
    model = {}
    for op, key, value in ops:
        if op == "put":
            root = trie.put(root, key, value)
            model[key] = value
        else:
            root = trie.delete(root, key)
            model.pop(key, None)
    for key, value in model.items():
        assert trie.get(root, key) == value
    if root is None:
        assert model == {}
    else:
        assert dict(trie.items(root)) == model


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(_keys, _values, min_size=1, max_size=30))
def test_property_root_is_content_deterministic(mapping):
    def build(order):
        trie = PatriciaTrie(DictNodeStore())
        root = None
        for key in order:
            root = trie.put(root, key, mapping[key])
        return root

    keys = list(mapping)
    assert build(keys) == build(list(reversed(keys)))


# ---------------------------------------------------------------------------
# Commit once per cluster: adopt(*update(items, journal=True)) ≡ update(items)
# ---------------------------------------------------------------------------
_journal_write_sets = st.lists(
    st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=2),
            st.one_of(st.none(), st.binary(max_size=3)),
        ),
        max_size=12,
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None)
@given(_journal_write_sets)
def test_property_adopt_equals_update(write_sets):
    """Puts, overwrites, same-value rewrites, deletes and deletes of
    missing keys. The record names the store its update wrote to and
    the bytes it counted. Adopted into another store it makes the
    computing trie's puts (same contents, same order, same byte count);
    adopted into the store it names, it makes no store write. Either
    adopter ends every step with the computing trie's counters, root
    and history — and a plain, unjournalled trie agrees. A record made
    for a shared store counts the saves instead of listing them, and
    installs the same way into that store."""
    from repro.storage import MemKVStore

    computing, adopting, plain, counting = (
        StateTrie(MemKVStore()) for _ in range(4)
    )
    sharing = StateTrie(computing.trie.store)
    counted_sharing = StateTrie(counting.trie.store)
    for height, items in enumerate(write_sets):
        assert plain.update(items) is None
        record = computing.update(items, journal=True)
        count_only = counting.update(items, journal=True, shared=True)
        assert count_only == (
            record[0], len(record[1]), counting.trie.store, record[3]
        )
        counted_sharing.adopt(*count_only)
        assert computing.trie.journal is None  # journalling ended
        root, saves, store, counted = record
        assert root == computing.root == plain.root
        assert store is computing.trie.store
        canonical = [canonical_node(blob) for _, blob in saves]
        assert counted == sum(len(blob) + 32 for blob in canonical)
        assert [d for d, _ in saves] == [sha256(blob) for blob in canonical]
        adopting.adopt(*record)
        writes = store.write_ops
        sharing.adopt(*record)
        assert store.write_ops == writes  # the nodes are already there
        for trie in (computing, adopting, sharing, plain, counted_sharing):
            trie.snapshot()
        assert (
            adopting.root_hash() == sharing.root_hash() == computing.root_hash()
        )
        # dict equality plus order: same puts in the same order.
        assert list(adopting.trie.store._data.items()) == list(
            computing.trie.store._data.items()
        )
        for counter in ("node_writes", "bytes_written"):
            assert (
                getattr(adopting.trie, counter)
                == getattr(sharing.trie, counter)
                == getattr(computing.trie, counter)
                == getattr(plain.trie, counter)
                == getattr(counted_sharing.trie, counter)
            )
        a_store, c_store = adopting.trie.store, computing.trie.store
        assert a_store.approx_bytes() == c_store.approx_bytes()
        assert a_store.write_ops == c_store.write_ops == plain.trie.store.write_ops
        assert dict(adopting.items()) == dict(sharing.items()) == dict(
            computing.items()
        )
    assert (
        adopting.history
        == sharing.history
        == computing.history
        == counted_sharing.history
    )
    keys = {key for items in write_sets for key, _ in items}
    for height in range(len(write_sets)):
        for key in keys:
            expected = computing.get_at(height, key)
            assert adopting.get_at(height, key) == expected
            assert sharing.get_at(height, key) == expected


def test_adopt_then_update_locally_and_back():
    """A trie may alternate between adopting and computing; a local
    update makes the record an adopted one would have been."""
    a, b = StateTrie(), StateTrie()
    for step in range(6):
        items = [(b"k%d" % (step * 3 + i), b"v%d" % step) for i in range(5)]
        items.append((b"k%d" % step, None))
        record = a.update(items, journal=True)
        if step % 2:
            b.adopt(*record)
        else:
            root, saves, store, counted = b.update(items, journal=True)
            assert store is b.trie.store
            assert (root, saves, counted) == (record[0], record[1], record[3])
        assert b.root == a.root
        assert b.trie.node_writes == a.trie.node_writes
    assert dict(b.items()) == dict(a.items())


def test_a_counted_record_installs_only_into_the_store_it_names():
    """A record that counts its nodes cannot make another store's puts:
    installing it there raises instead of leaving that store without
    the nodes its new root needs."""
    computing = StateTrie()
    items = [(b"k%02d" % i, b"v%d" % i) for i in range(20)]
    record = computing.update(items, journal=True, shared=True)
    assert record[1] == computing.trie.node_writes > 20
    elsewhere = StateTrie()
    with pytest.raises(CorruptionError, match="the store it names"):
        elsewhere.adopt(*record)
    assert elsewhere.root is None
    assert elsewhere.trie.node_writes == elsewhere.trie.bytes_written == 0
    sharing = StateTrie(computing.trie.store)
    sharing.adopt(*record)
    assert dict(sharing.items()) == dict(items)


def test_stored_branches_convert_to_their_canonical_bytes():
    """Each stored node converts to the canonical bytes its digest
    hashes and back, and is charged at that size."""
    trie = PatriciaTrie(DictNodeStore())
    trie.update(None, [(bytes([i, j]), b"v") for i in range(16) for j in (0, 7)])
    stored = trie.store._data
    assert {blob[0] for blob in stored.values()} == {0, 1, 2}
    for digest, blob in stored.items():
        canonical = canonical_node(blob)
        assert sha256(canonical) == digest
        assert stored_node(canonical) == blob
        assert canonical_size(blob) == len(canonical)
        if blob[0] == 2:  # the same flag and value after 16 slots
            present = int.from_bytes(blob[1:3], "big").bit_count()
            assert canonical[1 + 16 * 32 :] == blob[3 + 32 * present :]


def test_journal_is_dropped_when_the_store_refuses_a_put():
    """Parity's cap raises from ``store.put`` mid-update: no record is
    made, and the journal does not leak into the next update."""
    from repro.errors import StorageError
    from repro.storage import MemKVStore

    state = StateTrie(MemKVStore(memory_cap_bytes=400))
    with pytest.raises(StorageError, match="out of memory"):
        state.update(
            [(b"key%02d" % i, b"x" * 40) for i in range(30)], journal=True
        )
    assert state.trie.journal is None
    assert state.root is None  # the root swap never happened


# ---------------------------------------------------------------------------
# Golden pin: save order and read counts, not only roots
# ---------------------------------------------------------------------------
#: Bytes whose nibbles are mostly 0, 1 and f: random keys over them share
#: long nibble runs, so the script keeps splitting and merging extensions.
_GOLDEN_ALPHABET = b"\x00\x01\x10\x11\xf0"


def _golden_batches():
    """A fixed script of update batches: a build from empty, extension
    splits, branch values (keys that are prefixes of other keys),
    deletes that collapse branches and merge extensions, same-value
    overwrites and deletes of missing keys. Only ``Random.random`` is
    drawn: its sequence for an int seed is stable across Python
    versions."""
    batches = [
        # Build from empty; "do" < "dog" < "doge" put values on branches.
        [(b"do", b"verb"), (b"dog", b"puppy"), (b"doge", b"coin"),
         (b"horse", b"stallion"), (b"dogs", b"pack")],
        # Split the shared "do" extension, and the leaf under "h".
        [(b"dx", b"1"), (b"doe", b"reindeer"), (b"hoof", b"2")],
        # Same-value overwrites only: nothing is saved.
        [(b"dog", b"puppy"), (b"horse", b"stallion")],
        # A branch loses its value but keeps "doge" and "dogs".
        [(b"dog", None)],
        # Missing keys: one ending on that value-less branch, one on an
        # empty child slot. Then collapse the branches and merge the
        # extensions back.
        [(b"dog", None), (b"e", None), (b"dx", None), (b"doe", None),
         (b"do", None), (b"hoof", None)],
        [(b"dogs", None), (b"doge", None), (b"nope", None)],
        # Empty the trie, with deletes left over once it is empty.
        [(b"horse", None), (b"zebra", None)],
    ]
    rng = random.Random(22)

    def pick(n):
        return int(rng.random() * n)

    live: dict[bytes, bytes] = {}
    for _ in range(14):
        batch = []
        for _ in range(1 + pick(24)):
            roll = rng.random()
            if live and roll < 0.3:
                batch.append((sorted(live)[pick(len(live))], None))
            elif live and roll < 0.45:
                key = sorted(live)[pick(len(live))]
                batch.append((key, live[key]))
            elif roll < 0.5:
                batch.append((b"\xff" + bytes([pick(256)]), None))
            else:
                key = bytes(_GOLDEN_ALPHABET[pick(5)] for _ in range(1 + pick(4)))
                batch.append((key, bytes([pick(4)]) * (1 + pick(3))))
            key, value = batch[-1]
            if value is None:
                live.pop(key, None)
            else:
                live[key] = value
        batches.append(batch)
    return batches


def _golden_run(store):
    """Every saved ``(digest, canonical blob)`` in order, every root,
    and the counters after the script plus reads at every height."""
    state = StateTrie(store)
    batches = _golden_batches()
    keys = sorted({key for batch in batches for key, _ in batch})
    h = hashlib.sha256()
    for items in batches:
        root, saves, _, _ = state.update(items, journal=True)
        h.update(root or b"-")
        for digest, blob in saves:
            blob = canonical_node(blob)
            h.update(digest + len(blob).to_bytes(4, "big") + blob)
        state.snapshot()
    for height in range(len(batches)):
        for key in keys:
            h.update(state.get_at(height, key) or b"-")
    for key, value in state.items():
        h.update(key + b"=" + value)
    trie = state.trie
    return h.hexdigest(), trie.node_writes, trie.node_reads, trie.bytes_written


def test_golden_script_pins_save_order_and_counts():
    """Captured before nodes became their encoded bytes: the same nodes
    saved in the same order (Parity's cap trips at the same put, and
    ``adopt`` replays the record), one read per node visited."""
    from repro.storage import MemKVStore

    expected = (
        "1b093a8c55443853c2ef6241027104fa895a06477c2c0a48a5b227239d8148a1",
        357,  # node_writes
        4708,  # node_reads
        115615,  # bytes_written
    )
    assert _golden_run(DictNodeStore()) == expected
    assert _golden_run(MemKVStore()) == expected
