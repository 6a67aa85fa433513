"""Unit and property tests for the Bucket-Merkle tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import EMPTY_HASH, BucketTree, hash_items
from repro.errors import StorageError


def test_empty_roots_equal():
    assert BucketTree(16).root_hash() == BucketTree(16).root_hash()


def test_put_changes_root():
    tree = BucketTree(16)
    r0 = tree.root_hash()
    tree.put(b"k", b"v")
    assert tree.root_hash() != r0


def test_get_put_delete():
    tree = BucketTree(16)
    tree.put(b"k", b"v")
    assert tree.get(b"k") == b"v"
    tree.delete(b"k")
    assert tree.get(b"k") is None


def test_delete_restores_empty_root():
    tree = BucketTree(16)
    r0 = tree.root_hash()
    tree.put(b"k", b"v")
    tree.delete(b"k")
    assert tree.root_hash() == r0


def test_delete_missing_is_noop():
    tree = BucketTree(16)
    tree.put(b"a", b"1")
    r = tree.root_hash()
    tree.delete(b"missing")
    assert tree.root_hash() == r
    assert tree.key_count == 1


def test_key_count_tracks_distinct_keys():
    tree = BucketTree(16)
    tree.put(b"a", b"1")
    tree.put(b"a", b"2")  # overwrite, not a new key
    tree.put(b"b", b"1")
    assert tree.key_count == 2


def test_items_sorted_within_buckets():
    tree = BucketTree(4)
    for i in range(20):
        tree.put(f"k{i}".encode(), b"v")
    items = tree.items()
    assert len(items) == 20


def test_non_power_of_two_bucket_count():
    tree = BucketTree(10)
    for i in range(40):
        tree.put(f"k{i}".encode(), str(i).encode())
    for i in range(40):
        assert tree.get(f"k{i}".encode()) == str(i).encode()
    assert isinstance(tree.root_hash(), bytes)


def test_invalid_bucket_count():
    with pytest.raises(StorageError):
        BucketTree(0)


def test_single_bucket_tree():
    tree = BucketTree(1)
    tree.put(b"a", b"1")
    tree.put(b"b", b"2")
    assert tree.get(b"a") == b"1"
    r = tree.root_hash()
    tree.put(b"c", b"3")
    assert tree.root_hash() != r


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.binary(min_size=1, max_size=8), st.binary(max_size=8), max_size=30))
def test_property_root_content_deterministic(mapping):
    t1 = BucketTree(8)
    t2 = BucketTree(8)
    for key, value in mapping.items():
        t1.put(key, value)
    for key in reversed(list(mapping)):
        t2.put(key, mapping[key])
    assert t1.root_hash() == t2.root_hash()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.binary(min_size=1, max_size=6),
            st.binary(max_size=6),
        ),
        max_size=50,
    )
)
def test_property_matches_dict_model(ops):
    tree = BucketTree(8)
    model = {}
    for op, key, value in ops:
        if op == "put":
            tree.put(key, value)
            model[key] = value
        else:
            tree.delete(key)
            model.pop(key, None)
    for key, value in model.items():
        assert tree.get(key) == value
    assert tree.key_count == len(model)


# ---------------------------------------------------------------------------
# Batched update (PR 5): one level-wise Merkle flush per write-set
# ---------------------------------------------------------------------------
def test_update_matches_per_key_operations():
    batched, direct = BucketTree(16), BucketTree(16)
    writes = [(b"k%03d" % i, b"v%03d" % i) for i in range(64)]
    batched.update(writes)
    for key, value in writes:
        direct.put(key, value)
    assert batched.root_hash() == direct.root_hash()


def test_update_handles_deletes_and_overwrites():
    batched, direct = BucketTree(16), BucketTree(16)
    for tree in (batched, direct):
        tree.put(b"stays", b"1")
        tree.put(b"goes", b"2")
        tree.root_hash()
    batched.update([(b"goes", None), (b"stays", b"updated"), (b"new", b"3")])
    direct.delete(b"goes")
    direct.put(b"stays", b"updated")
    direct.put(b"new", b"3")
    assert batched.root_hash() == direct.root_hash()
    assert batched.get(b"goes") is None
    assert batched.key_count == direct.key_count == 2


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.binary(min_size=1, max_size=5),
            st.one_of(st.none(), st.binary(max_size=5)),
        ),
        max_size=60,
    )
)
def test_property_update_root_matches_sequential(batch):
    batched, direct = BucketTree(8), BucketTree(8)
    batched.update(batch)
    for key, value in batch:
        if value is None:
            direct.delete(key)
        else:
            direct.put(key, value)
    assert batched.root_hash() == direct.root_hash()
    assert batched.key_count == direct.key_count


# ---------------------------------------------------------------------------
# The bucket digest is hash_items(b"bucket", k1, v1, k2, v2, ...) in key
# order — the tree feeds the hasher directly, so this reference, written
# with hash_items alone, pins the digests bit for bit.
# ---------------------------------------------------------------------------
def reference_root(content: dict[bytes, bytes], n_buckets: int) -> bytes:
    probe = BucketTree(n_buckets)
    buckets: list[dict[bytes, bytes]] = [{} for _ in range(n_buckets)]
    for key, value in content.items():
        buckets[probe._bucket_index(key)][key] = value
    level = [
        hash_items(b"bucket", *(part for key in sorted(b) for part in (key, b[key])))
        if b else EMPTY_HASH
        for b in buckets
    ]
    while len(level) & (len(level) - 1):
        level.append(EMPTY_HASH)  # pad to the static power-of-two shape
    while len(level) > 1:
        level = [
            hash_items(b"bnode", level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "delete", "root"]),
            st.binary(min_size=1, max_size=4),
            st.binary(max_size=40),
        ),
        max_size=60,
    ),
    n_buckets=st.sampled_from([1, 3, 8]),
)
def test_property_roots_match_the_hash_items_reference(ops, n_buckets):
    tree = BucketTree(n_buckets)
    model: dict[bytes, bytes] = {}
    for op, key, value in ops:
        if op == "put":
            tree.put(key, value)
            model[key] = value
        elif op == "delete":
            tree.delete(key)
            model.pop(key, None)
        else:  # flush mid-sequence: dirty tracking must not skew a digest
            assert tree.root_hash() == reference_root(model, n_buckets)
    assert tree.root_hash() == reference_root(model, n_buckets)
    # Any interleaving that ends in the same content ends in the same root.
    fresh = BucketTree(n_buckets)
    fresh.update(sorted(model.items()))
    assert fresh.root_hash() == tree.root_hash()
