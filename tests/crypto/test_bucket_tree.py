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


# ---------------------------------------------------------------------------
# Commit once per cluster: install(items, digests) ≡ update(items) + flush()
# ---------------------------------------------------------------------------
# Few distinct keys, so sequences hit overwrites, same-value rewrites,
# deletes of live keys and deletes of missing ones.
_write_sets = st.lists(
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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 16, 1024]), _write_sets)
def test_property_install_equals_compute(n_buckets, write_sets):
    computing, installing = BucketTree(n_buckets), BucketTree(n_buckets)
    for items in write_sets:
        computing.update(items)
        digests = computing.flush()
        installing.install(items, digests)
        assert installing._levels == computing._levels
        assert installing.items() == computing.items()
        assert installing.key_count == computing.key_count
        assert not installing._dirty
        assert installing.root_hash() == computing.root_hash()
    content = dict(computing.items())
    assert installing.root_hash() == reference_root(content, n_buckets)


def test_install_after_hashing_locally_and_back():
    """A tree may alternate between the two (a replica that falls out
    of the memo's window computes, then installs again)."""
    a, b = BucketTree(16), BucketTree(16)
    for step in range(6):
        items = [(b"k%d" % (step * 3 + i), b"v%d" % step) for i in range(5)]
        items.append((b"k%d" % step, None))
        a.update(items)
        digests = a.flush()
        if step % 2:
            b.install(items, digests)
        else:
            b.update(items)
            assert b.flush() == digests
        assert b._levels == a._levels


def test_flush_returns_level_then_index_order():
    tree = BucketTree(4)
    tree.update([(b"k%d" % i, b"v") for i in range(40)])  # every bucket dirty
    digests = tree.flush()
    assert list(digests) == [d for level in tree._levels for d in level]
    assert tree.flush() == ()  # nothing dirty, nothing recomputed


@pytest.mark.parametrize("n_buckets", [1, 3, 16, 1024])
def test_install_record_must_be_consumed_exactly(n_buckets):
    items = [(b"k%d" % i, b"v%d" % i) for i in range(9)] + [(b"gone", None)]
    source = BucketTree(n_buckets)
    source.update(items)
    digests = source.flush()
    assert digests[-1] == source.root_hash()
    for bad in (digests[:-1], digests + (digests[-1],), digests * 2, ()):
        with pytest.raises(StorageError, match="commit record"):
            BucketTree(n_buckets).install(items, bad)
    # A write-set that dirties nothing takes the empty record only.
    with pytest.raises(StorageError, match="commit record"):
        BucketTree(n_buckets).install([(b"missing", None)], digests[-1:])
    BucketTree(n_buckets).install([(b"missing", None)], ())


def test_refused_record_leaves_the_buckets_dirty():
    """Nothing stale survives a refusal: the next root_hash re-hashes."""
    items = [(b"a", b"1"), (b"b", b"2")]
    good = BucketTree(16)
    good.update(items)
    digests = good.flush()
    tree = BucketTree(16)
    with pytest.raises(StorageError):
        tree.install(items, digests[:-1])
    assert tree.root_hash() == good.root_hash()
