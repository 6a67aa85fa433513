"""Unit and property tests for the Bucket-Merkle tree."""

import pytest
from hypothesis import example, given, settings
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
# order and an interior node hash_items(b"bnode", left, right) — the tree
# frames both itself (a length-prefix table, one buffer per digest), so
# this reference, written with hash_items alone, pins every digest of
# every level bit for bit.
# ---------------------------------------------------------------------------
def reference_levels(content: dict[bytes, bytes], n_buckets: int) -> list[list[bytes]]:
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
    levels = [level]
    while len(level) > 1:
        level = [
            hash_items(b"bnode", level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
        levels.append(level)
    return levels


def reference_root(content: dict[bytes, bytes], n_buckets: int) -> bytes:
    return reference_levels(content, n_buckets)[-1][0]


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
    assert tree._levels == reference_levels(model, n_buckets)
    # Any interleaving that ends in the same content ends in the same root.
    fresh = BucketTree(n_buckets)
    fresh.update(sorted(model.items()))
    assert fresh.root_hash() == tree.root_hash()


@pytest.mark.parametrize("n_buckets", [1, 3, 16])
def test_digests_equal_hash_items_for_long_keys_and_values(n_buckets):
    """The length-prefix table stops at 255 bytes; parts at and past the
    edge take the fallback and must frame identically — in one bucket
    next to short parts, and on an empty value."""
    sizes = [0, 1, 31, 32, 255, 256, 257, 300, 65_536, 70_000]
    content = {b"k%d:" % n + b"x" * n: b"v" * n for n in sizes}
    content[b"short"] = b"y" * 256
    content[b"z" * 256] = b""
    tree = BucketTree(n_buckets)
    tree.update(sorted(content.items()))
    tree.flush()
    assert tree._levels == reference_levels(content, n_buckets)
    assert BucketTree(n_buckets)._levels == reference_levels({}, n_buckets)


# ---------------------------------------------------------------------------
# Commit once per cluster: install(items, positions, record) ≡
# positions = update(items); record = flush() — on buckets and on every
# level, not only on the root.
# ---------------------------------------------------------------------------
# Few distinct keys, so sequences hit overwrites, same-value rewrites,
# deletes of live keys, deletes of missing ones and delete-then-put.
_write_set = st.lists(
    st.tuples(
        st.binary(min_size=1, max_size=2),
        st.one_of(st.none(), st.binary(max_size=3)),
    ),
    max_size=12,
)
_write_sets = st.lists(_write_set, min_size=1, max_size=8)


def assert_same_tree(installing: BucketTree, computing: BucketTree, keys) -> None:
    assert installing._buckets == computing._buckets
    assert installing.items() == computing.items()
    assert installing.key_count == computing.key_count
    assert [installing.get(key) for key in keys] == [
        computing.get(key) for key in keys
    ]
    assert installing._levels == computing._levels
    assert not installing._dirty


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 16, 1024]), _write_sets)
@example(1024, [[(b"a", None)]])  # delete of a missing key: nothing dirtied
@example(3, [[(b"a", b"1")], [(b"a", None), (b"b", None)], [(b"a", b"2")]])
@example(16, [[(b"a", b"1")], [(b"a", None), (b"a", b"2")]])  # delete, then put
@example(16, [[(b"a", b"1"), (b"a", None)]])  # put, then delete: dirty, empty
def test_property_install_equals_compute(n_buckets, write_sets):
    computing, installing = BucketTree(n_buckets), BucketTree(n_buckets)
    keys = {key for items in write_sets for key, _ in items} | {b"never"}
    for items in write_sets:
        positions = computing.update(items)
        record = computing.flush()
        assert positions == tuple(computing._bucket_index(k) for k, _ in items)
        installing.install(items, positions, record)
        assert_same_tree(installing, computing, keys)
        assert installing.root_hash() == computing.root_hash()
    content = dict(computing.items())
    assert installing._levels == reference_levels(content, n_buckets)


def test_install_after_hashing_locally_and_back():
    """A tree may alternate between the two (a replica that falls out
    of the memo's window computes, then installs again)."""
    a, b = BucketTree(16), BucketTree(16)
    keys = [b"k%d" % i for i in range(24)]
    for step in range(6):
        items = [(b"k%d" % (step * 3 + i), b"v%d" % step) for i in range(5)]
        items.append((b"k%d" % step, None))
        positions = a.update(items)
        record = a.flush()
        if step % 2:
            b.install(items, positions, record)
        else:
            assert b.update(items) == positions
            assert b.flush() == record
        assert_same_tree(b, a, keys)


def test_flush_returns_level_then_index_order():
    """Leaves first; per level the ascending indexes it refreshed and
    their digests, as tuples (the record is shared, never edited); then
    the refreshed leaf buckets themselves, in leaf order, and the key
    count after the flush."""
    tree = BucketTree(4)
    tree.update([(b"k%d" % i, b"v") for i in range(40)])  # every bucket dirty
    levels, buckets, key_count = tree.flush()
    assert levels == tuple(
        (tuple(range(len(level))), tuple(level)) for level in tree._levels
    )
    assert all(a is b for a, b in zip(buckets, tree._buckets, strict=True))
    assert key_count == tree.key_count == 40
    assert tree.flush() == ((), (), 40)  # nothing dirty, nothing recomputed
    # One dirty bucket: one node per level, the path to the root.
    sparse = BucketTree(1024)
    (leaf,) = sparse.update([(b"k", b"v")])
    levels, buckets, key_count = sparse.flush()
    assert [indexes for indexes, _ in levels] == [
        (leaf >> depth,) for depth in range(11)
    ]
    assert levels[-1][1] == (sparse.root_hash(),)
    assert buckets == ({b"k": b"v"},) and buckets[0] is sparse._buckets[leaf]
    assert key_count == 1
    assert type(buckets) is tuple and all(
        type(part) is tuple for level in levels for part in (level, *level)
    )


@pytest.mark.parametrize("n_buckets", [1, 3, 16, 1024])
def test_install_record_must_be_consumed_exactly(n_buckets):
    """A record that places another number of items, or refreshes other
    leaves than the write-set dirtied, is refused — and whatever the
    refusal left behind, the next root is the computed one."""
    items = [(b"k%d" % i, b"v%d" % i) for i in range(9)] + [(b"gone", None)]
    source = BucketTree(n_buckets)
    positions = source.update(items)
    record = source.flush()
    levels, buckets, key_count = record
    assert levels[-1][1] == (source.root_hash(),)
    assert len(positions) == len(items)

    other = BucketTree(n_buckets)
    other.update([(b"elsewhere", b"v"), (b"k0", b"v0")])
    other_record = other.flush()
    shifted = ((tuple(i + 1 for i in levels[0][0]), levels[0][1]),) + levels[1:]
    short = ((levels[0][0][:-1], levels[0][1][:-1]),) + levels[1:]
    bad_records = [
        (positions[:-1], record),  # a short index list
        (positions + positions[-1:], record),
        ((), record),
        (positions, ((), (), key_count)),  # no leaves, but items touch some
        (positions, (short, buckets[:-1], key_count)),
        (positions, (shifted, buckets, key_count)),  # as many other leaves
    ]
    if other_record[0][0][0] != levels[0][0]:
        bad_records.append((positions, other_record))
    for bad_positions, bad_record in bad_records:
        tree = BucketTree(n_buckets)
        with pytest.raises(StorageError, match="commit record"):
            tree.install(items, bad_positions, bad_record)
        # Nothing of the record was swapped in; the writes were made.
        assert not any(b is r for b in tree._buckets for r in bad_record[1])
        assert tree.root_hash() == source.root_hash()
        assert tree.items() == source.items()
        assert tree.key_count == source.key_count
    # The record that fits is taken by reference.
    taker = BucketTree(n_buckets)
    taker.install(items, positions, record)
    assert all(taker._buckets[i] is source._buckets[i] for i in levels[0][0])
    assert taker._levels == source._levels and taker.key_count == 9
    # A write-set that touches nothing takes the record without leaves only.
    missing = [(b"missing", None)]
    nothing = BucketTree(n_buckets).update(missing)
    with pytest.raises(StorageError, match="commit record"):
        BucketTree(n_buckets).install(missing, nothing, record)
    with pytest.raises(StorageError, match="commit record"):
        BucketTree(n_buckets).install(missing, (), ((), (), 0))
    BucketTree(n_buckets).install(missing, nothing, ((), (), 0))


def test_refused_record_leaves_the_buckets_dirty():
    """Nothing stale survives a refusal: the next root_hash re-hashes,
    on top of earlier content too."""
    good, tree = BucketTree(16), BucketTree(16)
    for t in (good, tree):
        t.update([(b"old", b"0"), (b"a", b"0")])
        t.flush()
    items = [(b"a", b"1"), (b"b", b"2"), (b"old", None)]
    positions = good.update(items)
    record = good.flush()
    with pytest.raises(StorageError):
        tree.install(items, positions[:-1], record)
    assert tree._dirty == set(positions)
    assert tree.root_hash() == good.root_hash()
    assert tree._levels == good._levels and not tree._dirty
    assert tree.items() == good.items() and tree.key_count == good.key_count


# ---------------------------------------------------------------------------
# Replicas share buckets: a tree copies a bucket before its first write
# since the last flush, so a bucket another tree installed (or a record
# holds) is never written in place.
# ---------------------------------------------------------------------------
def _snapshot(tree: BucketTree):
    """A tree's content by value: what no other tree's write may change."""
    return (
        [dict(bucket) for bucket in tree._buckets],
        [list(level) for level in tree._levels],
        tree.root_hash(),
        tree.key_count,
    )


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1, 3, 16]),
    st.lists(
        st.tuples(
            _write_set,
            st.lists(
                st.sampled_from(["compute", "install", "install", "skip"]),
                min_size=3, max_size=3,
            ),
        ),
        min_size=1,
        max_size=10,
    ),
)
@example(1, [([(b"a", b"1")], ["compute", "install", "install"]),
             ([(b"a", None)], ["install", "compute", "skip"])])  # empties it
@example(3, [([(b"a", b"1"), (b"b", b"2")], ["compute", "install", "install"]),
             ([(b"zz", None)], ["compute", "install", "compute"]),  # absent
             ([(b"a", b"3")], ["skip", "compute", "install"]),
             ([(b"b", None), (b"a", None)], ["compute", "install", "skip"])])
def test_property_a_write_never_reaches_another_trees_buckets(n_buckets, steps):
    """Three trees commit the same write-sets, each one computing, taking
    a record another tree computed from the same pre-state (falling back
    to computing when there is none) or sitting the step out — so trees
    share some buckets and diverge on others. Every write leaves the
    other two trees' buckets, levels, root and key count untouched, and
    each tree ends at the reference digests of its own content."""
    trees = [BucketTree(n_buckets) for _ in range(3)]
    models: list[dict[bytes, bytes]] = [{}, {}, {}]
    for items, actions in steps:
        records = {}  # pre-state root -> (positions, record)
        for tree, model, action in zip(trees, models, actions):
            if action == "skip":
                continue
            others = [t for t in trees if t is not tree]
            before = [_snapshot(t) for t in others]
            pre = tree.root_hash()
            if action == "install" and pre in records:
                tree.install(items, *records[pre])
            else:
                positions = tree.update(items)
                records.setdefault(pre, (positions, tree.flush()))
            assert [_snapshot(t) for t in others] == before
            for key, value in items:
                if value is None:
                    model.pop(key, None)
                else:
                    model[key] = value
            assert dict(tree.items()) == model
            assert tree.key_count == len(model)
            assert tree._levels == reference_levels(model, n_buckets)
