"""Differential tests for the journaled state overlay (PR 5).

The block-commit fast path buffers intra-block writes in an overlay
and flushes the net write-set through one batched tree update at
``commit_block``. Only the per-block root is observable, so every
platform state must produce roots **byte-identical** to applying the
same writes unbuffered against the underlying tree — including delete
interleavings (delete-then-put, put-then-delete, delete of a missing
key) and hot-key overwrite collapse.
"""

import pytest

from repro.crypto.bucket_tree import BucketTree
from repro.crypto.trie import StateTrie
from repro.errors import StorageError
from repro.platforms.ethereum import EthereumState
from repro.platforms.hyperledger import N_BUCKETS, HyperledgerState
from repro.platforms.parity import ParityState
from repro.platforms.triestate import TrieState

#: Write scripts, one list per block: (key, value) puts, value=None
#: deletes. Exercises hot-key overwrite collapse, delete-then-put,
#: put-then-delete, and deletes of missing keys across block borders.
BLOCKS = [
    [
        (b"kvstore/a", b"1"),
        (b"kvstore/b", b"2"),
        (b"kvstore/a", b"1b"),  # overwrite within the block
        (b"smallbank/acct:1", b"100"),
        (b"kvstore/missing", None),  # delete of a never-written key
    ],
    [
        (b"kvstore/b", None),  # delete a committed key
        (b"kvstore/b", b"2b"),  # ... then re-put it (delete-then-put)
        (b"kvstore/c", b"3"),
        (b"kvstore/c", None),  # put-then-delete nets to nothing
        (b"smallbank/acct:1", b"90"),
    ],
    [
        (b"kvstore/a", None),
        (b"kvstore/d", b"4"),
    ],
]


def _apply_through_overlay(state):
    """Run the scripted blocks through the journaled platform state."""
    roots = []
    for height, block in enumerate(BLOCKS, start=1):
        for key, value in block:
            if value is None:
                state.delete(key)
            else:
                state.put(key, value)
        roots.append(state.commit_block(height))
    return roots


def _trie_reference():
    """Unbuffered oracle: every write straight into a StateTrie."""
    trie = StateTrie()
    roots = []
    for block in BLOCKS:
        for key, value in block:
            if value is None:
                trie.delete(key)
            else:
                trie.put(key, value)
        trie.snapshot()
        roots.append(trie.root_hash())
    return roots


def _bucket_reference():
    """Unbuffered oracle: every write straight into a BucketTree."""
    tree = BucketTree(n_buckets=N_BUCKETS)
    roots = []
    for block in BLOCKS:
        for key, value in block:
            if value is None:
                tree.delete(key)
            else:
                tree.put(key, value)
        roots.append(tree.root_hash())
    return roots


@pytest.mark.parametrize(
    "state_factory",
    [EthereumState, ParityState, TrieState],
    ids=["ethereum", "parity", "erisdb"],
)
def test_trie_states_match_unbuffered_roots(state_factory):
    assert _apply_through_overlay(state_factory()) == _trie_reference()


def test_hyperledger_state_matches_unbuffered_roots():
    assert _apply_through_overlay(HyperledgerState()) == _bucket_reference()


def test_hyperledger_lsm_backed_matches_unbuffered_roots(tmp_path):
    state = HyperledgerState(tmp_path)
    assert _apply_through_overlay(state) == _bucket_reference()
    # And the LSM mirror holds exactly the live keys.
    assert state.get(b"kvstore/b") == b"2b"
    assert state.get(b"kvstore/a") is None
    state.close()


def test_ethereum_lsm_backed_matches_unbuffered_roots(tmp_path):
    state = EthereumState(tmp_path)
    assert _apply_through_overlay(state) == _trie_reference()
    state.close()


# ---------------------------------------------------------------------------
# Overlay semantics
# ---------------------------------------------------------------------------
def test_overlay_reads_are_read_your_writes():
    state = EthereumState()
    state.put(b"k", b"v1")
    assert state.get(b"k") == b"v1"  # uncommitted write is visible
    state.put(b"k", b"v2")
    assert state.get(b"k") == b"v2"  # last write wins
    state.delete(b"k")
    assert state.get(b"k") is None  # uncommitted delete masks backing
    state.commit_block(1)
    assert state.get(b"k") is None


def test_overlay_delete_masks_committed_value():
    state = EthereumState()
    state.put(b"k", b"committed")
    state.commit_block(1)
    state.delete(b"k")
    assert state.get(b"k") is None  # before the delete commits
    state.commit_block(2)
    assert state.get(b"k") is None
    assert state.get_at(1, b"k") == b"committed"  # history intact


def test_pending_writes_are_net_and_sorted():
    state = EthereumState()
    state.put(b"zz", b"1")
    state.put(b"aa", b"2")
    state.put(b"zz", b"3")  # overwrite nets to one entry
    state.delete(b"mm")
    assert state.pending_writes() == (
        (b"aa", b"2"),
        (b"mm", None),
        (b"zz", b"3"),
    )
    state.commit_block(1)
    assert state.pending_writes() == ()


def test_apply_write_set_replays_to_identical_root():
    primary, replica = EthereumState(), EthereumState()
    for state in (primary, replica):
        state.put(b"base", b"0")
        state.commit_block(1)
    primary.put(b"a", b"1")
    primary.delete(b"base")
    write_set = primary.pending_writes()
    root = primary.commit_block(2)
    replica.apply_write_set(write_set)
    assert replica.commit_block(2) == root


def test_empty_block_commits_preserve_root():
    state = EthereumState()
    state.put(b"k", b"v")
    first = state.commit_block(1)
    assert state.commit_block(2) == first  # no writes: same root


def test_parity_cap_counts_journaled_writes_at_put_time():
    state = ParityState(memory_cap_bytes=2_000)
    with pytest.raises(StorageError, match="out of memory"):
        for i in range(200):
            state.put(f"key{i}".encode(), b"x" * 50)


def test_parity_cap_accounting_is_net_not_gross():
    """K rewrites of one hot key occupy one overlay entry; the cap
    accounting must not treat them as K entries (a SmallBank hot
    account would otherwise OOM Parity almost immediately)."""
    state = ParityState(memory_cap_bytes=10_000)
    for i in range(2_000):
        state.put(b"hot-account", b"%030d" % i)
    assert state.memory_bytes() < 100  # one ~41-byte net entry
    state.commit_block(1)


def test_parity_delete_releases_overlay_bytes():
    state = ParityState()
    state.put(b"k", b"v" * 100)
    before = state.memory_bytes()
    state.delete(b"k")
    assert state.memory_bytes() < before


def test_parity_memory_bytes_includes_overlay():
    state = ParityState()
    state.put(b"k", b"v" * 100)
    assert state.memory_bytes() >= 101
    state.commit_block(1)
    assert state.memory_bytes() > 0  # now held as trie nodes


# ---------------------------------------------------------------------------
# Commit memo (PR 17): a state that installs another's commit record
# ---------------------------------------------------------------------------
def _memo_pair(factory):
    """Two states attached to one execution cache, as replicas of a
    cluster are: one commit memo (and one in-memory trie node store)."""
    from repro.platforms.base import ExecutionCache

    cache = ExecutionCache(2)
    first, second = factory(), factory()
    for state in (first, second):
        state.attach_execution_cache(cache)
    return cache.commits, first, second


@pytest.mark.parametrize(
    "state_factory,reference",
    [
        (EthereumState, _trie_reference),
        (ParityState, _trie_reference),
        (TrieState, _trie_reference),
        (HyperledgerState, _bucket_reference),
    ],
    ids=["ethereum", "parity", "erisdb", "hyperledger"],
)
def test_installed_commits_match_unbuffered_roots(state_factory, reference):
    memo, first, second = _memo_pair(state_factory)
    assert _apply_through_overlay(first) == reference()
    assert (memo.hits, memo.misses) == (0, len(BLOCKS))
    assert _apply_through_overlay(second) == reference()
    assert (memo.hits, memo.misses) == (len(BLOCKS), len(BLOCKS))
    for key in {key for block in BLOCKS for key, _ in block}:
        assert second.get(key) == first.get(key)
    if state_factory is not HyperledgerState:
        assert second.get_at(1, b"kvstore/a") == first.get_at(1, b"kvstore/a")
        assert second.trie.trie.node_writes == first.trie.trie.node_writes
    if state_factory is ParityState:
        assert second.memory_bytes() == first.memory_bytes()
        assert second._store.write_ops == first._store.write_ops


@pytest.mark.parametrize(
    "state_class,reference",
    [(EthereumState, _trie_reference), (HyperledgerState, _bucket_reference)],
    ids=["ethereum", "hyperledger"],
)
def test_disk_backed_states_install_too(tmp_path, state_class, reference):
    """No storage mode is left out of the memo: an install issues the
    same LSM writes a computed commit does."""
    paths = iter((tmp_path / "a", tmp_path / "b"))
    memo, first, second = _memo_pair(lambda: state_class(next(paths)))
    assert _apply_through_overlay(first) == reference()
    assert _apply_through_overlay(second) == reference()
    assert memo.hits == len(BLOCKS)
    assert second._store.write_ops == first._store.write_ops > 0
    assert second.get(b"kvstore/b") == first.get(b"kvstore/b") == b"2b"
    assert second.get(b"kvstore/a") is None
    first.close()
    second.close()


def test_memo_is_keyed_on_the_sealed_root():
    """The same write-set on another pre-state is another commit."""
    memo, first, second = _memo_pair(HyperledgerState)
    second.put(b"extra", b"1")
    second.commit_block(0)
    for state in (first, second):
        state.put(b"k", b"v")
        state.commit_block(1)
    assert memo.hits == 0
    assert first.pre_state_root() != second.pre_state_root()


@pytest.mark.parametrize(
    "state_factory",
    [EthereumState, ParityState, TrieState, HyperledgerState],
    ids=["ethereum", "parity", "erisdb", "hyperledger"],
)
def test_pre_state_root_is_the_sealed_root(state_factory):
    state = state_factory()
    tree = state.tree if state_factory is HyperledgerState else state.trie
    assert state.pre_state_root() == tree.root_hash()  # the empty root
    roots = _apply_through_overlay(state)
    assert state.pre_state_root() == roots[-1] == tree.root_hash()
    state.put(b"uncommitted", b"1")
    assert state.pre_state_root() == roots[-1]

    def no_tree_call():
        raise AssertionError("pre_state_root called into the tree")

    tree.root_hash = no_tree_call
    assert state.pre_state_root() == roots[-1]


def test_apply_write_set_into_an_empty_overlay_keeps_the_tuple():
    primary, replica, dirty = EthereumState(), EthereumState(), EthereumState()
    primary.put(b"b", b"2")
    primary.put(b"a", b"1")
    primary.delete(b"c")
    write_set = primary.pending_writes()
    replica.apply_write_set(write_set)
    assert replica.pending_writes() is write_set  # no re-sort
    dirty.put(b"zz", b"0")
    dirty.apply_write_set(write_set)
    assert dirty.pending_writes() == write_set + ((b"zz", b"0"),)
    replica.put(b"later", b"3")  # a later write still invalidates it
    assert replica.pending_writes() is not write_set
    assert (b"later", b"3") in replica.pending_writes()
