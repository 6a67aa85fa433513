"""A trie stores a branch compact but is hashed and charged canonical.

The pins below were captured on the trie that still stored every
branch as its 16-slot canonical encoding. The byte counts the model
charges — the disk-backed Ethereum LSM store's footprint and write
counters (Figure 12's IOHeavy disk figures) and Parity's capped
process memory (Figure 12's OOM cells) — must not move with the
stored form, and the cap must trip at the same put with the same
message.
"""

import tracemalloc

import pytest

from repro.core.workload import preload_state
from repro.crypto.trie import (
    DictNodeStore,
    PatriciaTrie,
    canonical_node,
    canonical_size,
    stored_node,
)
from repro.errors import StorageError
from repro.platforms import build_cluster
from repro.platforms.base import CommitMemo
from repro.platforms.ethereum import EthereumState
from repro.platforms.parity import ParityState


def _blocks():
    """Six blocks of 1,500 writes over 4,000 keys: fresh keys, updates
    and enough node bytes to flush the LSM memtable once."""
    return [
        [
            (
                b"acct%05d" % ((i * 37 + block * 11) % 4000),
                b"%040d" % (i * 7919 + block),
            )
            for i in range(1500)
        ]
        for block in range(6)
    ]


def _commit_all(state):
    for height, items in enumerate(_blocks(), start=1):
        for key, value in items:
            state.put(key, value)
        state.commit_block(height)


#: Root, trie ``bytes_written`` and node store writes of the batch.
ROOT = "264895636d4ad5ffa9e9690553a65843ee294e2d3c7724512d39b9701a61d104"
BYTES_WRITTEN = 2_302_770
STORE_WRITES = 14_340


def test_ethereum_lsm_accounting_pin(tmp_path):
    """The LSM store keeps canonical bytes: the same disk footprint,
    writes, flushes and flushed bytes as when the trie stored them."""
    state = EthereumState(tmp_path)
    _commit_all(state)
    lsm = state._store
    assert state.trie.root_hash().hex() == ROOT
    assert state.trie.trie.bytes_written == BYTES_WRITTEN
    assert (
        state.disk_usage_bytes(),
        lsm.write_ops,
        lsm.read_ops,
        lsm.flush_count,
        lsm.bytes_flushed,
        lsm.compaction_count,
    ) == (2_473_252, STORE_WRITES, 0, 1, 2_252_894, 0)
    # The disk holds canonical bytes; the cache, like the trie, stored.
    nodes = state.trie.trie.store
    root = nodes.get(state.trie.root)
    assert root[0] == 1  # an extension over "acct", shared by every key
    branch = root[2 + root[1] :]
    stored = nodes.get(branch)
    assert stored[0] == 2 and len(stored) < canonical_size(stored)
    assert lsm.get(branch) == canonical_node(stored)
    assert stored_node(lsm.get(branch)) == stored
    state.close()


def test_parity_memory_pin():
    """Parity charges each stored node at its canonical size."""
    state = ParityState()
    _commit_all(state)
    assert state.trie.root_hash().hex() == ROOT
    assert state.trie.trie.bytes_written == BYTES_WRITTEN
    assert (state.memory_bytes(), state._store.write_ops) == (
        2_302_770,
        STORE_WRITES,
    )


@pytest.mark.parametrize(
    "cap,height,store_writes,message",
    [
        # The flush of block 1 overflows the node store.
        (
            300_000,
            1,
            1_876,
            "out of memory: 300186 bytes exceeds cap 300000 "
            "(Parity-style in-memory state)",
        ),
        # A journaled write of block 2 overflows committed + overlay.
        (
            400_000,
            2,
            2_390,
            "out of memory: 400014 bytes (committed state + journaled "
            "writes) exceeds cap 400000 (Parity-style in-memory state)",
        ),
    ],
    ids=["at-commit", "at-put"],
)
def test_parity_cap_trips_at_the_pinned_put(cap, height, store_writes, message):
    state = ParityState(memory_cap_bytes=cap)
    with pytest.raises(StorageError) as raised:
        _commit_all(state)
    assert str(raised.value) == message
    assert len(state._snapshots) == height - 1
    assert state._store.write_ops == store_writes


def test_a_shared_store_keeps_a_one_child_branch_small():
    """What the cluster's node store retains per branch holding one
    child plus a value (16,650 of them at the end of an ErisDB YCSB
    run): its digest, its dict slot and the compact stored blob, under
    200 B. As the 16-slot canonical encoding it was ~660 B."""
    source = PatriciaTrie(DictNodeStore())
    # b"\x11" * n for n = 1..256: every key but the last ends on a
    # branch whose one child leads to the next key.
    source.update(None, [(b"\x11" * n, b"v%03d" % n) for n in range(1, 257)])
    branches = [
        (digest, blob)
        for digest, blob in source.store._data.items()
        if blob[0] == 2
    ]
    assert len(branches) == 255
    for _, blob in branches:
        assert int.from_bytes(blob[1:3], "big").bit_count() == 1
        assert canonical_node(blob)[513] == 1  # the value flag
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        store = DictNodeStore()
        for digest, blob in branches:
            # Fresh copies, as a trie's save allocates them.
            store.put(bytes(bytearray(digest)), bytes(bytearray(blob)))
        per_branch = (tracemalloc.get_traced_memory()[0] - start) / len(branches)
    finally:
        tracemalloc.stop()
    assert per_branch < 200, f"{per_branch:.0f} B per branch"


@pytest.mark.parametrize("platform", ["erisdb", "ethereum", "parity"])
def test_a_genesis_record_lists_nodes_only_for_a_store_of_its_own(
    monkeypatch, platform
):
    """The preload's commit record on the cluster's shared store counts
    its nodes and holds no ``(digest, blob)`` per node: every replica
    installs into that store and reads only the counts. Parity's capped
    store is each replica's own, so its record lists the saves."""
    records = []
    put = CommitMemo.put

    def keep(self, key, record):
        records.append(record)
        put(self, key, record)

    monkeypatch.setattr(CommitMemo, "put", keep)
    cluster = build_cluster(platform, 4, seed=1)
    preload_state(
        cluster, "kvstore", lambda: ((b"k%04d" % i, b"v%d" % i) for i in range(500))
    )
    (root, saves, store, nbytes), = records
    tries = [node.state.trie.trie for node in cluster.nodes]
    assert {node.state.pre_state_root() for node in cluster.nodes} == {root}
    assert {(t.node_writes, t.bytes_written) for t in tries} == {
        (tries[0].node_writes, nbytes)
    }
    if platform == "parity":
        assert len(saves) == tries[0].node_writes
        assert all(trie.store is not store for trie in tries[1:])
    else:
        assert saves == tries[0].node_writes > 500
        assert all(trie.store is store for trie in tries)
    cluster.close()
