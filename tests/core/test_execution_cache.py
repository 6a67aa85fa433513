"""Cross-replica execution memoization tests (PR 5).

The simulator is deterministic, so replicas executing the same block
from the same pre-state root must produce identical results; the
:class:`~repro.platforms.base.ExecutionCache` makes replicas 2..N
replay the first replica's recorded write-set instead of re-running
the contracts. These tests pin the semantic contract against an oracle
that gives every node a private cache which never hits, so every
replica computes every block and every commit: **the shared cache and
private caches are byte-identical** — same StatsSummary, same chain height,
same per-node state roots — on all four platforms.
"""

import gc
import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError, asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.chain as chain_package
import repro.chain.transaction as transaction_module
from repro.chain.transaction import BlockReceipts, Transaction
from repro.core import (
    CrashFault,
    Driver,
    DriverConfig,
    FaultSchedule,
    PartitionFault,
)
from repro.core import runner
from repro.core.runner import ExperimentSpec, run_experiment
from repro.core.workload import Workload, preload_state
from repro.errors import StorageError
from repro.platforms import ExecutionCache, build_cluster
from repro.platforms import base as platform_base
from repro.platforms.base import CachedExecution
from repro.platforms.parity import ParityState
from repro.workloads import (
    YCSBConfig,
    YCSBWorkload,
    available_workloads,
    make_workload,
)

from ..receipts import ReceiptRow, receipt_of

#: Kept small: the differential runs every platform twice.
DURATION_S = {
    "hyperledger": 12.0,
    "ethereum": 15.0,
    "parity": 12.0,
    "erisdb": 12.0,
}


class _PrivateCache(ExecutionCache):
    """The oracle's cache: one node's own, with no commit memo and no
    entry a lookup can find, so the node computes every block and every
    commit, as a stand-alone state does."""

    def __init__(self) -> None:
        super().__init__(1)
        self.commits = None

    def lookup(self, pre_state_root, block_hash):
        return None

    def store(self, pre_state_root, block_hash, entry):
        pass


def _build(*args, private=False, **kwargs):
    """``build_cluster``; with ``private``, the oracle: every attach,
    a cold restart's included, gives the node a new ``_PrivateCache``,
    so every replica computes every block and every commit, with its
    own trie node store and tx index, and nothing it held before a
    restart outlives it."""
    cluster = build_cluster(*args, **kwargs)
    if private:
        for node in cluster.nodes:
            attach = node.attach_execution_cache
            node.attach_execution_cache = (
                lambda _cache, _attach=attach: _attach(_PrivateCache())
            )
            node.attach_execution_cache(None)
    return cluster


def _run(monkeypatch, platform: str, private: bool = False):
    monkeypatch.setattr(
        runner, "build_cluster",
        lambda *args, **kwargs: _build(*args, private=private, **kwargs),
    )
    spec = ExperimentSpec(
        platform=platform,
        workload="ycsb",
        n_servers=4,
        n_clients=2,
        request_rate_tx_s=40.0,
        duration_s=DURATION_S[platform],
        seed=5,
    )
    return run_experiment(spec)


@pytest.mark.parametrize(
    "platform", ["hyperledger", "ethereum", "parity", "erisdb"]
)
def test_cache_on_vs_off_is_byte_identical(monkeypatch, platform):
    on = _run(monkeypatch, platform)
    off = _run(monkeypatch, platform, private=True)
    assert asdict(on.summary) == asdict(off.summary)
    assert on.chain_height == off.chain_height
    assert on.total_blocks == off.total_blocks


@pytest.mark.parametrize(
    "platform", ["hyperledger", "ethereum", "parity", "erisdb"]
)
def test_cache_replicas_agree_on_state_roots(platform, height_roots):
    """With the shared cache, every node's committed roots match the
    private-cache run of the same seed, height by height."""

    def roots(private=False):
        cluster = _build(platform, 4, seed=5, private=private)
        driver = Driver(
            cluster,
            YCSBWorkload(YCSBConfig(record_count=50)),
            DriverConfig(
                n_clients=2, request_rate_tx_s=40,
                duration_s=DURATION_S[platform],
            ),
        )
        driver.run()
        per_node = height_roots(cluster)
        cluster.close()
        return per_node

    on, off = roots(), roots(private=True)
    assert on == off
    # And the run actually executed blocks on every node.
    assert all(node_roots for node_roots in on)


def test_cache_is_hit_by_replicas():
    cluster = build_cluster("hyperledger", 4, seed=5)
    driver = Driver(
        cluster,
        YCSBWorkload(YCSBConfig(record_count=50)),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=12.0),
    )
    driver.run()
    cache = cluster.nodes[0].execution_cache
    assert all(node.execution_cache is cache for node in cluster.nodes)
    # 4 replicas execute every block: 1 miss (the first executor) and
    # 3 hits per block.
    assert cache.misses > 0
    assert cache.hits == 3 * cache.misses
    cluster.close()


def test_cache_is_per_cluster_not_global():
    a = build_cluster("hyperledger", 2, seed=1)
    b = build_cluster("hyperledger", 2, seed=1)
    assert a.nodes[0].execution_cache is not b.nodes[0].execution_cache
    a.close()
    b.close()


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------
def test_execution_cache_lookup_and_counters():
    cache = ExecutionCache(2, capacity=2)
    entry = CachedExecution(
        write_set=((b"k", b"v"),),
        receipts=BlockReceipts.pack(("tx1",), 1, [(21_000, None, None)]),
        tally=(1, 0, 0.0),
    )
    assert cache.lookup(b"root", b"block") is None
    cache.store(b"root", b"block", entry)
    assert cache.lookup(b"root", b"block") is entry
    assert cache.lookup(b"other-root", b"block") is None  # pre-state keyed
    assert cache.lookup(b"root", b"other-block") is None  # block keyed
    assert (cache.hits, cache.misses) == (1, 3)


def test_execution_cache_evicts_beyond_capacity():
    cache = ExecutionCache(2, capacity=2)
    entry = CachedExecution(
        write_set=(), receipts=BlockReceipts.pack((), 1, []), tally=(0, 0, 0.0)
    )
    for i in range(3):
        cache.store(b"root%d" % i, b"block", entry)
    assert cache.lookup(b"root0", b"block") is None  # evicted (LRU)
    assert cache.lookup(b"root2", b"block") is entry


# ---------------------------------------------------------------------------
# Parallel execution (PR 9): one cache serves one cluster, whose nodes
# share one config, so a replayer takes the executor's schedule.
# ---------------------------------------------------------------------------
def _peek(cache, pre_state_root, block_hash):
    """The execution record a replica's lookup would take, read without
    taking it (a read counts as a hit or a miss all the same)."""
    return cache._entries.get((pre_state_root, block_hash))


def _cluster(n, workers):
    """An ``n``-node hyperledger cluster with the given exec_workers."""
    return build_cluster(
        "hyperledger", n, seed=5, config_overrides={"exec_workers": workers}
    )


def _block(node, txs):
    """Block 1 of ``node``'s chain, holding ``txs``."""
    from repro.chain.block import Block

    genesis = node.chain().block_by_height(0)
    return Block.build(
        height=1, parent_hash=genesis.hash, transactions=txs,
        state_root=b"", proposer=node.node_id, timestamp=1.0,
    )


def _mixed_block(node, n=24, hot_every=3):
    """A block mixing independent keys with a hot-key chain."""
    return _block(node, tuple(
        Transaction.create(
            sender=f"acct{i % 4}",
            contract="kvstore",
            function="write",
            args=("hot" if i % hot_every == 0 else f"k{i}", f"v{i}"),
            nonce=i,
        )
        for i in range(n)
    ))


def test_cache_entries_identical_whoever_executes():
    """Serially- and parallel-executed caches hold byte-identical
    write-sets and receipts for the same block; only the optional
    schedule annotation differs. Two replicas each, so the executor's
    record has a reader to be kept for."""
    s_cluster, p_cluster = _cluster(2, 1), _cluster(2, 4)
    serial_node, parallel_node = s_cluster.nodes[0], p_cluster.nodes[0]
    block = _mixed_block(serial_node)
    s_pre = serial_node.state.pre_state_root()
    p_pre = parallel_node.state.pre_state_root()
    assert s_pre == p_pre  # same seed, same genesis
    serial_node._execute_block(block)
    parallel_node._execute_block(block)
    s_entry = _peek(serial_node.execution_cache, s_pre, block.hash)
    p_entry = _peek(parallel_node.execution_cache, p_pre, block.hash)
    assert s_entry is not None and p_entry is not None
    assert s_entry.write_set == p_entry.write_set
    assert s_entry.receipts == p_entry.receipts
    assert s_entry.levels is None
    assert p_entry.levels is not None
    s_cluster.close()
    p_cluster.close()


def test_parallel_replayer_charges_the_shared_schedule():
    """In a 2-node ``exec_workers: 4`` cluster the replayer takes the
    executor's levels and charges the same seconds for the block: the
    makespan of the shared schedule, not the serial sum."""
    cluster = _cluster(2, 4)
    node_a, node_b = cluster.nodes
    cache = node_a.execution_cache
    block = _mixed_block(node_a)
    pre_root = node_a.state.pre_state_root()
    node_a._execute_block(block)  # executes for real
    entry = _peek(cache, pre_root, block.hash)
    assert entry.levels is not None and max(entry.levels) > 1
    node_b._execute_block(block)  # replays the entry
    assert (cache.hits, cache.misses) == (2, 1)
    assert node_b.state.pre_state_root() == node_a.state.pre_state_root()
    assert node_b.receipts.blocks == node_a.receipts.blocks
    assert node_b.cpu_time == node_a.cpu_time < entry.tally[2]
    cluster.close()


#: Every column of a :class:`BlockReceipts` record.
_COLUMNS = ("tx_ids", "height", "gas_used", "success", "outputs_digest", "errors")


def test_replayed_receipts_are_the_first_executors_objects():
    """A block's receipts are a pure function of (pre-state, block):
    replicas of one cluster file the executor's immutable record; a
    replica of another cluster packs its own, equal column for column.
    Nothing builds a per-transaction receipt: a reader reads the
    columns."""
    cluster, other = _cluster(2, 1), _cluster(1, 1)
    node_a, node_b = cluster.nodes
    node_c = other.nodes[0]
    block = _mixed_block(node_a)
    for node in (node_a, node_b, node_c):
        node._execute_block(block)
    receipts = node_a.receipts.blocks[block.hash]
    assert list(receipts.tx_ids) == list(block.tx_ids)
    assert receipts.tx_ids is block.tx_ids  # shared, not copied
    # Record level: the executor's record, by reference.
    assert node_b.receipts.blocks[block.hash] is receipts
    assert node_c.receipts.blocks == node_a.receipts.blocks
    own = node_c.receipts.blocks[block.hash]
    assert own is not receipts
    # Column level: equal column for column, whoever packed them.
    for column in _COLUMNS:
        assert getattr(own, column) == getattr(receipts, column), column
    first = block.tx_ids[0]
    assert receipt_of(node_a.receipts, first) == ReceiptRow(
        first, receipts.height, receipts.success[0] == 1,
        receipts.gas_used[0], receipts.errors.get(0, ""),
    ) == receipt_of(node_c.receipts, first)
    assert not hasattr(receipts, "committed_at")
    assert not hasattr(receipts, "outputs")
    # Readers share the columns: the record is frozen, and its ids,
    # flags and outputs digest are immutable.
    assert type(receipts.tx_ids) is tuple
    assert type(receipts.success) is type(receipts.outputs_digest) is bytes
    assert len(receipts.outputs_digest) == 32
    for column in _COLUMNS:
        with pytest.raises(FrozenInstanceError):
            setattr(receipts, column, None)
    cluster.close()
    other.close()


# ---------------------------------------------------------------------------
# Commit once per cluster (PR 17): replicas install the first replica's
# state commit. Private caches hold no commit memo either, so they are
# the differential oracle for both.
# ---------------------------------------------------------------------------
PLATFORMS = ["hyperledger", "ethereum", "parity", "erisdb"]
DEFAULT_WINDOW = platform_base.COMMIT_MEMO_ENTRIES


class ChurnWorkload(Workload):
    """Delete-heavy kvstore mix over 32 keys, 24 of them preloaded:
    deletes of live and of missing keys, overwrites, and (four distinct
    values) same-value rewrites."""

    name = "churn"
    required_contracts = ("kvstore",)

    def preload(self, cluster):
        preload_state(
            cluster, "kvstore", lambda: ((b"k%d" % i, b"seed") for i in range(24))
        )

    def next_transaction(self, client_id, rng, now):
        key = f"k{rng.randrange(32)}"
        roll = rng.random()
        if roll < 0.5:
            function, args = "delete", (key,)
        elif roll < 0.9:
            function, args = "write", (key, f"v{rng.randrange(4)}")
        else:
            function, args = "read", (key,)
        return Transaction.create(
            sender=client_id, contract="kvstore", function=function,
            args=args, nonce=self.next_nonce(),
        )


def _drive(monkeypatch, platform, workload, *, private=False, n=4,
           duration=None, overrides=None, faults=None, window=None,
           probe=None):
    """One driver run; returns the cluster (caller closes it). With
    ``private``, on the private-cache oracle."""
    monkeypatch.setattr(
        platform_base, "COMMIT_MEMO_ENTRIES", window or DEFAULT_WINDOW
    )
    cluster = _build(
        platform, n, seed=5, config_overrides=overrides, private=private
    )
    if probe is not None:
        probe(cluster)
    workload = (
        ChurnWorkload() if workload == "churn" else make_workload(workload)
    )
    driver = Driver(
        cluster, workload,
        DriverConfig(
            n_clients=2, request_rate_tx_s=40,
            duration_s=duration or DURATION_S[platform],
        ),
    )
    driver.prepare()
    if faults is not None:
        faults.arm(cluster)
    driver.run()
    return cluster


@pytest.mark.parametrize("workload", ["smallbank", "churn"])
@pytest.mark.parametrize("platform", PLATFORMS)
def test_installed_commits_match_computed_roots(
    monkeypatch, height_roots, platform, workload
):
    on = _drive(monkeypatch, platform, workload)
    off = _drive(monkeypatch, platform, workload, private=True)
    assert height_roots(on) == height_roots(off)
    assert all(height_roots(on))
    # Shared receipts equal the ones each replica builds for itself,
    # block by block and in filing order.
    assert [list(n.receipts.blocks.items()) for n in on.nodes] == [
        list(n.receipts.blocks.items()) for n in off.nodes
    ]
    memo = on.nodes[0].execution_cache.commits
    assert memo.hits > 0 and memo.misses > 0
    assert all(node.state.commit_memo is memo for node in on.nodes)
    assert all(node.state.commit_memo is None for node in off.nodes)
    # The installed state answers reads like the computed one.
    probe = b"kvstore/k3" if workload == "churn" else b"smallbank/chk:acct3"
    assert [n.state.get(probe) for n in on.nodes] == [
        n.state.get(probe) for n in off.nodes
    ]
    on.close()
    off.close()


def test_replicas_share_bucket_objects_only_with_the_cache_on(
    monkeypatch, height_roots
):
    """Build once, reference N-1 times, applied to the bucket tree: with
    the shared cache, replicas at one sealed root hold the very same
    bucket objects — one copy of the state per cluster; with private
    caches each holds its own copy, equal bucket for bucket. Per-height
    roots are the same either way."""
    on = _drive(monkeypatch, "hyperledger", "smallbank")
    off = _drive(monkeypatch, "hyperledger", "smallbank", private=True)
    assert height_roots(on) == height_roots(off)

    def in_step(cluster):
        """The bucket lists of the largest group of replicas at one root."""
        groups: dict[bytes, list] = {}
        for node in cluster.nodes:
            state = node.state
            groups.setdefault(state.pre_state_root(), []).append(
                state.tree._buckets
            )
        first, *rest = max(groups.values(), key=len)
        assert len(rest) >= 2 and sum(map(bool, first)) > 512
        return first, rest

    first, rest = in_step(on)
    for buckets in rest:
        assert all(a is b for a, b in zip(first, buckets) if a)
    first, rest = in_step(off)
    for buckets in rest:
        assert buckets == first
        assert not any(a is b for a, b in zip(first, buckets) if a)
    on.close()
    off.close()


def _node_stores(cluster):
    return [node.state.trie.trie.store for node in cluster.nodes]


@pytest.mark.parametrize("platform", ["ethereum", "erisdb", "parity"])
def test_replicas_share_one_trie_node_store_only_with_the_cache_on(
    monkeypatch, height_roots, platform
):
    """Replicas share trie nodes, not copies: every in-memory trie state
    of a cluster writes to the cache's one node store; Parity's capped
    store is per-process accounting and stays per replica, and on
    private caches every replica has its own store. Each replica keeps
    its own roots and write counters either way."""
    on = _drive(monkeypatch, platform, "smallbank")
    off = _drive(monkeypatch, platform, "smallbank", private=True)
    assert height_roots(on) == height_roots(off)
    shared = on.nodes[0].execution_cache.trie_nodes
    if platform == "parity":
        assert shared is None
        assert len(set(map(id, _node_stores(on)))) == len(on.nodes)
    else:
        assert shared is not None
        assert all(store is shared for store in _node_stores(on))
    assert len(set(map(id, _node_stores(off)))) == len(off.nodes)
    for counter in ("node_writes", "bytes_written"):
        assert [getattr(n.state.trie.trie, counter) for n in on.nodes] == [
            getattr(n.state.trie.trie, counter) for n in off.nodes
        ]
    on.close()
    off.close()


@pytest.mark.parametrize("platform", ["ethereum", "erisdb"])
def test_a_cold_recovered_replica_is_back_on_the_shared_store(
    monkeypatch, height_roots, platform
):
    """A cold restart wipes the replica's state; the fresh state joins the
    cluster's node store again and replays the chain to the live
    replicas' roots, height by height."""
    cluster = _drive(
        monkeypatch, platform, "smallbank", duration=30.0,
        faults=FaultSchedule(crashes=[CrashFault(
            at_time=8.0, count=1, include_leader=False,
            recover_at=12.0, recovery_mode="cold",
        )]),
    )
    victim, = (node for node in cluster.nodes if node.recovery_times)
    shared = cluster.nodes[0].execution_cache.trie_nodes
    assert all(store is shared for store in _node_stores(cluster))
    roots = height_roots(cluster)
    recovered = roots.pop(cluster.nodes.index(victim))
    for node_roots in roots:
        common = recovered.keys() & node_roots.keys()
        assert len(common) >= 8
        for height in common:
            assert recovered[height] == node_roots[height]
    cluster.close()


def test_lock_step_replicas_install_every_commit_but_the_first():
    """N replicas, every commit with writes: one computes, N-1 install.
    The memo is per cluster, bounded, and separate from the execution
    counters hostbench reads."""
    cluster = build_cluster("hyperledger", 4, seed=5)
    other = build_cluster("hyperledger", 4, seed=5)
    cache = cluster.nodes[0].execution_cache
    assert cache.commits is not other.nodes[0].execution_cache.commits
    other.close()
    Driver(
        cluster,
        YCSBWorkload(YCSBConfig(record_count=50)),
        DriverConfig(n_clients=2, request_rate_tx_s=40, duration_s=12.0),
    ).run()
    memo = cache.commits
    assert memo.misses > 1  # the preload and at least one block
    assert memo.hits == 3 * memo.misses
    assert len(memo) <= memo.capacity == DEFAULT_WINDOW
    assert cache.hits == 3 * cache.misses  # execution lookups, unchanged
    # One record per block with writes (read-only blocks commit nothing)
    # plus the preload, which no block carries.
    assert memo.misses <= cache.misses + 1
    cluster.close()


# ---------------------------------------------------------------------------
# Nothing outlives its last reader: a commit record retires on the last
# replica's install, and the genesis is kept as a recipe.
# ---------------------------------------------------------------------------
def _commit_everywhere(states, write_set, height):
    """Commit ``write_set`` on each state in turn; the roots."""
    roots = []
    for state in states:
        state.apply_write_set(write_set)
        roots.append(state.commit_block(height))
    return roots


def test_a_record_retires_on_its_last_install():
    cluster = build_cluster("erisdb", 4, seed=1)
    states = [node.state for node in cluster.nodes]
    memo = cluster.nodes[0].execution_cache.commits
    assert memo.readers == 3
    write_set = ((b"kvstore/a", b"1"), (b"kvstore/b", b"2"))
    key = (states[0].pre_state_root(), write_set)
    held = []
    for state in states:
        state.apply_write_set(write_set)
        state.commit_block(1)
        held.append(key in memo)
    # Computed by the first replica, installed by the other three: the
    # third install retires it.
    assert held == [True, True, True, False]
    assert (memo.hits, memo.misses) == (3, 1)
    assert len({state.pre_state_root() for state in states}) == 1
    cluster.close()


def test_a_record_a_replica_never_installs_waits_for_the_bound(monkeypatch):
    """The records a crashed replica has not installed stay in the memo,
    and only the LRU bound evicts them; once one is evicted, the
    replica's replay recomputes it, with the same root."""
    monkeypatch.setattr(platform_base, "COMMIT_MEMO_ENTRIES", 3)
    cluster = build_cluster("erisdb", 4, seed=1)
    *live, crashed = [node.state for node in cluster.nodes]
    memo = cluster.nodes[0].execution_cache.commits
    write_sets = [((b"kvstore/k%d" % h, b"v%d" % h),) for h in range(1, 5)]
    first = (live[0].pre_state_root(), write_sets[0])
    root = _commit_everywhere(live, write_sets[0], 1)[0]
    assert first in memo and len(memo) == 1  # two installs of three
    for height, write_set in enumerate(write_sets[1:3], start=2):
        _commit_everywhere(live, write_set, height)
    assert first in memo and len(memo) == 3
    _commit_everywhere(live, write_sets[3], 4)
    assert first not in memo and len(memo) == 3  # the bound evicted it
    misses = memo.misses
    assert _commit_everywhere([crashed], write_sets[0], 1) == [root]
    assert memo.misses == misses + 1
    cluster.close()


#: A driven churn run (``_drive``, shared cache, seed 5) as the code before
#: retirement ran it: sha256 of every replica's per-height roots, trie
#: node writes summed over replicas, and commit-memo (hits, misses).
CHURN_BEFORE_RETIREMENT = {
    "hyperledger": (
        "352d1c89a4abbcd8aa64d111b5682bc801bd9b7ba5009268023f0d0da92e9ed9",
        0, (291, 97),
    ),
    "ethereum": (
        "126bd94d6fc0c1e47f2ce2fb9ce123fd55e86df942bf2d930fcc7bd7858e32bd",
        308, (6, 2),
    ),
    "parity": (
        "1e5402474e47984bd55f10c31cf065405e9fbff474f3d54f04da709582e282c5",
        1996, (45, 15),
    ),
    "erisdb": (
        "fd0cbd8fbf104eac61c5524484be8fca3c60e6864b9eecbe6392336f4208cb7d",
        4628, (204, 68),
    ),
}


@pytest.mark.parametrize("platform", PLATFORMS)
def test_retirement_moves_no_root_write_or_memo_count(
    monkeypatch, height_roots, platform
):
    """Retiring a record on its last install frees it early and changes
    nothing else: roots, node writes and memo counts are the ones the
    records-until-evicted memo produced."""
    cluster = _drive(monkeypatch, platform, "churn")
    roots = hashlib.sha256(
        repr([sorted(r.items()) for r in height_roots(cluster)]).encode()
    ).hexdigest()
    tries = [getattr(n.state, "trie", None) for n in cluster.nodes]
    node_writes = sum(t.trie.node_writes for t in tries if t is not None)
    memo = cluster.nodes[0].execution_cache.commits
    assert (roots, node_writes, (memo.hits, memo.misses)) == (
        CHURN_BEFORE_RETIREMENT[platform]
    )
    assert len(memo) == 0  # every record met its last reader
    cluster.close()


def test_preload_retains_no_copy_of_the_records():
    """A 4-replica erisdb cluster after a 20k-record YCSB preload: ~311 B
    a record stay (the cluster's one trie node store, branches stored
    compact; ~378 B as 16-slot arrays). Four per-replica node stores
    over the same blobs held ~575 B; also keeping the write-set on
    every node and the commit record in the memo, ~890 B."""
    rows = 20_000
    cluster = build_cluster("erisdb", 4, seed=1)
    workload = YCSBWorkload(YCSBConfig(record_count=rows))
    gc.collect()
    tracemalloc.start()
    try:
        workload.preload(cluster)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len({n.state.pre_state_root() for n in cluster.nodes}) == 1
    assert retained / rows < 360, f"{retained / rows:.0f} B per record"
    cluster.close()


class Source:
    """A deterministic record source that counts its calls."""

    def __init__(self, records):
        self.records = list(records)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return iter(self.records)


def test_preload_builds_each_key_once_for_all_replicas():
    """One sorted net write-set per cluster, built from one call of the
    record source and applied on every node. Nodes keep the recipe, not
    the write-set, and the commit record retires on the last install,
    so nothing of the preload outlives set-up but the trie."""
    cluster = build_cluster("hyperledger", 3, seed=1)
    source = Source((b"k%d" % i, b"v%d" % i) for i in reversed(range(5)))
    assert preload_state(cluster, "kvstore", source) == 5
    assert source.calls == 1
    recipes = [node._genesis for node in cluster.nodes]
    assert all(len(recipe) == 1 for recipe in recipes)
    assert recipes[0][0]() == tuple(
        (b"kvstore/k%d" % i, b"v%d" % i) for i in range(5)
    )
    assert source.calls == 2  # the recipe re-reads the source
    memo = cluster.nodes[0].execution_cache.commits
    assert (memo.hits, memo.misses) == (2, 1)  # the preload is memoized too
    assert len(memo) == 0  # and retired by its last install
    assert len({node.state.pre_state_root() for node in cluster.nodes}) == 1
    cluster.close()


@pytest.mark.parametrize("platform", PLATFORMS)
def test_preload_with_duplicate_keys_is_last_write_wins(platform):
    gross = build_cluster(platform, 2, seed=1)
    net = build_cluster(platform, 2, seed=1)
    records = [(b"k", b"old"), (b"j", b"1"), (b"k", b"newer"), (b"k", b"new")]
    assert preload_state(gross, "kvstore", lambda: records) == 2
    assert preload_state(net, "kvstore", lambda: [(b"k", b"new"), (b"j", b"1")]) == 2
    for node in gross.nodes:
        assert node.state.get(b"kvstore/k") == b"new"
        assert node.state.pre_state_root() == net.nodes[0].state.pre_state_root()
    # bootstrap_put is the one-record form of the same call.
    single = build_cluster(platform, 1, seed=1)
    one = single.nodes[0]
    one.bootstrap_put(b"kvstore/j", b"1")
    one.bootstrap_put(b"kvstore/k", b"new")
    one.bootstrap_commit()
    assert [genesis() for genesis in one._genesis] == [
        ((b"kvstore/j", b"1"),), ((b"kvstore/k", b"new"),)
    ]
    assert one.state.pre_state_root() == net.nodes[0].state.pre_state_root()
    for cluster in (gross, net, single):
        cluster.close()


@pytest.mark.parametrize("shared", [True, False])
def test_parity_memory_cap_trips_on_an_oversized_preload(shared):
    """Fig. 12's 'X': the shared write-set goes through every replica's
    own put accounting, so a preload the cap cannot hold still dies —
    and rewrites of one key still count net, not gross."""
    def cluster():
        return _build(
            "parity", 2, seed=1,
            config_overrides={"memory_cap_bytes": 20_000},
            private=not shared,
        )

    records = [(b"key%04d" % i, b"x" * 50) for i in range(2_000)]
    with pytest.raises(StorageError, match="out of memory"):
        preload_state(cluster(), "kvstore", lambda: records)
    fits = cluster()
    assert preload_state(fits, "kvstore", lambda: records[:100]) == 100
    hot = [(b"hot", b"%050d" % i) for i in range(2_000)]  # 100 KB gross
    assert preload_state(fits, "kvstore", lambda: hot) == 1
    assert all(n.state.get(b"kvstore/hot") == hot[-1][1] for n in fits.nodes)
    fits.close()

    # A replica replaying a recorded write-set is charged write by write:
    # the cap trips at the same key, with the same message, as the puts
    # of the replica that executed it.
    write_set = tuple(sorted((b"kvstore/" + k, v) for k, v in records))

    def trip(apply):
        state = cluster().nodes[1].state
        with pytest.raises(StorageError, match="out of memory") as failure:
            apply(state)
        return str(failure.value), next(reversed(state._overlay))

    def put_each(state):
        for key, value in write_set:
            state.put(key, value)

    replayed = trip(lambda state: state.apply_write_set(write_set))
    assert replayed == trip(put_each)
    assert replayed[1] not in (write_set[0][0], write_set[-1][0])


@pytest.mark.parametrize("platform", PLATFORMS)
def test_cold_recovery_reseeds_from_the_shared_write_sets(monkeypatch, platform):
    """Two preloads, the second overwriting a key of the first: a wiped
    replica re-derives the write-sets from the record sources, applies
    them in order, seals the same genesis root and reads what the live
    replicas read. Parity's memory cap is charged for every regenerated
    put, so a cap the genesis outgrows kills the re-seed."""
    cluster = build_cluster(platform, 4, seed=3)
    first = Source([(b"a", b"1"), (b"b", b"2")])
    second = Source([(b"c", b"4"), (b"b", b"3")])
    preload_state(cluster, "kvstore", first)
    preload_state(cluster, "kvstore", second)
    witness, victim = cluster.nodes[0], cluster.nodes[-1]
    assert len(victim._genesis) == 2
    sealed = witness.state.pre_state_root()
    puts = []
    if platform == "parity":
        put = ParityState.put

        def counted(state, key, value):
            puts.append(key)
            put(state, key, value)

        monkeypatch.setattr(ParityState, "put", counted)
    wiped = victim.state
    victim.crash()
    victim.recover("cold")
    assert victim.state is not wiped
    assert (first.calls, second.calls) == (2, 2)
    assert victim.state.pre_state_root() == sealed
    for key in (b"kvstore/a", b"kvstore/b", b"kvstore/c"):
        assert victim.state.get(key) == witness.state.get(key)
    assert victim.state.get(b"kvstore/b") == b"3"
    if platform == "parity":
        assert puts == [b"kvstore/a", b"kvstore/b", b"kvstore/b", b"kvstore/c"]
        starved = cluster.nodes[1]
        monkeypatch.setattr(
            starved, "_new_state", lambda: ParityState(memory_cap_bytes=20)
        )
        starved.crash()
        with pytest.raises(StorageError, match="out of memory"):
            starved.recover("cold")
    cluster.close()


def test_memo_never_exceeds_its_capacity(monkeypatch):
    """One replica stays crashed for the whole run, so no record reaches
    its last install; the bound alone keeps the memo small."""
    cluster = _drive(
        monkeypatch, "erisdb", "churn", window=3,
        probe=lambda cluster: cluster.nodes[-1].crash(),
    )
    assert cluster.nodes[-1].executed_height == 0
    memo = cluster.nodes[0].execution_cache.commits
    assert memo.capacity == 3 and len(memo) == 3
    assert memo.misses > 3
    cluster.close()


def test_pow_forks_and_stale_executions_unchanged(monkeypatch, height_roots):
    """Depth-1 confirmation under a partition: replicas execute blocks a
    reorg later replaces. Fork blocks commit other write-sets from other
    roots — other memo keys — so nothing crosses branches."""
    def run(private=False):
        return _drive(
            monkeypatch, "ethereum", "churn", private=private, duration=60.0,
            overrides={"pow": {"confirmation_depth": 1}},
            faults=FaultSchedule(
                partitions=[PartitionFault(at_time=5.0, until_time=45.0)]
            ),
        )

    on, off = run(), run(private=True)
    assert on.stale_executions() == off.stale_executions() > 0
    assert height_roots(on) == height_roots(off)
    assert [dict(n.executed_block_hashes) for n in on.nodes] == [
        dict(n.executed_block_hashes) for n in off.nodes
    ]
    assert on.nodes[0].execution_cache.commits.hits > 0
    on.close()
    off.close()


@pytest.mark.parametrize("mode", ["warm", "cold"])
@pytest.mark.parametrize("platform", ["hyperledger", "parity"])
def test_recovery_inside_and_outside_the_window(
    monkeypatch, height_roots, platform, mode
):
    """A recovering replica replays far behind the cluster. With a
    one-entry window every commit it replays misses and is recomputed
    (the fallback path); at the default some are installed. Same roots
    either way, and the same as on private caches."""
    def run(private=False, window=None):
        return _drive(
            monkeypatch, platform, "smallbank", private=private,
            duration=20.0, window=window,
            faults=FaultSchedule(crashes=[CrashFault(
                at_time=8.0, count=1, include_leader=False,
                recover_at=12.0, recovery_mode=mode,
            )]),
        )

    narrow, default, off = run(window=1), run(), run(private=True)
    for on in (narrow, default):
        assert on.nodes[-1].recovery_times == off.nodes[-1].recovery_times != []
        assert height_roots(on) == height_roots(off)
        # Cold recovery swapped the state; the replacement rejoined.
        memo = on.nodes[0].execution_cache.commits
        assert on.nodes[-1].state.commit_memo is memo
    narrow_memo = narrow.nodes[0].execution_cache.commits
    assert narrow_memo.capacity == 1
    assert narrow_memo.misses > memo.misses  # the replay fell back
    assert narrow_memo.hits + narrow_memo.misses == memo.hits + memo.misses
    for cluster in (narrow, default, off):
        cluster.close()


def test_parity_memory_cap_trips_at_the_same_put(monkeypatch):
    """Installs are real store puts: per-replica memory accounting is
    what it was, and a cap too small for the run kills the same node
    at the same block with the same byte count."""
    def run(cap, private=False):
        memory: dict[tuple[int, int], int] = {}

        def probe(cluster):
            for index, node in enumerate(cluster.nodes):
                state = node.state
                commit = state.commit_block

                def commit_block(height, write_set=None, _commit=commit,
                                 _state=state, _index=index):
                    root = _commit(height, write_set)
                    memory[_index, height] = _state.memory_bytes()
                    return root

                state.commit_block = commit_block

        error = None
        try:
            cluster = _drive(
                monkeypatch, "parity", "smallbank", private=private,
                overrides={"memory_cap_bytes": cap}, probe=probe,
            )
            cluster.close()
        except StorageError as exc:
            error = str(exc)
        return memory, error

    roomy_on, no_error = run(50_000_000)
    roomy_off, _ = run(50_000_000, private=True)
    assert no_error is None
    assert roomy_on == roomy_off
    heights = {height for _, height in roomy_on}
    assert len(heights) > 5 and {index for index, _ in roomy_on} == {0, 1, 2, 3}
    # A cap the run outgrows half-way.
    cap = sorted(roomy_on.values())[len(roomy_on) // 2]
    tight_on, error_on = run(cap)
    tight_off, error_off = run(cap, private=True)
    assert error_on is not None and "out of memory" in error_on
    assert error_on == error_off  # same byte count at the failing put
    assert tight_on == tight_off and 0 < len(tight_on) < len(roomy_on)


# ---------------------------------------------------------------------------
# Nothing outlives its last reader, executions too: an execution record
# retires on the last replica's lookup, a cold restart a fault schedule
# armed included, and the LRU bound holds only what some replica never
# reads.
# ---------------------------------------------------------------------------
def _held_blocks(cache):
    """The block hashes of the execution records ``cache`` holds."""
    return {block_hash for _, block_hash in cache._entries._data}


def test_a_record_with_no_reader_is_not_kept():
    """A put with no reader left stores nothing, on either memo: a
    one-replica cache keeps no execution and no commit record. A cold
    restart a schedule arms is a reader of every execution record."""
    cache = ExecutionCache(1)
    entry = CachedExecution(
        write_set=(), receipts=BlockReceipts.pack((), 1, []), tally=(0, 0, 0.0)
    )
    for memo, key, record in (
        (cache._entries, (b"root", b"block"), entry),
        (cache.commits, (b"root", ((b"k", b"v"),)), ("record",)),
    ):
        assert memo.readers == 0
        memo.put(key, record)
        assert len(memo) == 0 and memo.get(key) is None
    cache.add_cold_restarts(1)
    assert (cache._entries.readers, cache.commits.readers) == (1, 0)
    cache.store(b"root", b"block", entry)
    assert cache.lookup(b"root", b"block") is entry
    assert cache.lookup(b"root", b"block") is None  # its one reader took it


def test_a_lone_replica_keeps_no_record(monkeypatch):
    cluster = _drive(monkeypatch, "hyperledger", "smallbank", n=1)
    cache = cluster.nodes[0].execution_cache
    assert cluster.nodes[0].executed_height > 0
    assert cache.misses > 0 and cache.hits == 0
    assert len(cache._entries) == len(cache.commits) == 0
    cluster.close()


@pytest.mark.parametrize("platform", PLATFORMS)
def test_a_fault_free_run_keeps_no_record_every_replica_took(
    monkeypatch, platform
):
    """Each of the four replicas reads every record it did not store, so
    at the end the cache holds only the records of blocks some replica
    has yet to execute (the run's last blocks, a fork block)."""
    cluster = _drive(
        monkeypatch, platform, "smallbank",
        duration=60.0 if platform == "ethereum" else None,  # PoW is slow
    )
    cache = cluster.nodes[0].execution_cache
    everywhere = set.intersection(
        *(set(node.receipts.blocks) for node in cluster.nodes)
    )
    assert len(everywhere) > 5 and cache.hits > 0
    assert not _held_blocks(cache) & everywhere
    assert len(cache._entries) < len(everywhere)
    cluster.close()


def test_a_record_a_replica_never_reads_waits_for_its_bound(monkeypatch):
    """One replica stays crashed for the whole run and never restarts: no
    record meets its last reader, so the cache keeps every one until its
    LRU bound evicts the least recently read."""

    def small_cache(cluster):
        cluster.nodes[-1].crash()
        cache = ExecutionCache(len(cluster.nodes), capacity=8)
        for node in cluster.nodes:
            node.attach_execution_cache(cache)

    cluster = _drive(monkeypatch, "hyperledger", "smallbank", probe=small_cache)
    *live, crashed = cluster.nodes
    assert crashed.executed_height == 0
    cache = live[0].execution_cache
    assert cache.misses > 8 and len(cache._entries) == 8
    executed = live[0].executed_block_hashes
    held = _held_blocks(cache)
    assert held <= set(executed.values())
    assert executed[1] not in held  # the bound evicted the oldest
    assert executed[live[0].executed_height] in held
    # Below the bound nothing is evicted: every record the run stored
    # is still there, waiting for the crashed replica.
    kept = _drive(
        monkeypatch, "hyperledger", "smallbank",
        probe=lambda cluster: cluster.nodes[-1].crash(),
    )
    cache = kept.nodes[0].execution_cache
    assert len(cache._entries) == cache.misses > 8
    cluster.close()
    kept.close()


def test_an_armed_cold_restart_replays_every_block_from_the_cache(
    monkeypatch, height_roots
):
    """A cold restart a fault schedule armed replays the victim's whole
    pre-crash chain from records kept for it: every replayed block hits,
    and the run's hits and misses equal a reference cache that never
    retires a record. Records stored before the crash carry the
    restart's read, those stored after it do not. A cold restart no
    schedule armed finds the retired records gone and recomputes, to
    the same roots."""
    replays = []
    readers = []  # reads a record is stored with: at the crash, at the restart

    def record_replay(cluster):
        victim = cluster.nodes[-1]
        crash, recover = victim.crash, victim.recover

        def crashing():
            readers.append(victim.execution_cache._entries.readers)
            crash()

        def recording(mode="warm"):
            cache = victim.execution_cache
            readers.append(cache._entries.readers)
            hits, misses = cache.hits, cache.misses
            recover(mode)
            replays.append((
                victim.executed_height,
                cache.hits - hits,
                cache.misses - misses,
            ))

        victim.crash, victim.recover = crashing, recording

    def run():
        return _drive(
            monkeypatch, "hyperledger", "smallbank", duration=20.0,
            probe=record_replay,
            faults=FaultSchedule(crashes=[CrashFault(
                at_time=8.0, count=1, include_leader=False,
                recover_at=12.0, recovery_mode="cold",
            )]),
        )

    retiring = run()
    with monkeypatch.context() as patch:
        patch.setattr(
            ExecutionCache, "lookup",
            lambda cache, root, block_hash: cache._entries.get((root, block_hash)),
        )
        reference = run()
    (height, hits, misses), reference_replay = replays
    assert height > 5 and (hits, misses) == (height, 0)
    assert reference_replay == replays[0]
    cache = retiring.nodes[0].execution_cache
    reference_cache = reference.nodes[0].execution_cache
    assert readers == [4, 3, 4, 3]  # both runs: the crash withdrew it
    assert cache._entries.readers == 3
    assert (cache.hits, cache.misses) == (
        reference_cache.hits, reference_cache.misses
    )
    assert len(cache._entries) < len(reference_cache._entries)
    assert height_roots(retiring) == height_roots(reference)
    # Unarmed: the replay misses what retired, recomputes it, and
    # reaches the roots the live replicas committed.
    witness, other = retiring.nodes[0], retiring.nodes[1]
    other.crash()
    misses = cache.misses
    other.recover("cold")
    assert other.executed_height == witness.executed_height
    assert cache.misses > misses
    assert other.state.pre_state_root() == witness.state.pre_state_root()
    retiring.close()
    reference.close()


def test_an_armed_cold_restart_run_ends_holding_no_record(
    monkeypatch, height_roots
):
    """The fault path keeps no record its readers never take: the crash
    withdraws the restart's read from every record stored after it,
    and the replica catching up (its replay, then block sync) executes
    and commits after every live replica, so it stores nothing on a
    miss, in either memo. The run ends holding no execution record and
    no commit record, at the private-cache oracle's roots."""
    def run(private=False):
        return _drive(
            monkeypatch, "hyperledger", "smallbank", duration=20.0,
            private=private,
            faults=FaultSchedule(crashes=[CrashFault(
                at_time=8.0, count=1, include_leader=False,
                recover_at=12.0, recovery_mode="cold",
            )]),
        )

    cluster, oracle = run(), run(private=True)
    assert cluster.nodes[-1].recovery_times
    cache = cluster.nodes[0].execution_cache
    assert cache.hits > 0 and cache.commits.hits > 0
    assert len(cache._entries) == len(cache.commits) == 0
    assert height_roots(cluster) == height_roots(oracle)
    cluster.close()
    oracle.close()


# ---------------------------------------------------------------------------
# Receipts by reference: a replica stores one packed receipts record per
# executed block and finds transactions through a tx -> block index, one
# per cluster.
# ---------------------------------------------------------------------------
_TX_IDS = [f"t{i}" for i in range(6)]


@settings(max_examples=150, deadline=None)
@given(
    shared=st.booleans(),
    blocks=st.lists(
        st.lists(st.sampled_from(_TX_IDS), max_size=4), min_size=1, max_size=5
    ),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["file", "replay", "reset"]),
            st.integers(0, 1),
            st.integers(0, 4),
            st.integers(0, 3),
        ),
        max_size=30,
    ),
)
def test_receipt_map_matches_a_dict(shared, blocks, ops):
    """Two replicas file, replay, re-file (another block holding the same
    tx; the same block again) and cold-reset; each one's ``has_receipt``
    and the reference reader over its columns answer exactly like a dict
    of receipts filed tx by tx, and ``receipts.blocks`` holds each filed
    record in latest-filing order."""
    cluster = _build("hyperledger", 2, seed=1, private=not shared)
    nodes = cluster.nodes
    reference: list[dict] = [{}, {}]
    filed: list[dict] = [{}, {}]  # block hash -> record, latest filing last
    # block -> (the record a replay takes, the receipts it stands for)
    cached: dict[int, tuple[BlockReceipts, list[ReceiptRow]]] = {}
    for op, who, block, variant in ops:
        node, block = nodes[who], block % len(blocks)
        if op == "reset":
            node.attach_execution_cache(node.execution_cache)
            reference[who], filed[who] = {}, {}
            continue
        entry = cached.get(block) if op == "replay" else None
        if entry is None:
            # Odd variants fail; gas differs by position, so a tx a
            # block holds twice answers with its last copy.
            ok, tx_ids = variant % 2 == 0, tuple(blocks[block])
            error = None if ok else f"revert {variant}"
            gas = [8 * variant + i for i in range(len(tx_ids))]
            entry = cached[block] = (
                BlockReceipts.pack(
                    tx_ids, block, [(used, None, error) for used in gas]
                ),
                [
                    ReceiptRow(tx_id, block, ok, used, error or "")
                    for tx_id, used in zip(tx_ids, gas)
                ],
            )
        receipts, expected_receipts = entry
        block_hash = b"block%d" % block
        node.receipts.file(block_hash, receipts)
        filed[who].pop(block_hash, None)
        filed[who][block_hash] = receipts
        for receipt in expected_receipts:
            reference[who][receipt.tx_id] = receipt
    for node, expected, blocks_filed in zip(nodes, reference, filed):
        receipts = node.receipts
        assert list(receipts.blocks) == list(blocks_filed)
        assert all(
            receipts.blocks[h] is blocks_filed[h] for h in blocks_filed
        )
        for tx_id in _TX_IDS:
            assert node.has_receipt(tx_id) == (tx_id in expected)
            assert receipt_of(receipts, tx_id) == expected.get(tx_id)
    cluster.close()


def test_replicas_share_receipt_records_only_with_the_cache_on(monkeypatch):
    """One receipts record per executed block, taken by reference: every
    replica holds the first executor's record and looks transactions up
    in the cluster's one index; on private caches each holds its own
    record (equal) and its own index."""
    on = _drive(monkeypatch, "hyperledger", "smallbank")
    off = _drive(monkeypatch, "hyperledger", "smallbank", private=True)
    for cluster, shared in ((on, True), (off, False)):
        first = cluster.nodes[0].receipts
        for node in cluster.nodes:
            executed = node.receipts.blocks
            assert list(executed) == list(node.executed_block_hashes.values())
        for node in cluster.nodes[1:]:
            mine = node.receipts
            common = first.blocks.keys() & mine.blocks.keys()
            assert sum(len(first.blocks[h]) for h in common) > 100
            for block_hash in common:
                theirs, ours = first.blocks[block_hash], mine.blocks[block_hash]
                assert (theirs is ours) == shared and theirs == ours
            assert (mine.index is first.index) == shared
        if shared:
            assert first.index is cluster.nodes[0].execution_cache.tx_index
    on.close()
    off.close()


def _freed_per_tx(cluster, block):
    """Execute ``block`` on every replica of ``cluster`` (once, then
    replayed), check they all filed one record and the cache retired
    its entry, and return the bytes per transaction that dropping the
    record from every replica frees."""
    node_a = cluster.nodes[0]
    cache = node_a.execution_cache
    pre_root = node_a.state.pre_state_root()
    gc.collect()
    tracemalloc.start()
    try:
        for node in cluster.nodes:
            node._execute_block(block)
        record = node_a.receipts.blocks[block.hash]
        assert all(n.receipts.blocks[block.hash] is record for n in cluster.nodes)
        assert record.success == b"\x01" * len(block.tx_ids)
        assert _peek(cache, pre_root, block.hash) is None
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        for node in cluster.nodes:
            del node.receipts.blocks[block.hash]
        del record
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return freed / len(block.tx_ids)


def test_a_replayed_blocks_receipts_retain_under_32_bytes_per_tx():
    """A 500-transaction block executed once and replayed by three
    replicas keeps one packed record: the third replay retired the
    cache's entry, and dropping the record from every replica frees
    under 32 B per transaction (a per-transaction receipt object and
    its gas int took ~112 B)."""
    cluster = _cluster(4, 1)
    freed = _freed_per_tx(cluster, _mixed_block(cluster.nodes[0], n=500))
    assert 0 < freed < 32, f"{freed:.1f} B per tx"
    cluster.close()


def test_a_block_of_reads_retains_under_32_bytes_per_tx_outputs_included():
    """A record keeps a digest of its block's outputs, not the outputs:
    500 kvstore reads of preloaded 100-character records retain under
    32 B per transaction, where a tuple of the reads' fresh strings
    kept ~166 B per read."""
    cluster = _cluster(4, 1)
    node = cluster.nodes[0]
    value = b"x" * 100
    preload_state(
        cluster, "kvstore", lambda: ((b"r%d" % i, value) for i in range(500))
    )
    block = _block(node, tuple(
        Transaction.create(
            sender=f"acct{i % 4}", contract="kvstore", function="read",
            args=(f"r{i}",), nonce=i,
        )
        for i in range(500)
    ))
    freed = _freed_per_tx(cluster, block)
    assert 0 < freed < 32, f"{freed:.1f} B per tx"
    cluster.close()


#: sha256 (first 16 hex digits) of every replica's main-branch receipts,
#: one 4-server smallbank ``_drive`` run per platform: for each block,
#: its record's ``outputs_digest`` (``None`` when not filed), then each
#: transaction's ``repr`` of the per-transaction ``Receipt`` dataclass
#: that replicas once stored, without its ``output`` (``None`` when not
#: found), rendered from the columns by :func:`_receipt_text`. Pinned
#: from the tree that still stored each block's ``outputs`` tuple, with
#: the same SHA-256 of its ``repr`` applied to it (CHANGES.md has the
#: script), so every output is still the one it was; serial and
#: parallel execution give the same.
_RECEIPT_DIGESTS = {
    "hyperledger": "42e23a8ccce9947e",
    "ethereum": "88a73a4dc748b52d",
    "parity": "d729040d774adf4a",
    "erisdb": "af40d81d8cec39df",
}


def _receipt_text(row: ReceiptRow | None) -> str:
    """The ``repr`` the stored ``Receipt`` dataclass gave ``row``, its
    ``output`` left out."""
    if row is None:
        return "None"
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(row._fields, row))
    return f"Receipt({fields})"


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("platform", PLATFORMS)
def test_execution_builds_no_receipt_and_get_answers_as_before(
    monkeypatch, platform, workers
):
    """A run packs receipts and has no per-transaction receipt class to
    build; read from the columns, every replica's receipts render as the
    ones it used to store."""
    assert not hasattr(transaction_module, "Receipt")
    assert "Receipt" not in chain_package.__all__
    cluster = _drive(
        monkeypatch, platform, "smallbank", overrides={"exec_workers": workers}
    )
    digest = hashlib.sha256()
    found = 0
    for node in cluster.nodes:
        for block in node.chain().main_branch():
            record = node.receipts.blocks.get(block.hash)
            digest.update(
                b"None" if record is None else record.outputs_digest.hex().encode()
            )
            for tx_id in block.tx_ids:
                row = receipt_of(node.receipts, tx_id)
                found += row is not None
                digest.update(_receipt_text(row).encode())
    assert found
    assert digest.hexdigest()[:16] == _RECEIPT_DIGESTS[platform]
    cluster.close()


def _output_types(output):
    """The type of ``output`` and of everything it holds."""
    yield type(output)
    if type(output) is dict:
        for key, value in output.items():
            yield type(key)
            yield from _output_types(value)
    elif type(output) is list:
        for value in output:
            yield from _output_types(value)


@pytest.mark.parametrize("workload", available_workloads())
def test_every_output_has_a_deterministic_repr(monkeypatch, workload):
    """A record's ``outputs_digest`` hashes the ``repr`` of its outputs,
    so every output a workload's contracts return is built from types
    whose ``repr`` is the same in every process (a float's is its
    shortest round-trip form): no set, no object that prints its
    address."""
    seen = set()
    execute = platform_base.PlatformNode._execute_tx

    def recording(node, tx, block, state=None):
        outcome = execute(node, tx, block, state)
        seen.update(_output_types(outcome[1]))
        return outcome

    monkeypatch.setattr(platform_base.PlatformNode, "_execute_tx", recording)
    _drive(monkeypatch, "hyperledger", workload).close()
    assert seen and seen <= {str, int, float, bool, type(None), dict, list}


@pytest.mark.parametrize("shared", [True, False])
def test_cold_recovery_recounts_from_an_empty_map(monkeypatch, shared):
    """A cold restart replays the chain from scratch: the replica's
    commit counters restart with its receipt map, so every replica's
    counters equal its successful and failed receipts."""
    cluster = _drive(
        monkeypatch, "hyperledger", "ycsb", private=not shared,
        duration=12.0,
        faults=FaultSchedule(crashes=[CrashFault(
            at_time=4.0, count=1, include_leader=False,
            recover_at=8.0, recovery_mode="cold",
        )]),
    )
    assert cluster.nodes[-1].recovery_times
    for node in cluster.nodes:
        success = b"".join(r.success for r in node.receipts.blocks.values())
        assert node.committed_tx_count == success.count(1) > 0
        assert node.failed_tx_count == success.count(0)
    cluster.close()


# ---------------------------------------------------------------------------
# A recorded write-set is committed as it is: the genesis and every
# execution-cache replay reach the commit as the recorded tuple.
# ---------------------------------------------------------------------------
def _log_writes(monkeypatch, cls):
    """Log ``(op, key)`` for every ``put`` / ``delete`` on ``cls``."""
    log = []
    put, delete = cls.put, cls.delete

    def logged_put(state, key, value):
        log.append(("put", key))
        put(state, key, value)

    def logged_delete(state, key):
        log.append(("delete", key))
        delete(state, key)

    monkeypatch.setattr(cls, "put", logged_put)
    monkeypatch.setattr(cls, "delete", logged_delete)
    return log


@pytest.mark.parametrize("platform", ["hyperledger", "erisdb", "ethereum"])
def test_a_recorded_write_set_is_never_copied_into_the_overlay(
    monkeypatch, platform
):
    """On a state whose ``put`` is the base one, the genesis and every
    replay are committed without a ``put``, from an empty overlay;
    only executing replicas write through the overlay."""
    log = _log_writes(monkeypatch, platform_base.JournaledState)
    overlays = []  # overlay size at every commit of a recorded write-set
    commit = platform_base.JournaledState.commit_block

    def commit_block(state, height, write_set=None):
        if write_set is not None:
            overlays.append(len(state._overlay))
        root = commit(state, height, write_set)
        assert not state._overlay
        return root

    monkeypatch.setattr(platform_base.JournaledState, "commit_block", commit_block)
    replays = []  # writes each replica made while replaying a block
    execute = platform_base.PlatformNode._execute_block

    def execute_block(node, block):
        hits, written = node.execution_cache.hits, len(log)
        execute(node, block)
        if node.execution_cache.hits > hits:
            replays.append(len(log) - written)

    monkeypatch.setattr(platform_base.PlatformNode, "_execute_block", execute_block)
    cluster = build_cluster(platform, 4, seed=1)
    records = [(b"k%04d" % i, b"v%d" % i) for i in range(500)]
    preload_state(cluster, "kvstore", lambda: records)
    assert log == [] and overlays == [0, 0, 0, 0]
    cluster.close()

    overlays.clear()
    cluster = _drive(monkeypatch, platform, "smallbank")
    assert replays and set(replays) == {0}
    assert log  # executing replicas still write through the overlay
    assert len(overlays) == 4 + len(replays) and set(overlays) == {0}
    cluster.close()


def test_parity_charges_every_recorded_write_through_its_put(monkeypatch):
    """Parity's cap sees every recorded write, in order: the genesis on
    every replica and every replay, put by put, as the executing
    replica wrote them."""
    log = _log_writes(monkeypatch, ParityState)
    charged = []  # (writes made by the commit, the recorded write-set's)
    commit = ParityState.commit_block

    def commit_block(state, height, write_set=None):
        written = len(log)
        root = commit(state, height, write_set)
        if write_set is not None:
            charged.append((log[written:], [
                ("put" if value is not None else "delete", key)
                for key, value in write_set
            ]))
        return root

    monkeypatch.setattr(ParityState, "commit_block", commit_block)
    cluster = _drive(monkeypatch, "parity", "smallbank")
    genesis = [writes for writes, _ in charged[:4]]
    assert len(genesis[0]) > 0 and genesis == [genesis[0]] * 4
    assert len(charged) > 4  # the genesis on four replicas, then replays
    assert all(writes == recorded for writes, recorded in charged)
    cluster.close()


#: Transient bytes per record of a 20k-record YCSB preload on four
#: replicas (tracemalloc peak minus what stays). Each replica used to
#: copy the genesis write-set into its overlay before committing the
#: tuple it already had: hyperledger 142.8 → 103.9 B, erisdb
#: 440.1 → 410.6 B (CPython 3.11; what remains is the sorted write-set
#: and, on erisdb, the trie build's puts list).
PRELOAD_TRANSIENT_BOUND = {"hyperledger": 120, "erisdb": 425}


@pytest.mark.parametrize("platform", sorted(PRELOAD_TRANSIENT_BOUND))
def test_the_genesis_build_makes_no_overlay_copy(platform):
    rows = 20_000
    cluster = build_cluster(platform, 4, seed=1)
    workload = YCSBWorkload(YCSBConfig(record_count=rows))
    gc.collect()
    tracemalloc.start()
    try:
        workload.preload(cluster)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    transient = (peak - retained) / rows
    assert transient < PRELOAD_TRANSIENT_BOUND[platform], (
        f"{transient:.1f} B per record"
    )
    cluster.close()
