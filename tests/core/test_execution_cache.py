"""Cross-replica execution memoization tests (PR 5).

The simulator is deterministic, so replicas executing the same block
from the same pre-state root must produce identical results; the
:class:`~repro.platforms.base.ExecutionCache` makes replicas 2..N
replay the first replica's recorded write-set instead of re-running
the contracts. These tests pin the semantic contract: **cache on and
cache off are byte-identical** — same StatsSummary, same chain height,
same per-node state roots — on all four platforms.
"""

import gc
import hashlib
import tracemalloc
from dataclasses import FrozenInstanceError, asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.transaction import Receipt, Transaction
from repro.core import (
    CrashFault,
    Driver,
    DriverConfig,
    FaultSchedule,
    PartitionFault,
)
from repro.core.runner import ExperimentSpec, run_experiment
from repro.core.workload import Workload, preload_state
from repro.errors import StorageError
from repro.platforms import ExecutionCache, build_cluster
from repro.platforms import base as platform_base
from repro.platforms.base import CachedExecution
from repro.platforms.parity import ParityState
from repro.workloads import YCSBConfig, YCSBWorkload, make_workload

#: Kept small: the differential runs every platform twice.
DURATION_S = {
    "hyperledger": 12.0,
    "ethereum": 15.0,
    "parity": 12.0,
    "erisdb": 12.0,
}


def _run(platform: str, cache_on: bool):
    spec = ExperimentSpec(
        platform=platform,
        workload="ycsb",
        n_servers=4,
        n_clients=2,
        request_rate_tx_s=40.0,
        duration_s=DURATION_S[platform],
        seed=5,
        config_overrides={"execution_cache": cache_on},
    )
    return run_experiment(spec)


@pytest.mark.parametrize(
    "platform", ["hyperledger", "ethereum", "parity", "erisdb"]
)
def test_cache_on_vs_off_is_byte_identical(platform):
    on = _run(platform, True)
    off = _run(platform, False)
    assert asdict(on.summary) == asdict(off.summary)
    assert on.chain_height == off.chain_height
    assert on.total_blocks == off.total_blocks


@pytest.mark.parametrize(
    "platform", ["hyperledger", "ethereum", "parity", "erisdb"]
)
def test_cache_replicas_agree_on_state_roots(platform):
    """With the cache on, every node's committed roots match the
    cache-off run of the same seed, height by height."""

    def roots(cache_on):
        cluster = build_cluster(
            platform, 4, seed=5,
            config_overrides={"execution_cache": cache_on},
        )
        driver = Driver(
            cluster,
            YCSBWorkload(YCSBConfig(record_count=50)),
            DriverConfig(
                n_clients=2, request_rate_tx_s=40,
                duration_s=DURATION_S[platform],
            ),
        )
        driver.run()
        per_node = [dict(node._height_roots) for node in cluster.nodes]
        cluster.close()
        return per_node

    on, off = roots(True), roots(False)
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
    assert cache is not None
    assert all(node.execution_cache is cache for node in cluster.nodes)
    # 4 replicas execute every block: 1 miss (the first executor) and
    # 3 hits per block.
    assert cache.misses > 0
    assert cache.hits == 3 * cache.misses
    cluster.close()


def test_cache_knob_off_detaches_cache():
    cluster = build_cluster(
        "hyperledger", 2, seed=1,
        config_overrides={"execution_cache": False},
    )
    assert all(node.execution_cache is None for node in cluster.nodes)
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
        receipts=(Receipt("tx1", 1, True, 21_000),),
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
    entry = CachedExecution(write_set=(), receipts=(), tally=(0, 0, 0.0))
    for i in range(3):
        cache.store(b"root%d" % i, b"block", entry)
    assert cache.lookup(b"root0", b"block") is None  # evicted (LRU)
    assert cache.lookup(b"root2", b"block") is entry


# ---------------------------------------------------------------------------
# Worker-count insensitivity (PR 9)
# ---------------------------------------------------------------------------
def _cached_node(workers, shared_cache):
    """One node with the given exec_workers, wired to a shared cache."""
    from repro.platforms import build_cluster as _build

    cluster = _build(
        "hyperledger", 1, seed=5,
        config_overrides={"exec_workers": workers},
    )
    node = cluster.nodes[0]
    node.execution_cache = shared_cache
    return cluster, node


def _mixed_block(node, n=24, hot_every=3):
    """A block mixing independent keys with a hot-key chain."""
    from repro.chain.block import Block
    from repro.chain.transaction import Transaction

    txs = tuple(
        Transaction.create(
            sender=f"acct{i % 4}",
            contract="kvstore",
            function="write",
            args=("hot" if i % hot_every == 0 else f"k{i}", f"v{i}"),
            nonce=i,
        )
        for i in range(n)
    )
    genesis = node.chain().block_by_height(0)
    return Block.build(
        height=1, parent_hash=genesis.hash, transactions=txs,
        state_root=b"", proposer=node.node_id, timestamp=1.0,
    )


@pytest.mark.parametrize(
    "populate_workers,replay_workers",
    [(4, 1), (1, 4)],
    ids=["parallel-populates-serial-replays",
         "serial-populates-parallel-replays"],
)
def test_cache_entries_cross_worker_counts(populate_workers, replay_workers):
    """A cache entry is a pure function of (pre-state, block), never of
    the executing replica's worker count: a parallel-populated entry
    replayed by a serial replica (and vice versa) yields byte-identical
    roots and receipts."""
    shared = ExecutionCache(2)
    pop_cluster, populator = _cached_node(populate_workers, shared)
    block = _mixed_block(populator)
    pre_root = populator.state.pre_state_root()
    populator._execute_block(block)
    assert shared.misses == 1 and shared.hits == 0
    entry = shared.lookup(pre_root, block.hash)
    assert entry is not None
    # Parallel executors record the schedule; serial ones record None.
    if populate_workers > 1:
        assert entry.levels is not None and max(entry.levels) > 1
    else:
        assert entry.levels is None

    rep_cluster, replayer = _cached_node(replay_workers, shared)
    replayer._execute_block(block)
    assert shared.hits >= 2  # replayer's lookup (plus the assert above)
    assert replayer._height_roots[1] == populator._height_roots[1]
    assert replayer.receipts.blocks == populator.receipts.blocks
    pop_cluster.close()
    rep_cluster.close()


def test_cache_entries_identical_whoever_executes():
    """Serially- and parallel-executed caches hold byte-identical
    write-sets and receipts for the same block; only the optional
    schedule annotation differs."""
    serial_cache, parallel_cache = ExecutionCache(1), ExecutionCache(1)
    s_cluster, serial_node = _cached_node(1, serial_cache)
    p_cluster, parallel_node = _cached_node(4, parallel_cache)
    block = _mixed_block(serial_node)
    s_pre = serial_node.state.pre_state_root()
    p_pre = parallel_node.state.pre_state_root()
    assert s_pre == p_pre  # same seed, same genesis
    serial_node._execute_block(block)
    parallel_node._execute_block(block)
    s_entry = serial_cache.lookup(s_pre, block.hash)
    p_entry = parallel_cache.lookup(p_pre, block.hash)
    assert s_entry is not None and p_entry is not None
    assert s_entry.write_set == p_entry.write_set
    assert s_entry.receipts == p_entry.receipts
    assert s_entry.levels is None
    assert p_entry.levels is not None
    s_cluster.close()
    p_cluster.close()


def test_parallel_replayer_charges_the_shared_schedule():
    """Two parallel replicas sharing a cache charge identical CPU: the
    replayer recomputes the makespan from the cached levels instead of
    falling back to the serial sum."""
    shared = ExecutionCache(2)
    a_cluster, node_a = _cached_node(4, shared)
    b_cluster, node_b = _cached_node(4, shared)
    block = _mixed_block(node_a)
    node_a._execute_block(block)  # executes for real
    node_b._execute_block(block)  # replays the entry
    assert shared.hits >= 1
    assert node_b._height_roots[1] == node_a._height_roots[1]
    assert node_b.cpu_time == node_a.cpu_time
    a_cluster.close()
    b_cluster.close()


def test_replayed_receipts_are_the_first_executors_objects():
    """A receipt is a pure function of (pre-state, block): replicas on a
    shared cache file the same immutable objects; without one (the knob
    off) each builds its own, equal field for field."""
    shared = ExecutionCache(2)
    a_cluster, node_a = _cached_node(1, shared)
    b_cluster, node_b = _cached_node(4, shared)
    c_cluster, node_c = _cached_node(1, None)
    block = _mixed_block(node_a)
    for node in (node_a, node_b, node_c):
        node._execute_block(block)
    receipts = node_a.receipts.blocks[block.hash]
    assert [r.tx_id for r in receipts] == list(block.tx_ids)
    assert node_b.receipts.blocks[block.hash] is receipts
    assert node_c.receipts.blocks == node_a.receipts.blocks
    assert all(
        c is not a for c, a in zip(node_c.receipts.blocks[block.hash], receipts)
    )
    receipt = node_a.receipts.get(block.tx_ids[0])
    assert receipt is receipts[0]
    assert not hasattr(receipt, "committed_at")
    for field in ("tx_id", "success", "gas_used", "output"):
        with pytest.raises(FrozenInstanceError):
            setattr(receipt, field, None)
    for cluster in (a_cluster, b_cluster, c_cluster):
        cluster.close()


# ---------------------------------------------------------------------------
# Commit once per cluster (PR 17): replicas install the first replica's
# state commit. The knob that turns the execution memo off turns this
# off too, so cache-off is the differential oracle for both.
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


def _drive(monkeypatch, platform, workload, cache_on, *, n=4, duration=None,
           overrides=None, faults=None, window=None, probe=None):
    """One driver run; returns the cluster (caller closes it)."""
    monkeypatch.setattr(
        platform_base, "COMMIT_MEMO_ENTRIES", window or DEFAULT_WINDOW
    )
    cluster = build_cluster(
        platform, n, seed=5,
        config_overrides={"execution_cache": cache_on, **(overrides or {})},
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


def _roots(cluster):
    return [dict(node._height_roots) for node in cluster.nodes]


@pytest.mark.parametrize("workload", ["smallbank", "churn"])
@pytest.mark.parametrize("platform", PLATFORMS)
def test_installed_commits_match_computed_roots(monkeypatch, platform, workload):
    on = _drive(monkeypatch, platform, workload, True)
    off = _drive(monkeypatch, platform, workload, False)
    assert _roots(on) == _roots(off)
    assert all(_roots(on))
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


def test_replicas_share_bucket_objects_only_with_the_cache_on(monkeypatch):
    """Build once, reference N-1 times, applied to the bucket tree: with
    the cache on, replicas at one sealed root hold the very same bucket
    objects — one copy of the state per cluster; with it off each holds
    its own copy, equal bucket for bucket. Per-height roots are the same
    either way."""
    on = _drive(monkeypatch, "hyperledger", "smallbank", True)
    off = _drive(monkeypatch, "hyperledger", "smallbank", False)
    assert _roots(on) == _roots(off)

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


#: A driven churn run (``_drive``, cache on, seed 5) as the code before
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
def test_retirement_moves_no_root_write_or_memo_count(monkeypatch, platform):
    """Retiring a record on its last install frees it early and changes
    nothing else: roots, node writes and memo counts are the ones the
    records-until-evicted memo produced."""
    cluster = _drive(monkeypatch, platform, "churn", True)
    roots = hashlib.sha256(
        repr([sorted(r.items()) for r in _roots(cluster)]).encode()
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
    """A 4-replica erisdb cluster after a 20k-record YCSB preload: ~575 B
    a record stay (the shared trie's nodes). Keeping the write-set on
    every node and the commit record in the memo held ~890 B."""
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
    assert retained / rows < 700, f"{retained / rows:.0f} B per record"
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


@pytest.mark.parametrize("cache_on", [True, False])
def test_parity_memory_cap_trips_on_an_oversized_preload(cache_on):
    """Fig. 12's 'X': the shared write-set goes through every replica's
    own put accounting, so a preload the cap cannot hold still dies —
    and rewrites of one key still count net, not gross."""
    def cluster():
        return build_cluster(
            "parity", 2, seed=1,
            config_overrides={
                "memory_cap_bytes": 20_000, "execution_cache": cache_on,
            },
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
        monkeypatch, "erisdb", "churn", True, window=3,
        probe=lambda cluster: cluster.nodes[-1].crash(),
    )
    assert cluster.nodes[-1].executed_height == 0
    memo = cluster.nodes[0].execution_cache.commits
    assert memo.capacity == 3 and len(memo) == 3
    assert memo.misses > 3
    cluster.close()


def test_pow_forks_and_stale_executions_unchanged(monkeypatch):
    """Depth-1 confirmation under a partition: replicas execute blocks a
    reorg later replaces. Fork blocks commit other write-sets from other
    roots — other memo keys — so nothing crosses branches."""
    def run(cache_on):
        return _drive(
            monkeypatch, "ethereum", "churn", cache_on, duration=60.0,
            overrides={"pow": {"confirmation_depth": 1}},
            faults=FaultSchedule(
                partitions=[PartitionFault(at_time=5.0, until_time=45.0)]
            ),
        )

    on, off = run(True), run(False)
    assert on.stale_executions() == off.stale_executions() > 0
    assert _roots(on) == _roots(off)
    assert [dict(n.executed_block_hashes) for n in on.nodes] == [
        dict(n.executed_block_hashes) for n in off.nodes
    ]
    assert on.nodes[0].execution_cache.commits.hits > 0
    on.close()
    off.close()


@pytest.mark.parametrize("mode", ["warm", "cold"])
@pytest.mark.parametrize("platform", ["hyperledger", "parity"])
def test_recovery_inside_and_outside_the_window(monkeypatch, platform, mode):
    """A recovering replica replays far behind the cluster. With a
    one-entry window every commit it replays misses and is recomputed
    (the fallback path); at the default some are installed. Same roots
    either way, and the same as with the knob off."""
    def run(cache_on, window=None):
        return _drive(
            monkeypatch, platform, "smallbank", cache_on, duration=20.0,
            window=window,
            faults=FaultSchedule(crashes=[CrashFault(
                at_time=8.0, count=1, include_leader=False,
                recover_at=12.0, recovery_mode=mode,
            )]),
        )

    narrow, default, off = run(True, 1), run(True), run(False)
    for on in (narrow, default):
        assert on.nodes[-1].recovery_times == off.nodes[-1].recovery_times != []
        assert _roots(on) == _roots(off)
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
    def run(cache_on, cap):
        memory: dict[tuple[int, int], int] = {}

        def probe(cluster):
            for index, node in enumerate(cluster.nodes):
                state = node.state
                commit = state.commit_block

                def commit_block(height, _commit=commit, _state=state,
                                 _index=index):
                    root = _commit(height)
                    memory[_index, height] = _state.memory_bytes()
                    return root

                state.commit_block = commit_block

        error = None
        try:
            cluster = _drive(
                monkeypatch, "parity", "smallbank", cache_on,
                overrides={"memory_cap_bytes": cap}, probe=probe,
            )
            cluster.close()
        except StorageError as exc:
            error = str(exc)
        return memory, error

    roomy_on, no_error = run(True, 50_000_000)
    roomy_off, _ = run(False, 50_000_000)
    assert no_error is None
    assert roomy_on == roomy_off
    heights = {height for _, height in roomy_on}
    assert len(heights) > 5 and {index for index, _ in roomy_on} == {0, 1, 2, 3}
    # A cap the run outgrows half-way.
    cap = sorted(roomy_on.values())[len(roomy_on) // 2]
    tight_on, error_on = run(True, cap)
    tight_off, error_off = run(False, cap)
    assert error_on is not None and "out of memory" in error_on
    assert error_on == error_off  # same byte count at the failing put
    assert tight_on == tight_off and 0 < len(tight_on) < len(roomy_on)


# ---------------------------------------------------------------------------
# Receipts by reference: a replica stores one receipts tuple per executed
# block and finds transactions through a tx -> block index, one per
# cluster with the cache on.
# ---------------------------------------------------------------------------
_TX_IDS = [f"t{i}" for i in range(6)]


@settings(max_examples=150, deadline=None)
@given(
    cache_on=st.booleans(),
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
def test_receipt_map_matches_a_dict(cache_on, blocks, ops):
    """Two replicas file, replay, re-file (another block holding the same
    tx; the same block again) and cold-reset; each one's ``has_receipt``
    and ``receipts.get`` answer exactly like a dict filed tx by tx, and
    ``receipts.blocks`` holds each filed tuple in latest-filing order."""
    cluster = build_cluster(
        "hyperledger", 2, seed=1,
        config_overrides={"execution_cache": cache_on},
    )
    nodes = cluster.nodes
    reference: list[dict] = [{}, {}]
    filed: list[dict] = [{}, {}]  # block hash -> tuple, latest filing last
    cached: dict[int, tuple] = {}  # block -> the tuple a replay would take
    for op, who, block, variant in ops:
        node, block = nodes[who], block % len(blocks)
        if op == "reset":
            node.attach_execution_cache(node.execution_cache)
            reference[who], filed[who] = {}, {}
            continue
        receipts = cached.get(block) if op == "replay" else None
        if receipts is None:
            receipts = cached[block] = tuple(
                Receipt(tx_id, block, variant % 2 == 0, variant)
                for tx_id in blocks[block]
            )
        block_hash = b"block%d" % block
        node.receipts.file(block_hash, receipts)
        filed[who].pop(block_hash, None)
        filed[who][block_hash] = receipts
        for receipt in receipts:
            reference[who][receipt.tx_id] = receipt
    for node, expected, blocks_filed in zip(nodes, reference, filed):
        receipts = node.receipts
        assert list(receipts.blocks) == list(blocks_filed)
        assert all(
            receipts.blocks[h] is blocks_filed[h] for h in blocks_filed
        )
        for tx_id in _TX_IDS:
            assert node.has_receipt(tx_id) == (tx_id in expected)
            assert receipts.get(tx_id) is expected.get(tx_id)
    cluster.close()


def test_replicas_share_receipt_tuples_only_with_the_cache_on(monkeypatch):
    """One receipts tuple per executed block, taken by reference: with the
    cache on every replica holds the first executor's tuple and looks
    transactions up in the cluster's one index; with it off each holds
    its own tuple (equal) and its own index."""
    on = _drive(monkeypatch, "hyperledger", "smallbank", True)
    off = _drive(monkeypatch, "hyperledger", "smallbank", False)
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


@pytest.mark.parametrize("cache_on", [True, False])
def test_cold_recovery_recounts_from_an_empty_map(monkeypatch, cache_on):
    """A cold restart replays the chain from scratch: the replica's
    commit counters restart with its receipt map, so every replica's
    counters equal its successful and failed receipts."""
    cluster = _drive(
        monkeypatch, "hyperledger", "ycsb", cache_on, duration=12.0,
        faults=FaultSchedule(crashes=[CrashFault(
            at_time=4.0, count=1, include_leader=False,
            recover_at=8.0, recovery_mode="cold",
        )]),
    )
    assert cluster.nodes[-1].recovery_times
    for node in cluster.nodes:
        receipts = [r for rs in node.receipts.blocks.values() for r in rs]
        assert node.committed_tx_count == sum(r.success for r in receipts) > 0
        assert node.failed_tx_count == sum(not r.success for r in receipts)
    cluster.close()
