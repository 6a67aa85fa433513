"""Kernel microbenchmarks: the seven layers hostbench cannot reach.

hostbench (``benchmarks/hostbench``) is the end-to-end benchmark: six
whole-``run_experiment`` workloads with repetitions, a calibration loop
and spread control. These kernels sit beside it, each timing one layer
that is off, or below, the ``run_experiment`` path — the paper's *micro*
benchmarks to hostbench's *macro* ones:

* ``evm_cpuheavy`` — interpreted EVM steps/s on the CPUHeavy quicksort
  program (the paper's execution-layer stressor, Figure 11; contracts
  execute natively under ``run_experiment``, so no workload reaches it).
* ``trie_puts`` — Patricia-Merkle trie logical puts/s through the
  journaled overlay + batched per-block update (Figure 12's write
  amplification, paid once per block instead of once per put).
* ``block_commit`` — the full platform-state commit pipeline:
  contention-heavy writes into the overlay, net write-set flushed by
  ``commit_block``.
* ``replica_execute`` — cluster-wide block application: one replica
  executes SmallBank transactions, N-1 commit the memoized write-set
  as it is by installing the first replica's commit record.
* ``parallel_execute`` — the ``exec_workers > 1`` capture-and-schedule
  path, with the simulated 4-worker speedup in ``meta``.
* ``scheduler_events`` — discrete-event scheduler events/s through the
  heap, the floor under every simulated component.
* ``arrival_gen`` — raw arrival-process generation: (gap, sender)
  draws/s from the seeded Poisson + Zipf generators.

Each kernel returns ops/s over wall time plus, in ``meta``, the
machine-independent counts ``test_perf.py`` asserts exactly. Sizes,
timed regions, ``ops`` and ``unit`` are the trajectory's contract (see
README, "Kernel trajectory"): change one and the committed
``BENCH.json`` stops being comparable. ``run.py`` is the runner.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.contracts import TxContext, create_contract
from repro.core.txsched import TxView, dependency_levels, level_makespan
from repro.core.workload import ArrivalGenerator, ArrivalSpec
from repro.crypto.trie import DictNodeStore, PatriciaTrie
from repro.evm import EVM, CallContext, Profile
from repro.evm.programs import cpuheavy_code
from repro.platforms.base import ExecutionCache, _NamespacedState
from repro.platforms.ethereum import EthereumState
from repro.sim.events import Scheduler


@dataclass
class BenchResult:
    """One benchmark's measurement."""

    name: str
    ops: int
    unit: str
    wall_time_s: float
    ops_per_s: float
    meta: dict = field(default_factory=dict)


def bench_evm(quick: bool = False) -> BenchResult:
    """EVM interpreter throughput in executed opcodes (steps) per second."""
    code = cpuheavy_code()
    n = 24 if quick else 96
    iterations = 3 if quick else 10
    vm = EVM(Profile.PARITY)
    context = CallContext(args=(n,))
    # Warm-up run (also populates any program cache) kept out of timing.
    warm = vm.execute(code, context=context)
    if not warm.success or warm.return_value != 1:
        raise RuntimeError(f"cpuheavy warm-up failed: {warm.error!r}")
    steps = 0
    start = time.perf_counter()
    for _ in range(iterations):
        steps += vm.execute(code, context=context).steps
    wall = time.perf_counter() - start
    return BenchResult(
        name="evm_cpuheavy",
        ops=steps,
        unit="steps",
        wall_time_s=wall,
        ops_per_s=steps / wall,
        meta={"n": n, "iterations": iterations, "profile": "parity"},
    )


#: Logical writes folded into one commit by the trie benchmark —
#: roughly a Hyperledger batch (500 txs x ~1 write) per block.
TRIE_BLOCK_SIZE = 500


def bench_trie(quick: bool = False) -> BenchResult:
    """Patricia-Merkle trie write throughput in logical puts per second.

    Measures the *product* write path (PR 5): intra-block writes land
    in a journaled overlay (a dict, last-write-wins) and every
    ``TRIE_BLOCK_SIZE`` logical puts the net write-set flushes through
    the batched ``PatriciaTrie.update`` — one shared-path rewrite per
    block, exactly what ``commit_block`` does. Only the per-block
    commit root is observable in the system, so logical puts/s through
    this pipeline is the honest data-model figure.
    """
    puts = 2_000 if quick else 12_000
    trie = PatriciaTrie(DictNodeStore())
    root = None
    overlay: dict[bytes, bytes] = {}
    blocks = 0
    start = time.perf_counter()
    for i in range(puts):
        key = b"acct:%016d" % (i % (puts // 2 or 1))  # half fresh, half updates
        overlay[key] = b"%032d" % i
        if len(overlay) >= TRIE_BLOCK_SIZE:
            root = trie.update(root, overlay.items())
            overlay.clear()
            blocks += 1
    if overlay:
        root = trie.update(root, overlay.items())
        blocks += 1
    wall = time.perf_counter() - start
    return BenchResult(
        name="trie_puts",
        ops=puts,
        unit="puts",
        wall_time_s=wall,
        ops_per_s=puts / wall,
        meta={
            "node_writes": trie.node_writes,
            "node_reads": trie.node_reads,
            "block_size": TRIE_BLOCK_SIZE,
            "blocks": blocks,
        },
    )


def bench_block_commit(quick: bool = False) -> BenchResult:
    """Block-commit pipeline throughput in logical writes per second.

    Drives the full :class:`~repro.platforms.ethereum.EthereumState`
    surface the way block execution does: contention-heavy writes
    (half of them re-hitting a small hot keyset, like SmallBank's
    accounts) buffer in the journaled overlay and ``commit_block``
    flushes the net write-set through the batched trie update. This is
    the layer PR 5 named as the bottleneck — the number here is
    what one replica can commit, end to end, per wall second.
    """
    blocks = 8 if quick else 30
    writes_per_block = 500
    hot_keys = 64
    state = EthereumState()
    total = blocks * writes_per_block
    start = time.perf_counter()
    seq = 0
    for height in range(1, blocks + 1):
        for i in range(writes_per_block):
            if i % 2:
                key = b"smallbank/acct:%06d" % (seq % hot_keys)
            else:
                key = b"ycsb/user%012d" % seq
            state.put(key, b"%032d" % seq)
            seq += 1
        state.commit_block(height)
    wall = time.perf_counter() - start
    return BenchResult(
        name="block_commit",
        ops=total,
        unit="writes",
        wall_time_s=wall,
        ops_per_s=total / wall,
        meta={
            "blocks": blocks,
            "writes_per_block": writes_per_block,
            "hot_keys": hot_keys,
            "node_writes": state.trie.trie.node_writes,
        },
    )


def bench_replica_execute(quick: bool = False) -> BenchResult:
    """Cluster-wide block execution throughput in transactions/second.

    Models what an N-replica cluster pays to apply one block
    everywhere: the first replica executes the SmallBank transactions
    for real (contract dispatch, gas metering, overlay writes), the
    :class:`~repro.platforms.base.ExecutionCache` records the net
    write-set, and replicas 2..N commit it as it is, by installing the
    first replica's commit record, with no overlay copy — the
    cross-replica memoization fast path as ``build_cluster`` wires it,
    through each state's ``attach_execution_cache``, so the four
    in-memory tries share the cache's one node store.
    ops counts every (transaction, replica) application; equal roots on
    all replicas are asserted each block, and ``meta.commit_installs``
    counts the commits taken from the memo.
    """
    replicas = 4
    blocks = 6 if quick else 20
    txs_per_block = 100
    cache = ExecutionCache(replicas)
    states = [EthereumState() for _ in range(replicas)]
    contract = create_contract("smallbank")
    for state in states:
        state.attach_execution_cache(cache)
        facade = _NamespacedState(state, "smallbank")
        for account in range(32):
            contract.invoke(
                facade, "create_account", (f"acct{account}", 0, 1_000_000)
            )
        state.commit_block(0)
    total = blocks * txs_per_block * replicas
    start = time.perf_counter()
    for height in range(1, blocks + 1):
        primary = states[0]
        facade = _NamespacedState(primary, "smallbank")
        ctx = TxContext(block_height=height)
        for i in range(txs_per_block):
            src = (height * 31 + i) % 32
            dst = (src + 1 + i % 7) % 32
            contract.invoke(
                facade,
                "send_payment",
                (f"acct{src}", f"acct{dst}", 1 + i % 9),
                ctx,
            )
        write_set = primary.pending_writes()
        roots = {primary.commit_block(height)}
        for state in states[1:]:
            roots.add(state.commit_block(height, write_set))
        if len(roots) != 1:
            raise RuntimeError("replica state roots diverged")
    wall = time.perf_counter() - start
    return BenchResult(
        name="replica_execute",
        ops=total,
        unit="tx",
        wall_time_s=wall,
        ops_per_s=total / wall,
        meta={
            "replicas": replicas,
            "blocks": blocks,
            "txs_per_block": txs_per_block,
            # Commits replicas 2..N installed from the cluster's memo
            # instead of hashing, the preload commit included.
            "commit_installs": cache.commits.hits,
        },
    )


def bench_parallel_execute(quick: bool = False) -> BenchResult:
    """Capture-and-schedule execution throughput in transactions/second.

    The ``exec_workers > 1`` hot path end to end: every transaction of
    a low-contention KVStore block runs against a recording
    :class:`~repro.core.txsched.TxView`, merges in block order, and the
    captured access sets feed ``dependency_levels`` +
    ``level_makespan``. ops/s is the wall-clock rate of that full
    capture pipeline. ``meta.speedup_w4`` is the *simulated* win — the
    serial duration sum over the 4-worker makespan — which its test
    requires to exceed 1.3x; ``capture_overhead`` is the wall-clock
    cost of capturing relative to plain serial execution (the price of
    the recording overlay). Equal roots between the serial and the
    captured pass are asserted every block.
    """
    blocks = 6 if quick else 20
    txs_per_block = 200
    workers = 4
    seconds_per_gas = 2.0e-8  # the ethereum preset's execution cost
    contract = create_contract("kvstore")

    def run_serial(state: EthereumState) -> list[int]:
        gas = []
        for height in range(1, blocks + 1):
            facade = _NamespacedState(state, "kvstore")
            ctx = TxContext(block_height=height)
            for i in range(txs_per_block):
                result = contract.invoke(
                    facade, "write",
                    (f"k{height * txs_per_block + i}", f"v{i}"), ctx,
                )
                gas.append(result.gas_used)
            state.commit_block(height)
        return gas

    def run_captured(state: EthereumState) -> tuple[list[float], float]:
        makespans = []
        serial_sum = 0.0
        for height in range(1, blocks + 1):
            ctx = TxContext(block_height=height)
            accesses = []
            durations = []
            for i in range(txs_per_block):
                view = TxView(state)
                facade = _NamespacedState(view, "kvstore")
                result = contract.invoke(
                    facade, "write",
                    (f"k{height * txs_per_block + i}", f"v{i}"), ctx,
                )
                accesses.append(view.access_sets())
                view.merge_into(state)
                durations.append(result.gas_used * seconds_per_gas)
            levels = dependency_levels(accesses)
            serial_sum += sum(durations)
            makespans.append(level_makespan(durations, levels, workers))
            state.commit_block(height)
        return makespans, serial_sum

    serial_state = EthereumState()
    captured_state = EthereumState()
    t0 = time.perf_counter()
    run_serial(serial_state)
    serial_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    makespans, serial_sum = run_captured(captured_state)
    captured_wall = time.perf_counter() - t0
    if serial_state.pre_state_root() != captured_state.pre_state_root():
        raise RuntimeError("captured execution diverged from serial roots")
    total = blocks * txs_per_block
    speedup = serial_sum / sum(makespans)
    return BenchResult(
        name="parallel_execute",
        ops=total,
        unit="tx",
        wall_time_s=captured_wall,
        ops_per_s=total / captured_wall,
        meta={
            "workers": workers,
            "blocks": blocks,
            "txs_per_block": txs_per_block,
            "speedup_w4": speedup,
            "capture_overhead": captured_wall / serial_wall,
        },
    )


def bench_scheduler(quick: bool = False) -> BenchResult:
    """Discrete-event scheduler throughput in processed events per second."""
    events = 20_000 if quick else 120_000
    sched = Scheduler()
    remaining = events

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            sched.schedule(0.001, tick)

    # Seed a realistic heap depth: many interleaved timers, not one.
    for i in range(64):
        sched.schedule(i * 0.0001, tick)
        remaining += 1
    remaining -= 64
    sched.schedule(0.0, tick)
    start = time.perf_counter()
    sched.run()
    wall = time.perf_counter() - start
    processed = sched.events_processed
    return BenchResult(
        name="scheduler_events",
        ops=processed,
        unit="events",
        wall_time_s=wall,
        ops_per_s=processed / wall,
        meta={},
    )


def bench_arrival_gen(quick: bool = False) -> BenchResult:
    """Arrival-process generator throughput in (gap, sender) draws/s.

    The open-loop driver's per-transaction fixed cost: one exponential
    gap plus one Zipf sender draw (bisect over the cumulative weights
    of a 100k-account population). This is the rate ceiling arrivals
    can be *generated* at, independent of what the cluster does with
    them.
    """
    draws = 200_000 if quick else 1_000_000
    spec = ArrivalSpec(
        process="poisson", rate_tx_s=1000.0, accounts=100_000, zipf_s=1.1
    )
    gen = ArrivalGenerator(spec, random.Random(7))
    start = time.perf_counter()
    for _ in range(draws):
        next(gen)
    wall = time.perf_counter() - start
    return BenchResult(
        name="arrival_gen",
        ops=draws,
        unit="draws",
        wall_time_s=wall,
        ops_per_s=draws / wall,
        meta={"accounts": 100_000, "zipf_s": 1.1, "process": "poisson"},
    )


KERNELS: dict[str, Callable[[bool], BenchResult]] = {
    "evm_cpuheavy": bench_evm,
    "trie_puts": bench_trie,
    "block_commit": bench_block_commit,
    "replica_execute": bench_replica_execute,
    "parallel_execute": bench_parallel_execute,
    "scheduler_events": bench_scheduler,
    "arrival_gen": bench_arrival_gen,
}
