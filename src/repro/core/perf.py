"""Performance microbenchmark harness (``blockbench perf``).

The ROADMAP's north star is a reproduction that runs "as fast as the
hardware allows" — which is only meaningful if speed is *measured*.
This module benches the four layers the driver exercises on every
simulated second:

* ``evm_cpuheavy`` — interpreted EVM steps/s on the CPUHeavy quicksort
  program (the paper's execution-layer stressor, Figure 11).
* ``trie_puts`` — Patricia-Merkle trie logical puts/s through the
  journaled overlay + batched per-block update (Figure 12's write
  amplification, paid once per block instead of once per put).
* ``block_commit`` — the full platform-state commit pipeline:
  contention-heavy writes into the overlay, net write-set flushed by
  ``commit_block`` (PR 5's tentpole path).
* ``replica_execute`` — cluster-wide block application: one replica
  executes SmallBank transactions, N-1 replay the memoized write-set
  (the ExecutionCache fast path).
* ``scheduler_events`` — discrete-event scheduler events/s, the floor
  under every simulated component.
* ``driver_tx`` — end-to-end macro-benchmark transactions/s of wall
  time: one full ``run_experiment`` through consensus, mempool, blocks
  and stats.
* ``chain_sync`` — cold crash-recovery catch-up: blocks a restarted
  replica block-syncs and replays per wall second (PR 10's recovery
  subsystem guard).
* ``driver_tx_100k`` — the open-loop megaclient path: a Poisson
  arrival process over a 100k-account Zipf population driving a full
  cluster, confirmed tx/s of wall (PR 6's tentpole measurement).
* ``arrival_gen`` — raw arrival-process generation: (gap, sender)
  draws/s from the seeded Poisson + Zipf generators.

Each benchmark reports ops/s over wall time (best of ``repeats`` to
shave scheduler noise). ``run_perf`` returns structured results and
``write_trajectory`` persists them as a ``BENCH_*.json`` file other
runs can be diffed against — the repo's perf trajectory.
"""

from __future__ import annotations

import json
import platform as _platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import BenchmarkError

#: Trajectory file schema identifier; bump on incompatible change.
SCHEMA = "blockbench-perf/1"


@dataclass
class BenchResult:
    """One benchmark's measurement."""

    name: str
    ops: int
    unit: str
    wall_time_s: float
    ops_per_s: float
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Individual benchmarks
# ---------------------------------------------------------------------------
def bench_evm(quick: bool = False) -> BenchResult:
    """EVM interpreter throughput in executed opcodes (steps) per second."""
    from ..evm import EVM, CallContext, Profile
    from ..evm.programs import cpuheavy_code

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
    from ..crypto.trie import DictNodeStore, PatriciaTrie

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
    the layer the ISSUE names as the bottleneck — the number here is
    what one replica can commit, end to end, per wall second.
    """
    from ..platforms.ethereum import EthereumState

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
    write-set, and replicas 2..N replay it into their own overlays and
    commit by installing the first replica's commit record — the
    cross-replica memoization fast path as ``build_cluster`` wires it.
    ops counts every (transaction, replica) application; equal roots on
    all replicas are asserted each block.
    """
    from ..contracts import create_contract, TxContext
    from ..platforms.base import ExecutionCache, _NamespacedState
    from ..platforms.ethereum import EthereumState

    replicas = 4
    blocks = 6 if quick else 20
    txs_per_block = 100
    cache = ExecutionCache()
    states = [EthereumState() for _ in range(replicas)]
    contract = create_contract("smallbank")
    for state in states:
        state.commit_memo = cache.commits
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
            state.apply_write_set(write_set)
            roots.add(state.commit_block(height))
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
        },
    )


def bench_scheduler(quick: bool = False) -> BenchResult:
    """Discrete-event scheduler throughput in processed events per second."""
    from ..sim.events import Scheduler

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


def bench_driver(quick: bool = False) -> BenchResult:
    """End-to-end macro benchmark: confirmed tx per wall-clock second."""
    from .runner import ExperimentSpec, run_experiment

    # 30 simulated seconds is the floor: at 4 ethereum servers the
    # first transaction-bearing blocks confirm between 25s and 30s, so
    # shorter windows measure an empty run. Quick mode shares the size
    # (about a second of wall time) to keep numbers comparable.
    duration = 30.0
    spec = ExperimentSpec(
        platform="ethereum",
        workload="ycsb",
        n_servers=4,
        n_clients=4,
        request_rate_tx_s=60.0,
        duration_s=duration,
        seed=7,
    )
    start = time.perf_counter()
    result = run_experiment(spec)
    wall = time.perf_counter() - start
    confirmed = result.summary.confirmed
    return BenchResult(
        name="driver_tx",
        ops=confirmed,
        unit="tx",
        wall_time_s=wall,
        ops_per_s=confirmed / wall,
        meta={
            "platform": spec.platform,
            "workload": spec.workload,
            "sim_duration_s": duration,
            "submitted": result.summary.submitted,
        },
    )


def bench_trace_overhead(quick: bool = False) -> BenchResult:
    """Lifecycle-tracing cost on the ``driver_tx`` macro path.

    Runs the exact ``driver_tx`` spec twice — tracing on, tracing off —
    and reports the *traced* path's throughput (so a gate on this
    benchmark bounds the product configuration users actually run,
    tracing being on by default). The off/on wall-time ratio lands in
    ``meta.overhead_ratio``: the tracing acceptance bar is < 1.05.
    """
    from .runner import ExperimentSpec, run_experiment

    def run_once(trace_stages: bool) -> tuple[float, int]:
        spec = ExperimentSpec(
            platform="ethereum",
            workload="ycsb",
            n_servers=4,
            n_clients=4,
            request_rate_tx_s=60.0,
            duration_s=30.0,
            seed=7,
            trace_stages=trace_stages,
        )
        start = time.perf_counter()
        result = run_experiment(spec)
        return time.perf_counter() - start, result.summary.confirmed

    # One untimed warmup run so allocator and import costs land on
    # neither side, then interleaved off/on pairs so machine drift hits
    # both sides alike; best-of-each-side keeps the ratio stable enough
    # to gate on.
    run_once(True)
    pairs = 1 if quick else 3
    walls_off, walls_on = [], []
    confirmed = confirmed_off = 0
    for _ in range(pairs):
        wall_off, confirmed_off = run_once(False)
        wall_on, confirmed = run_once(True)
        walls_off.append(wall_off)
        walls_on.append(wall_on)
    if confirmed != confirmed_off:
        raise BenchmarkError(
            "tracing changed the simulated outcome: "
            f"{confirmed} confirmed with tracing vs {confirmed_off} without"
        )
    wall_on = min(walls_on)
    wall_off = min(walls_off)
    return BenchResult(
        name="trace_overhead",
        ops=confirmed,
        unit="tx",
        wall_time_s=wall_on,
        ops_per_s=confirmed / wall_on,
        meta={
            "untraced_wall_time_s": wall_off,
            "untraced_ops_per_s": confirmed_off / wall_off,
            "overhead_ratio": wall_on / wall_off,
        },
    )


#: Closed-loop reference for ``driver_tx_100k``, memoized per process:
#: the reference exists to scale the headline number, costs tens of
#: seconds of wall time at the 100k-client population, and is fully
#: deterministic — re-measuring it on every best-of-N repeat would
#: triple the harness runtime without changing the answer. Its meta
#: keys say ``coroutine`` because BENCH_pr*.json files compare on them.
_COROUTINE_REF: dict | None = None


def _coroutine_reference() -> dict:
    """Measure the closed-loop driver at the full 100k-client scale.

    One sim second, zero drain: long enough to pay the population's
    real costs (construction, 100k submission RPCs, the polling fleet)
    and short enough to keep the harness usable. The comparable figure
    is *simulated seconds per wall second* — at equal population and
    offered load, how much faster does the clock advance.
    """
    global _COROUTINE_REF
    if _COROUTINE_REF is None:
        from .runner import ExperimentSpec, run_experiment

        sim_s = 1.0
        spec = ExperimentSpec(
            platform="hyperledger",
            workload="ycsb",
            n_servers=4,
            n_clients=100_000,
            request_rate_tx_s=0.02,  # x 100k clients = 2000 tx/s aggregate
            duration_s=sim_s,
            seed=7,
            stats_reservoir=10_000,
            drain_s=0.0,
        )
        start = time.perf_counter()
        run_experiment(spec)
        wall = time.perf_counter() - start
        _COROUTINE_REF = {
            "ref_clients": spec.n_clients,
            "ref_sim_duration_s": sim_s,
            "ref_wall_s": round(wall, 3),
            "ref_sim_s_per_wall_s": sim_s / wall,
        }
    return dict(_COROUTINE_REF)


def bench_driver_100k(quick: bool = False) -> BenchResult:
    """Open-loop megaclient driver: confirmed tx/s of wall at 100k clients.

    The tentpole measurement: a Poisson arrival process over a 100k
    Zipf-skewed sender population (one simulated client each) drives a
    4-server Hyperledger cluster at 2000 tx/s aggregate, where the
    closed loop needs 100k RPC endpoints, collectors and poll RPCs per
    tick. ops/s is confirmed transactions per wall second; meta
    carries the cross-path comparison as *simulated seconds per wall
    second* at equal population and offered load, measured against a
    real closed-loop run (skipped in quick mode — it is slow).
    """
    from .runner import ExperimentSpec, run_experiment

    duration = 4.0 if quick else 10.0
    rate = 1000.0 if quick else 2000.0
    spec = ExperimentSpec(
        platform="hyperledger",
        workload="ycsb",
        n_servers=4,
        n_clients=1,  # ignored: the arrival spec switches to open loop
        request_rate_tx_s=1.0,
        duration_s=duration,
        seed=7,
        arrival={
            "process": "poisson",
            "rate": rate,
            "accounts": 100_000,
            "zipf_s": 1.1,
        },
        stats_reservoir=10_000,
    )
    start = time.perf_counter()
    result = run_experiment(spec)
    wall = time.perf_counter() - start
    confirmed = result.summary.confirmed
    meta = {
        "accounts": 100_000,
        "arrival_process": "poisson",
        "arrival_rate_tx_s": rate,
        "zipf_s": 1.1,
        "sim_duration_s": duration,
        "submitted": result.summary.submitted,
        "sim_s_per_wall_s": duration / wall,
    }
    if quick:
        meta["coroutine_ref"] = "skipped (quick mode)"
    else:
        ref = _coroutine_reference()
        meta.update(ref)
        meta["speedup_vs_coroutine"] = (
            (duration / wall) / ref["ref_sim_s_per_wall_s"]
        )
    return BenchResult(
        name="driver_tx_100k",
        ops=confirmed,
        unit="tx",
        wall_time_s=wall,
        ops_per_s=confirmed / wall,
        meta=meta,
    )


def bench_arrival_gen(quick: bool = False) -> BenchResult:
    """Arrival-process generator throughput in (gap, sender) draws/s.

    The open-loop driver's per-transaction fixed cost: one exponential
    gap plus one Zipf sender draw (bisect over the cumulative weights
    of a 100k-account population). This is the rate ceiling arrivals
    can be *generated* at, independent of what the cluster does with
    them.
    """
    import random

    from .workload import ArrivalGenerator, ArrivalSpec

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


def bench_parallel_execute(quick: bool = False) -> BenchResult:
    """Capture-and-schedule execution throughput in transactions/second.

    The ``exec_workers > 1`` hot path end to end: every transaction of
    a low-contention KVStore block runs against a recording
    :class:`~repro.core.txsched.TxView`, merges in block order, and the
    captured access sets feed ``dependency_levels`` +
    ``level_makespan``. ops/s is the wall-clock rate of that full
    capture pipeline. ``meta.speedup_w4`` is the *simulated* win — the
    serial duration sum over the 4-worker makespan — which the CI gate
    requires to exceed 1.3x; ``capture_overhead`` is the wall-clock
    cost of capturing relative to plain serial execution (the price of
    the recording overlay). Equal roots between the serial and the
    captured pass are asserted every block.
    """
    from ..contracts import TxContext, create_contract
    from ..platforms.base import _NamespacedState
    from ..platforms.ethereum import EthereumState
    from .txsched import TxView, dependency_levels, level_makespan

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


def bench_chain_sync(quick: bool = False) -> BenchResult:
    """Cold crash-recovery catch-up throughput in blocks replayed/s.

    Grows a Hyperledger chain with a node down from the first second,
    then restarts that node cold: it re-seeds genesis, block-syncs the
    entire chain from live peers in ``SYNC_BATCH`` batches, and replays
    every block through the normal execution path (riding the cluster's
    ExecutionCache). ops/s is chain blocks installed-and-executed per
    wall second over the whole recovery — the figure that bounds how
    fast a restarted replica rejoins, and the perf guard for the
    recovery subsystem.
    """
    from ..platforms import build_cluster
    from ..workloads import make_workload
    from .driver import Driver, DriverConfig
    from .faults import CrashFault, FaultSchedule

    duration = 12.0 if quick else 30.0
    cluster = build_cluster("hyperledger", 4, seed=7)
    driver = Driver(
        cluster,
        make_workload("ycsb"),
        DriverConfig(n_clients=2, request_rate_tx_s=80.0, duration_s=duration),
    )
    driver.prepare()
    # Down from t=1: the victim misses (and must later sync) the chain.
    FaultSchedule(
        crashes=[CrashFault(at_time=1.0, count=1, include_leader=False)]
    ).arm(cluster)
    driver.run()
    victim = cluster.nodes[-1]
    witness = cluster.nodes[1]
    deadline = cluster.scheduler.now + 300.0
    start = time.perf_counter()
    victim.recover("cold")
    while victim._recovering and cluster.scheduler.now < deadline:
        cluster.run_until(cluster.scheduler.now + 1.0)
    wall = time.perf_counter() - start
    if victim._recovering:
        raise RuntimeError("cold recovery did not complete")
    blocks = victim.executed_height
    common = min(blocks, witness.executed_height)
    if victim._height_roots[common] != witness._height_roots[common]:
        raise RuntimeError("recovered state root diverged from witness")
    sync_bytes = victim.sync_bytes_received
    recovery_s = victim.recovery_times[-1]
    cluster.close()
    return BenchResult(
        name="chain_sync",
        ops=blocks,
        unit="blocks",
        wall_time_s=wall,
        ops_per_s=blocks / wall,
        meta={
            "platform": "hyperledger",
            "mode": "cold",
            "sim_duration_s": duration,
            "sync_bytes": sync_bytes,
            "sim_recovery_s": recovery_s,
        },
    )


BENCHMARKS: dict[str, Callable[[bool], BenchResult]] = {
    "evm_cpuheavy": bench_evm,
    "trie_puts": bench_trie,
    "block_commit": bench_block_commit,
    "replica_execute": bench_replica_execute,
    "parallel_execute": bench_parallel_execute,
    "scheduler_events": bench_scheduler,
    "driver_tx": bench_driver,
    "chain_sync": bench_chain_sync,
    "driver_tx_100k": bench_driver_100k,
    "arrival_gen": bench_arrival_gen,
    "trace_overhead": bench_trace_overhead,
}


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------
def run_perf(
    names: list[str] | None = None,
    quick: bool = False,
    repeats: int = 3,
    progress: Callable[[str, int, int], None] | None = None,
) -> list[BenchResult]:
    """Run the selected benchmarks; best-of-``repeats`` per benchmark."""
    selected = list(BENCHMARKS) if not names else names
    unknown = [n for n in selected if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"available: {', '.join(BENCHMARKS)}"
        )
    results: list[BenchResult] = []
    for name in selected:
        best: BenchResult | None = None
        for attempt in range(max(1, repeats)):
            if progress is not None:
                progress(name, attempt + 1, max(1, repeats))
            result = BENCHMARKS[name](quick)
            if best is None or result.ops_per_s > best.ops_per_s:
                best = result
        assert best is not None
        results.append(best)
    return results


def git_rev() -> str:
    """Short git revision ('-dirty' suffixed when the tree has edits)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode != 0:
            return "unknown"
        rev = out.stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if status.returncode == 0 and status.stdout.strip():
            rev += "-dirty"
        return rev
    except OSError:
        return "unknown"


def trajectory_dict(
    results: list[BenchResult],
    quick: bool = False,
    baseline: dict | None = None,
) -> dict:
    """Build the machine-readable trajectory payload."""
    payload = {
        "schema": SCHEMA,
        "git_rev": git_rev(),
        "python": _platform.python_version(),
        "quick": quick,
        "results": [asdict(r) for r in results],
    }
    if baseline is not None:
        payload["baseline"] = baseline
    return payload


def write_trajectory(
    path: str | Path,
    results: list[BenchResult],
    quick: bool = False,
    baseline: dict | None = None,
    payload: dict | None = None,
) -> Path:
    """Write the trajectory JSON; returns the path written.

    Pass ``payload`` when the caller already built it with
    :func:`trajectory_dict` — avoids re-running the git subprocesses
    and guarantees the written file matches what was shown.
    """
    if payload is None:
        payload = trajectory_dict(results, quick=quick, baseline=baseline)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_trajectory(path: str | Path) -> dict:
    """Read and shape-check a previously written trajectory file.

    Raises :class:`ValueError` when the JSON parses but is not a perf
    trajectory (wrong top-level type, or ``results`` not a list of
    named entries) — pointing a gate at the wrong file must fail with
    a message, not an ``AttributeError`` deep in the comparison.
    """
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(
            f"{path} is not a perf trajectory: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    results = data.get("results", [])
    if not isinstance(results, list) or not all(
        isinstance(entry, dict) and "name" in entry for entry in results
    ):
        raise ValueError(
            f"{path} is not a perf trajectory: 'results' must be a list "
            "of objects with a 'name' field"
        )
    return data


def baseline_names(baseline: dict) -> set[str]:
    """Benchmark names a trajectory has measurements for."""
    return {entry["name"] for entry in baseline.get("results", [])}


def compare(
    current: list[BenchResult], baseline: dict
) -> list[tuple[str, float, float, float]]:
    """(name, baseline ops/s, current ops/s, speedup) for shared benchmarks."""
    base_by_name = {r["name"]: r for r in baseline.get("results", [])}
    rows = []
    for result in current:
        base = base_by_name.get(result.name)
        if base is None or not base.get("ops_per_s"):
            continue
        rows.append(
            (
                result.name,
                base["ops_per_s"],
                result.ops_per_s,
                result.ops_per_s / base["ops_per_s"],
            )
        )
    return rows


def parse_gate(raw: str) -> tuple[str, float]:
    """Parse one ``NAME=RATIO`` regression gate (e.g. ``driver_tx=0.5``)."""
    name, sep, ratio_text = raw.partition("=")
    if not sep:
        raise ValueError(
            f"bad gate {raw!r}; expected NAME=RATIO, e.g. driver_tx=0.5"
        )
    if name not in BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {name!r} in gate; available: "
            f"{', '.join(BENCHMARKS)}"
        )
    try:
        ratio = float(ratio_text)
    except ValueError:
        raise ValueError(f"bad ratio {ratio_text!r} in gate {raw!r}") from None
    if ratio <= 0:
        raise ValueError(f"gate ratio must be positive, got {ratio}")
    return name, ratio


def check_gates(
    current: list[BenchResult],
    baseline: dict,
    gates: dict[str, float],
) -> list[str]:
    """Regression check: current/baseline speedup per gated benchmark.

    Returns one failure message per gated benchmark whose speedup fell
    below its ratio (empty list = all gates pass). A gated benchmark
    missing from either side is a failure too — a gate that silently
    stops measuring is worse than a slow result.
    """
    rows = {name: (base, cur, speedup) for name, base, cur, speedup in
            compare(current, baseline)}
    failures = []
    for name, floor in sorted(gates.items()):
        row = rows.get(name)
        if row is None:
            failures.append(
                f"{name}: not present in both current results and baseline"
            )
            continue
        base, cur, speedup = row
        if speedup < floor:
            failures.append(
                f"{name}: {cur:,.0f} ops/s is {speedup:.2f}x baseline "
                f"({base:,.0f} ops/s); floor is {floor:.2f}x"
            )
    return failures
