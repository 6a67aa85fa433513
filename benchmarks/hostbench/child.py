"""One repetition of one workload, in a fresh interpreter.

Fresh on purpose: ``repro.chain.transaction._tx_counter`` is process-
global and feeds tx ids, which pick geth's gossip targets — a second
ethereum ``run_experiment`` in the same interpreter yields different
sim results (see README, "Known product findings").

The child builds the spec, runs it once through the public API and
prints one JSON line. It splits set-up from the run without touching
internals by wrapping ``Cluster.run_until`` (class attribute, restored
afterwards): ``run_experiment`` enters it exactly once, after import,
``build_cluster``, contract deploy, preload on every replica and
driver construction. The wrapper also hands over the ``Cluster``, whose
public counters feed the per-layer counts of a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def calibrate(loops: int = 600_000) -> float:
    """Seconds this host needs, right now, for a fixed pure-Python loop.

    The sandbox shares its host: identical runs took 3.4-6.4 s within
    three minutes, user CPU time tracking wall time, so the guest cannot
    see the theft. This loop (heap, dict, hashing - the simulator's own
    diet) is timed right before and right after the run; it tracked the
    dilation with r = 0.89, and ``sim_s_per_loop`` divides it out.

    It keeps a few KB live and allocates nothing the collector tracks,
    so it neither moves ``peak_rss_mb`` nor triggers a collection over
    the simulator's heap.
    """
    rng = random.Random(1)
    table: dict[int, int] = {}
    heap: list[int] = []
    acc = 0
    began = perf_counter()
    for i in range(loops):
        key = rng.getrandbits(12)
        table[key] = i
        heappush(heap, key ^ i)
        if len(heap) > 1024:
            acc += heappop(heap)
        if i & 7 == 0:
            acc += hashlib.sha256(key.to_bytes(2, "big")).digest()[0]
    return perf_counter() - began


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", metavar="FILE")
    parser.add_argument("--sim-seconds", type=float, help="smoke tests only")
    args = parser.parse_args(argv)

    started = perf_counter()
    sys.path.insert(0, str(SRC))
    from repro import ExperimentSpec, run_experiment
    from repro.core import build_fault_schedule
    from repro.core.suitestore import result_to_dict
    from repro.platforms.cluster import Cluster

    imported = perf_counter()

    from metrics import COMMIT_BUCKET_S, max_commit_gap_s
    from workloads import spec_kwargs

    kwargs = spec_kwargs(args.workload, args.seed, args.sim_seconds)
    if "faults" in kwargs:
        kwargs["faults"] = build_fault_schedule(kwargs["faults"])
    spec = ExperimentSpec(**kwargs)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    mark: dict = {}
    original_run_until = Cluster.run_until

    def run_until(self: Cluster, deadline: float) -> None:
        if not mark:
            mark["setup_end"] = perf_counter()
            mark["cluster"] = self
            mark["calib_s"] = calibrate()
            if tracer is not None:
                tracer.install()
                tracer.begin()
            mark["at"] = perf_counter()
        original_run_until(self, deadline)

    Cluster.run_until = run_until
    gc.collect()
    try:
        result = run_experiment(spec)
        finished = perf_counter()
        if tracer is not None and mark:
            tracer.end()
    finally:
        Cluster.run_until = original_run_until
        if tracer is not None:
            tracer.uninstall()
    if not mark:
        raise SystemExit("hostbench: Cluster.run_until was never entered; "
                         "cannot split set-up from the run")

    calib_s = (mark["calib_s"] + calibrate()) / 2
    summary = result.summary
    run_wall = finished - mark["at"]
    sim_s_per_wall_s = (spec.duration_s + spec.drain_s) / run_wall
    confirmed, submitted = summary.confirmed, summary.submitted
    commit_counts = [
        count for _, count in result.stats.commits_per_bucket(COMMIT_BUCKET_S)
    ]
    canonical = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    checks = []
    if summary.safety_violations != 0:
        checks.append(f"safety_violations = {summary.safety_violations}, expected 0")
    if confirmed > submitted - summary.rejected:
        checks.append(
            f"confirmed {confirmed} > submitted {submitted} "
            f"- rejected {summary.rejected}"
        )
    if confirmed < 1000:
        checks.append(f"confirmed {confirmed} < 1000")

    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": tracer is not None,
        "sim_digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "failed_checks": checks,
        "submitted": submitted,
        "rejected": summary.rejected,
        "confirmed": confirmed,
        "run_wall_s": run_wall,
        "import_s": imported - started,
        "calib_s": calib_s,
        "end_to_end": {
            "setup_s": mark["setup_end"] - started,
            "tx_per_wall_s": confirmed / run_wall,
            "sim_s_per_wall_s": sim_s_per_wall_s,
            "sim_s_per_loop": sim_s_per_wall_s * calib_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_tput_tx_s": summary.throughput_tx_s,
            "sim_lat_p50_s": summary.latency_p50_s,
            "sim_lat_p99_s": summary.latency_p99_s,
            "failed_share": 1 - confirmed / submitted if submitted else 1.0,
            "max_commit_gap_s": max_commit_gap_s(commit_counts),
        },
    }
    if tracer is not None:
        payload["per_layer"] = per_layer(tracer, mark["cluster"], result)
        payload["missing_entry_points"] = tracer.missing
        if args.spans_out:
            tracer.dump_spans(args.spans_out)
    print(json.dumps(payload))
    return 0


def per_layer(tracer, cluster, result) -> dict[str, float]:
    """Host self time per layer plus the exact work counts.

    Counts come from public counters on the captured ``Cluster`` and the
    result, or from the tracer's call counts at the same boundaries the
    spans are taken; all of them repeat exactly for a seed.
    """
    summary = result.summary
    confirmed = summary.confirmed
    out: dict[str, float] = {}
    for layer, row in tracer.aggregate().items():
        for key, value in row.items():
            out[f"{layer}.{key}"] = value

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    net = cluster.network.stats
    events = cluster.scheduler.events_processed
    out["sim.events.dispatched"] = events
    out["sim.events.per_tx"] = per(events, confirmed)
    out["sim.network.messages"] = net.messages_sent
    out["sim.network.bytes"] = sum(net.bytes_sent.values())
    out["sim.network.msgs_per_tx"] = per(net.messages_sent, confirmed)
    out["sim.network.dropped"] = (
        net.dropped_partition + net.dropped_crash
        + net.dropped_delay_jitter + net.dropped_byzantine
    )
    out["sim.node.timers_armed"] = tracer.calls(".SimNode.set_timer")

    out["consensus.msgs_handled"] = tracer.calls(".on_message")
    out["consensus.view_changes"] = result.view_changes
    out["consensus.blocks_decided"] = tracer.calls(".PlatformNode.deliver_block")

    longest = max((node.chain() for node in cluster.nodes), key=lambda c: c.height)
    main_txs = sum(len(block.transactions) for block in longest.main_branch())
    block_hashes = tracer.calls(".BlockHeader.block_hash")
    out["chain.blocks"] = result.total_blocks
    out["chain.fork_blocks"] = result.total_blocks - result.main_branch_blocks
    out["chain.tx_per_block"] = per(main_txs, result.main_branch_blocks)
    out["chain.block_hash_calls"] = block_hashes
    out["chain.block_hash_per_block"] = per(block_hashes, result.total_blocks)

    hashes = tracer.calls(".hashing.hash_items") + tracer.calls(".hashing.sha256")
    out["crypto.hashing.hash_calls"] = hashes
    out["crypto.hashing.per_tx"] = per(hashes, confirmed)

    # StateTrie wraps the PatriciaTrie that owns the counters; the
    # bucket-tree platforms have neither attribute and count 0.
    tries = [
        getattr(getattr(node.state, "trie", None), "trie", None)
        for node in cluster.nodes
    ]
    out["crypto.trie.node_writes"] = sum(t.node_writes for t in tries if t)
    out["crypto.trie.node_reads"] = sum(t.node_reads for t in tries if t)
    roots = tracer.calls(".BucketTree.root_hash")
    out["crypto.bucket_tree.root_calls"] = roots
    out["crypto.bucket_tree.roots_per_block"] = per(
        roots, tracer.calls(".JournaledState.commit_block")
    )

    cache = cluster.nodes[0].execution_cache
    hits, misses = (cache.hits, cache.misses) if cache else (0, 0)
    out["platforms.exec_cache_hits"] = hits
    out["platforms.exec_cache_misses"] = misses
    out["platforms.exec_cache_hit_ratio"] = per(hits, hits + misses)
    out["platforms.sync_blocks"] = summary.sync_blocks
    out["platforms.sync_bytes"] = summary.sync_bytes
    out["platforms.recovery_s"] = max(summary.recovery_time_s.values(), default=0.0)

    out["contracts.invocations"] = tracer.calls(".Contract.invoke")

    out["core.driver.submissions"] = summary.submitted
    out["core.driver.rejections"] = summary.rejected
    out["core.driver.attempts_per_tx"] = per(summary.submitted, confirmed)
    out["core.driver.polls"] = tracer.calls(".SimChainConnector.get_latest_block")

    out["workloads.tx_generated"] = tracer.calls(".next_transaction")
    out["core.stats.samples_kept"] = len(result.stats.latencies)

    stage_avgs = (
        summary.stage_breakdown.stage_avgs() if summary.stage_breakdown else {}
    )
    for stage in ("admission", "mempool_wait", "consensus", "execution",
                  "state_commit", "notification"):
        out[f"core.trace.stage.{stage}_s"] = stage_avgs.get(stage, 0.0)

    out["trace.spans"] = len(tracer.span_name)
    out["trace.missing_entry_points"] = len(tracer.missing)
    return out


if __name__ == "__main__":
    sys.exit(main())
