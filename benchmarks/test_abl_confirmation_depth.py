"""Ablation: PoW confirmation depth — latency cost vs fork exposure.

Ethereum and Parity "consider a block as confirmed if it is at least
confirmationLength blocks from the current blockchain's tip" (Section
3.2); the paper fixes that length at 5 and never varies it. This
ablation sweeps the depth and measures both sides of the trade:

* **cost** — client-observed confirmation latency, which should grow
  roughly linearly with depth (each extra confirmation costs one block
  interval, ~2.5 s at this difficulty);
* **risk** — the double-spend window under the Figure 10 partition
  attack, measured as *stale executions*: blocks that reached the
  confirmation depth on some node (so a depth-d client acted on them)
  but were later replaced by the healing reorg. Deeper confirmation
  shields clients from shallow forks, so stale executions should fall
  as the depth grows.

PBFT-class systems sit at the degenerate point of this curve — depth
zero, exposure zero — which is why the paper's Figure 10 shows
Hyperledger forking never and Ethereum forking for the whole partition
window.
"""

from repro.core import ExperimentSpec, format_table, run_experiment
from repro.core.faults import FaultSchedule, PartitionFault

from _common import BASE_DURATION, emit, once

DEPTHS = (1, 2, 5, 10)

#: Attack window (seconds into the run) — Figure 10's shape scaled to
#: the bench duration.
ATTACK_START = 10.0
ATTACK_DURATION = 20.0 * (BASE_DURATION / 35.0)


def _run(depth):
    faults = FaultSchedule(
        partitions=[
            PartitionFault(
                at_time=ATTACK_START, until_time=ATTACK_START + ATTACK_DURATION
            )
        ]
    )
    return run_experiment(
        ExperimentSpec(
            platform="ethereum",
            workload="ycsb",
            n_servers=8,
            n_clients=8,
            request_rate_tx_s=64,
            duration_s=BASE_DURATION + 15.0,
            config_overrides={"pow": {"confirmation_depth": depth}},
            faults=faults,
            seed=5,
        )
    )


def test_abl_confirmation_depth(benchmark):
    def run():
        rows = []
        results = {}
        for depth in DEPTHS:
            result = _run(depth)
            results[depth] = result
            stale = result.stale_executions
            rows.append(
                [
                    depth,
                    f"{result.latency:.1f}",
                    result.total_blocks - result.main_branch_blocks,
                    stale,
                ]
            )
        return rows, results

    rows, results = once(benchmark, run)
    table = format_table(
        ["confirmation depth", "latency (s)", "fork blocks", "stale executions"],
        rows,
        title=(
            "Ablation: PoW confirmation depth under a partition attack "
            "(8 servers, Figure 10 setup)"
        ),
    )
    emit("abl_confirmation_depth", table)

    # Cost: deeper confirmation means slower confirmation.
    assert results[10].latency > results[1].latency
    # Risk: a depth-1 client acts on blocks a partition later unwinds;
    # depth 10 outlasts the fork the scaled attack can grow.
    assert results[1].stale_executions > 0
    assert results[10].stale_executions <= results[1].stale_executions
    # The fork itself (total minus main) exists at every depth — depth
    # changes who *acts* on forked blocks, not whether forks happen.
    assert all(
        r.total_blocks > r.main_branch_blocks for r in results.values()
    )
