"""Figure 10: blockchain forks under a partition attack.

Paper setup: 8 servers, 8 clients; the network is split in half at
t=100 s for 150 s. Shape: Ethereum and Parity fork — a large fraction
of blocks produced during the attack land on abandoned branches (up to
~30%) and Delta = total - main stops growing after heal; Hyperledger
never forks but takes longer to recover after the partition heals.
"""

from repro.core import Driver, DriverConfig, format_table, run_partition_attack
from repro.platforms import build_cluster
from repro.workloads import DoNothingWorkload

from _common import PLATFORMS, SCALE, emit, once

ATTACK_START = 100.0 * SCALE
ATTACK_LEN = 150.0 * SCALE
TOTAL = 400.0 * SCALE


def _attack(platform):
    cluster = build_cluster(platform, 8, seed=10)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=8, request_rate_tx_s=20, duration_s=TOTAL),
    )
    driver.prepare()
    driver.start(TOTAL)
    report = run_partition_attack(
        cluster,
        attack_start=ATTACK_START,
        attack_duration=ATTACK_LEN,
        total_duration=TOTAL,
        sample_interval=10.0 * SCALE,
    )
    cluster.close()
    return report


def test_fig10_partition_attack(benchmark):
    def run():
        return {platform: _attack(platform) for platform in PLATFORMS}

    reports = once(benchmark, run)
    rows = []
    for platform, report in reports.items():
        last = report.samples[-1]
        rows.append(
            [
                platform,
                last.total_blocks,
                last.main_branch_blocks,
                report.final_fork_blocks(),
                f"{report.peak_fork_fraction():.2f}",
                f"{report.fork_ratio():.3f}",
            ]
        )
    emit(
        "fig10_forks",
        format_table(
            ["platform", "total", "main branch", "forked", "peak fork frac",
             "ratio"],
            rows,
            title=(
                f"Figure 10: partition {ATTACK_START:.0f}s.."
                f"{ATTACK_START + ATTACK_LEN:.0f}s of {TOTAL:.0f}s"
            ),
        ),
    )
    # PoW and PoA fork; the attack window exposes double spending.
    assert reports["ethereum"].final_fork_blocks() > 0
    assert reports["parity"].final_fork_blocks() > 0
    assert reports["ethereum"].peak_fork_fraction() > 0.05
    # PBFT provably never forks.
    assert reports["hyperledger"].final_fork_blocks() == 0
    assert reports["hyperledger"].fork_ratio() == 1.0
