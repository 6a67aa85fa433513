#!/usr/bin/env python3
"""Security: partition the network and count forked blocks (Figure 10).

The attack splits an 8-node network in half for 75 simulated seconds
(half the paper's window, to keep the example quick; the Figure 10
benchmark runs the full 150 s schedule).
PoW (Ethereum) and PoA (Parity) keep extending both halves — every
block on the losing branch is a double-spending window. PBFT
(Hyperledger) cannot fork: the partition simply halts it until heal.

Run:  python examples/partition_attack.py
"""

from repro.core import Driver, DriverConfig, format_table, run_partition_attack
from repro.platforms import build_cluster
from repro.workloads import DoNothingWorkload


def attack(platform: str) -> list:
    cluster = build_cluster(platform, 8, seed=31)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(n_clients=8, request_rate_tx_s=20, duration_s=200),
    )
    driver.prepare()
    driver.start(200.0)
    report = run_partition_attack(
        cluster,
        attack_start=50.0,
        attack_duration=75.0,
        total_duration=200.0,
        sample_interval=10.0,
    )
    cluster.close()
    return [
        platform,
        report.samples[-1].total_blocks,
        report.samples[-1].main_branch_blocks,
        report.final_fork_blocks(),
        f"{report.fork_ratio():.3f}",
    ]


def main() -> None:
    rows = [attack(p) for p in ("ethereum", "parity", "hyperledger")]
    print(
        format_table(
            ["platform", "total blocks", "main branch", "forked", "ratio"],
            rows,
            title="Partition attack, 50s..125s of a 200s run (paper Fig. 10)",
        )
    )
    print("\nratio = main/total; 1.0 means no double-spending window.")


if __name__ == "__main__":
    main()
