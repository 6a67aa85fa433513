"""Ablation: PBFT message-channel capacity vs the >16-node collapse.

The paper diagnoses Hyperledger v0.6's failure beyond 16 nodes as
"consensus messages are rejected by other peers on account of the
message channel being full" (Section 4.1.2). This harness fixes the
Figure 7 collapse regime (20 servers, 20 clients, 80 tx/s per client)
and sweeps the bounded inbox capacity.

Measured shape: the channel capacity sets the *severity* of the
collapse. At this node count the per-transaction pipeline cost already
exceeds the offered load, so the request-timeout watchdog storms at
every capacity (thousands of view changes). With the channel at
Fabric's stock size (650) or unbounded, consensus traffic still gets
through and the network churns at its degraded capacity; shrinking the
channel makes drops eat into prepares, commits and view-change votes,
and committed throughput falls away — the paper's "rejected consensus
messages" made quantitative. (v0.6's *terminal* halt additionally
needed its broken view-change recovery; our PBFT ships the
state-transfer path, so even heavy drop rates degrade rather than
permanently diverge.)
"""

from repro.core import ExperimentSpec, format_table, run_experiment

from _common import BASE_DURATION, emit, once

#: Fabric v0.6 preset uses 650; sweep below and beyond it.
CAPACITIES = (100, 300, 650, None)

#: The Figure 7 regime where stock Hyperledger storms.
N_NODES = 20
RATE_PER_CLIENT = 80


def _run(capacity):
    return run_experiment(
        ExperimentSpec(
            platform="hyperledger",
            workload="ycsb",
            n_servers=N_NODES,
            n_clients=N_NODES,
            request_rate_tx_s=RATE_PER_CLIENT,
            duration_s=BASE_DURATION,
            config_overrides={"inbox_capacity": capacity},
            seed=5,
        )
    )


def test_abl_pbft_channel_capacity(benchmark):
    def run():
        rows = []
        results = {}
        for capacity in CAPACITIES:
            result = _run(capacity)
            results[capacity] = result
            rows.append(
                [
                    capacity if capacity is not None else "unbounded",
                    f"{result.throughput:.0f}",
                    f"{result.latency:.1f}" if result.throughput else "-",
                    result.view_changes,
                ]
            )
        return rows, results

    rows, results = once(benchmark, run)
    table = format_table(
        ["inbox capacity", "tx/s", "latency (s)", "view changes"],
        rows,
        title=(
            f"Ablation: PBFT channel capacity at {N_NODES} servers x "
            f"{N_NODES} clients (the Figure 7 collapse regime)"
        ),
    )
    emit("abl_pbft_channel", table)

    # The watchdog storm is capacity-independent: it is driven by the
    # aged backlog, present at every capacity in this regime.
    for result in results.values():
        assert result.view_changes > 500
    # Capacity sets the damage. A severely shrunk channel drops
    # consensus traffic wholesale and loses most of the throughput...
    assert results[100].throughput < 0.6 * results[650].throughput
    assert results[300].throughput < 0.95 * results[650].throughput
    # ...while the stock channel already passes what the saturated
    # pipeline can order: removing the bound entirely buys ~nothing.
    gap = abs(results[650].throughput - results[None].throughput)
    assert gap <= 0.10 * results[None].throughput
