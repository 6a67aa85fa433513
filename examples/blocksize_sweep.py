#!/usr/bin/env python3
"""Block-size sweep: the Appendix B experiment (paper Figure 15).

Doubling the block size roughly halves the block generation rate, so
overall throughput does not improve — the paper's argument that block
size is not the lever that fixes blockchain throughput. Each platform
exposes the knob differently, exactly as the paper describes:
Hyperledger's ``batchSize``, Ethereum's ``gasLimit`` and Parity's
``stepDuration``.

Each platform's knob rides a ScenarioSpec ``overrides`` axis: one
JSON knob dict per grid point, which the scenario engine expands into
the grid and labels from its key path (``pbft.batch_size=250``),
carrying the label into the merged result.

Run:  python examples/blocksize_sweep.py
"""

from repro.core import ScenarioSpec, ScenarioSuite, format_table

DURATION = 30.0


def knob_scenario(platform, overrides):
    """One platform's block-size sweep as an overrides-axis scenario."""
    return ScenarioSpec(
        name=platform,
        platforms=platform,
        workloads="ycsb",
        servers=4,
        clients=4,
        rates=256,
        durations=DURATION,
        seeds=15,
        overrides=overrides,
    )


def main() -> None:
    suite = ScenarioSuite(
        name="blocksize-sweep",
        scenarios=[
            knob_scenario(
                "hyperledger",
                [{"pbft": {"batch_size": batch}} for batch in (250, 500, 1000)],
            ),
            knob_scenario(
                "ethereum",
                [
                    {"block_gas_limit": int(20_000_000 * factor)}
                    for factor in (0.5, 1.0, 2.0)
                ],
            ),
            knob_scenario(
                "parity",
                [{"poa": {"step_duration": step}} for step in (0.5, 1.0, 2.0)],
            ),
        ],
    )
    result = suite.run()
    rows = [
        [
            run.spec.platform,
            run.spec.label,
            f"{run.chain_height / DURATION:.2f}",
            f"{run.throughput:.0f}",
        ]
        for run in result.results
    ]
    print(
        format_table(
            ["platform", "block-size knob", "blocks/s", "tx/s"],
            rows,
            title="Block size vs generation rate (Figure 15 in miniature)",
        )
    )


if __name__ == "__main__":
    main()
