"""Figure 15: block-size sweep — generation rate vs block size.

Paper shape: doubling the block size roughly halves the block
generation rate on every platform, so overall throughput does not
improve. Knobs per platform (as in Appendix B): Hyperledger's
``batchSize``, Ethereum's ``gasLimit``, Parity's ``stepDuration``.

Each platform's knob sweep is a ScenarioSpec ``overrides`` axis: one
JSON knob dict per grid point, labelled from its flattened key path
(``pbft.batch_size=250``) and carried through to the merged result for
lookup.
"""

from repro.core import ScenarioSpec, ScenarioSuite, format_table

from _common import BASE_DURATION, emit, once


def _scenario(platform, overrides):
    return ScenarioSpec(
        name=platform,
        platforms=platform,
        workloads="ycsb",
        servers=8,
        clients=8,
        rates=256,
        durations=BASE_DURATION,
        seeds=15,
        overrides=overrides,
    )


# Sweep values small to large; the overrides axis is the single source
# of truth for them, and its labels double as the table's knob column.
SUITE = ScenarioSuite(
    name="fig15",
    scenarios=[
        _scenario(
            "hyperledger",
            [{"pbft": {"batch_size": batch}} for batch in (250, 500, 1000)],
        ),
        _scenario(
            "ethereum",
            [
                {"block_gas_limit": int(20_000_000 * factor)}
                for factor in (0.5, 1.0, 2.0)
            ],
        ),
        _scenario(
            "parity",
            [{"poa": {"step_duration": step}} for step in (0.5, 1.0, 2.0)],
        ),
    ],
)

#: Knob labels per platform, small to large (from the overrides axis).
LABELS = {s.name: [spec.label for spec in s.expand()] for s in SUITE.scenarios}


def test_fig15_block_size(benchmark):
    suite_result = once(benchmark, SUITE.run)

    rows = []
    rates = {}
    for platform, labels in LABELS.items():
        for label in labels:
            result = suite_result.one(platform=platform, label=label)
            block_rate = result.chain_height / BASE_DURATION
            rates[(platform, label)] = (block_rate, result.throughput)
            rows.append(
                [platform, label, f"{block_rate:.2f}",
                 f"{result.throughput:.0f}"]
            )
    emit(
        "fig15_blocksize",
        format_table(
            ["platform", "block size knob", "blocks/s", "tx/s"],
            rows,
            title="Figure 15: block generation rate vs block size",
        ),
    )
    for platform in ("hyperledger", "parity"):
        small, large = LABELS[platform][0], LABELS[platform][-1]
        small_rate, small_tps = rates[(platform, small)]
        large_rate, large_tps = rates[(platform, large)]
        # Bigger blocks => proportionally fewer blocks per second.
        assert large_rate < small_rate
        # ... and throughput does not improve meaningfully.
        assert large_tps < 1.5 * max(small_tps, 1e-9)
