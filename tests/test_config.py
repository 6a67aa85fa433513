"""Unit tests for platform configuration presets."""

import pytest

from repro.config import (
    erisdb_config,
    ethereum_config,
    hyperledger_config,
    parity_config,
)
from repro.registry import PLATFORMS


def test_presets_registry():
    assert [name for name, _ in PLATFORMS.items()] == [
        "erisdb",
        "ethereum",
        "hyperledger",
        "parity",
    ]
    for name, spec in PLATFORMS.items():
        assert spec.default_config().name == name


def test_ethereum_defaults_match_paper_setup():
    config = ethereum_config()
    assert config.pow.base_block_interval == 2.5  # ~2.5 s/block at 8 nodes
    assert config.pow.confirmation_depth == 5  # confirmationLength
    assert config.block_gas_limit is not None


def test_parity_defaults_match_paper_setup():
    config = parity_config()
    assert config.poa.step_duration == 1.0  # stepDuration = 1
    assert config.signing_cost_s > 0.01  # the signing bottleneck
    assert config.intake_rate_tx_s == 80.0  # "around 80 tx/s"
    assert config.block_gas_limit is None  # "not applicable to local txs"


def test_hyperledger_defaults_match_paper_setup():
    config = hyperledger_config()
    assert config.pbft.batch_size == 500  # "default batch size is 500"
    assert config.inbox_capacity is not None  # the bounded channel
    assert config.pbft.request_timeout > 0


def test_erisdb_defaults_compose_measured_platforms():
    """ErisDB = BFT-class consensus costs + EVM-class execution costs."""
    config = erisdb_config()
    eth = ethereum_config()
    assert config.execution.seconds_per_gas == eth.execution.seconds_per_gas
    assert config.tendermint.max_txs_per_block == 500
    assert config.block_gas_limit is None


def test_overrides_apply():
    config = ethereum_config(block_gas_limit=123)
    assert config.block_gas_limit == 123


def test_execution_cost_ordering():
    """Native chaincode < optimized EVM < geth EVM per unit of gas."""
    eth = ethereum_config().execution.seconds_per_gas
    par = parity_config().execution.seconds_per_gas
    hlf = hyperledger_config().execution.seconds_per_gas
    assert hlf <= par < eth


def test_configs_frozen():
    config = ethereum_config()
    with pytest.raises(Exception):
        config.name = "other"


def test_apply_overrides_nested_knobs():
    from repro.config import apply_overrides

    base = hyperledger_config()
    tuned = apply_overrides(
        base, {"pbft": {"batch_size": 250}, "inbox_capacity": 1300}
    )
    assert tuned.pbft.batch_size == 250
    assert tuned.inbox_capacity == 1300
    # Untouched knobs carry over; the base config is never mutated.
    assert tuned.pbft.batch_interval == base.pbft.batch_interval
    assert base.pbft.batch_size == 500


def test_apply_overrides_empty_is_identity():
    from repro.config import apply_overrides

    base = ethereum_config()
    assert apply_overrides(base, {}) is base


def test_apply_overrides_unknown_field_errors():
    from repro.config import apply_overrides
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError, match="unknown config field 'batchsize'"):
        apply_overrides(hyperledger_config(), {"batchsize": 250})
    with pytest.raises(BenchmarkError, match="unknown config field 'batchsize'"):
        apply_overrides(hyperledger_config(), {"pbft": {"batchsize": 250}})


def test_storage_backend_is_no_knob():
    """No node reads a storage backend field: a run given ``"lsm"`` would
    stay in memory, so the override must fail like any unknown knob."""
    from repro.errors import BenchmarkError

    for name, spec in PLATFORMS.items():
        with pytest.raises(
            BenchmarkError, match="unknown config field 'storage_backend'"
        ):
            spec.make_config(overrides={"storage_backend": "lsm"})


def test_apply_overrides_requires_dataclass():
    from repro.config import apply_overrides
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError, match="must be a dataclass"):
        apply_overrides({"not": "a dataclass"}, {"x": 1})


def test_exec_workers_below_one_is_rejected():
    """Zero workers used to run serial without a word."""
    from repro.config import apply_overrides
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError, match="exec_workers must be >= 1"):
        apply_overrides(hyperledger_config(), {"exec_workers": 0})
    for name, spec in PLATFORMS.items():
        with pytest.raises(BenchmarkError, match="exec_workers"):
            spec.make_config(overrides={"exec_workers": -2})
    assert apply_overrides(hyperledger_config(), {"exec_workers": 4}).exec_workers == 4


@pytest.mark.parametrize(
    "knob, value",
    [
        ("batch_size", 0),
        ("batch_interval", 0),
        ("view_timeout", -1),
        ("request_timeout", 0.0),
        ("view_timeout_backoff", -0.5),
    ],
)
def test_out_of_range_pbft_knobs_are_rejected_by_dotted_path(knob, value):
    """``view_timeout: -1`` used to die mid-run in the scheduler, and
    ``batch_size: 0`` to exit 0 after confirming nothing."""
    from repro.config import PBFTConfig, apply_overrides
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError, match=f"^{knob}: must be"):
        PBFTConfig(**{knob: value})
    with pytest.raises(BenchmarkError, match=f"^overrides.pbft.{knob}: must be"):
        apply_overrides(hyperledger_config(), {"pbft": {knob: value}})
    assert apply_overrides(hyperledger_config(), {"pbft": {"view_timeout_backoff": 0}})


#: (section, preset) of each consensus config a platform nests.
_SECTIONS = {
    "pow": ethereum_config, "poa": parity_config, "tendermint": erisdb_config,
}


@pytest.mark.parametrize(
    "section, knob, value",
    [
        ("pow", "base_block_interval", 0),
        ("pow", "reference_nodes", 0),
        ("pow", "difficulty_exponent", -0.5),
        ("pow", "retarget_step", -0.01),
        ("pow", "retarget_step", 1.0),
        ("pow", "confirmation_depth", -1),
        ("pow", "max_txs_per_block", 0),
        ("pow", "mining_cores", 0),
        ("poa", "step_duration", 0),
        ("poa", "confirmation_depth", -1),
        ("poa", "max_txs_per_block", 0),
        ("poa", "seal_cost_s", -0.001),
        ("tendermint", "max_txs_per_block", 0),
        ("tendermint", "tick_interval", 0),
        ("tendermint", "commit_interval", 0),
        ("tendermint", "propose_timeout", 0),
        ("tendermint", "prevote_timeout", -1),
        ("tendermint", "precommit_timeout", 0.0),
        ("tendermint", "round_timeout_delta", -0.5),
    ],
)
def test_out_of_range_consensus_knobs_are_rejected_by_dotted_path(
    section, knob, value
):
    """``pow.base_block_interval: 0`` used to die in a ZeroDivisionError,
    ``tendermint.tick_interval: 0`` to hang, and ``max_txs_per_block: 0``
    to exit 0 after confirming nothing."""
    from repro.config import apply_overrides
    from repro.errors import BenchmarkError

    preset = _SECTIONS[section]()
    config_type = type(getattr(preset, section))
    with pytest.raises(BenchmarkError, match=f"^{knob}: must be"):
        config_type(**{knob: value})
    with pytest.raises(
        BenchmarkError, match=f"^overrides.{section}.{knob}: must be"
    ):
        apply_overrides(preset, {section: {knob: value}})


def test_swept_consensus_knobs_still_construct():
    """The values Fig. 15 and the confirmation-depth ablation sweep, and
    each range's boundary, are accepted."""
    from repro.config import apply_overrides

    for step in (0.5, 1.0, 2.0):
        config = apply_overrides(parity_config(), {"poa": {"step_duration": step}})
        assert config.poa.step_duration == step
    for depth in (0, 1, 2, 5, 10):
        config = apply_overrides(
            ethereum_config(), {"pow": {"confirmation_depth": depth}}
        )
        assert config.pow.confirmation_depth == depth
    boundary = {
        "pow": {"difficulty_exponent": 0, "retarget_step": 0,
                "max_txs_per_block": 1},
        "poa": {"seal_cost_s": 0, "max_txs_per_block": 1},
        "tendermint": {"round_timeout_delta": 0, "max_txs_per_block": 1},
    }
    for section, knobs in boundary.items():
        apply_overrides(_SECTIONS[section](), {section: knobs})
