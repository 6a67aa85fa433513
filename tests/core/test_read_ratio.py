"""The portable ``read_ratio`` knob: one dial over each workload's mix.

Pins the per-workload translation (YCSB proportions, Smallbank's
balance-query fraction), the refusal path for fixed-mix workloads, the
spec-level conflict check against explicit ``workload_params``, and the
scenario-axis expansion that sweeps the knob across a grid.
"""

import pytest

from repro.core import ExperimentSpec, ScenarioSpec, run_experiment
from repro.core.runner import _read_ratio_params
from repro.errors import BenchmarkError
from repro.workloads import make_workload
from repro.workloads.smallbank import _OPERATIONS, SmallbankWorkload
from repro.workloads.ycsb import YCSBWorkload


def test_ycsb_translation_sets_the_proportions():
    assert YCSBWorkload.read_ratio_params(0.75) == {
        "read_proportion": 0.75,
        "update_proportion": 0.25,
    }
    workload = make_workload("ycsb", **YCSBWorkload.read_ratio_params(0.75))
    assert workload.config.read_proportion == 0.75
    assert workload.config.update_proportion == 0.25


def test_smallbank_translation_scales_the_write_ops():
    workload = make_workload(
        "smallbank", **SmallbankWorkload.read_ratio_params(0.9)
    )
    ops = dict(workload._operations)
    assert ops["balance"] == pytest.approx(0.9)
    # The five write ops keep their relative shares of the remainder.
    assert sum(ops.values()) == pytest.approx(1.0)
    assert ops["send_payment"] == pytest.approx(0.1 * 0.25 / 0.85)


def test_smallbank_default_mix_is_untouched():
    workload = make_workload("smallbank")
    assert workload._operations is _OPERATIONS


def test_fixed_mix_workloads_refuse_the_knob():
    with pytest.raises(BenchmarkError, match="fixed operation mix"):
        _read_ratio_params("donothing", 0.5, {})


def test_out_of_range_ratio_is_rejected():
    with pytest.raises(BenchmarkError, match="read_ratio must be in"):
        _read_ratio_params("ycsb", 1.5, {})


def test_conflicting_workload_params_are_a_spec_error():
    with pytest.raises(BenchmarkError, match="conflicts with explicit"):
        _read_ratio_params("ycsb", 0.5, {"read_proportion": 0.3})


def test_run_experiment_applies_the_ratio():
    spec = ExperimentSpec(
        platform="hyperledger", workload="ycsb", n_servers=2, n_clients=2,
        request_rate_tx_s=20.0, duration_s=5.0, seed=3, read_ratio=0.9,
    )
    result = run_experiment(spec)
    assert result.summary.confirmed > 0
    # The knob reaches the workload: a different mix changes the
    # charged execution costs, so the stage breakdown moves with it.
    heavy = run_experiment(
        ExperimentSpec(
            platform="hyperledger", workload="ycsb", n_servers=2,
            n_clients=2, request_rate_tx_s=20.0, duration_s=5.0, seed=3,
            read_ratio=0.1,
        )
    )
    light_avgs = result.summary.stage_breakdown.stage_avgs()
    heavy_avgs = heavy.summary.stage_breakdown.stage_avgs()
    assert heavy_avgs["execution"] > light_avgs["execution"]


def test_scenario_axis_expands_and_labels():
    specs = ScenarioSpec(
        platforms="hyperledger", workloads="ycsb", servers=2, clients=2,
        rates=20, durations=5, seeds=3, read_ratios=[0.1, 0.9],
    ).expand()
    assert [spec.read_ratio for spec in specs] == [0.1, 0.9]
    assert [spec.label for spec in specs] == ["rr=0.1", "rr=0.9"]


def test_scenario_single_ratio_has_no_label():
    specs = ScenarioSpec(
        platforms="hyperledger", workloads="ycsb", servers=2, clients=2,
        rates=20, durations=5, seeds=3, read_ratios=0.5,
    ).expand()
    assert len(specs) == 1
    assert specs[0].read_ratio == 0.5
    assert specs[0].label == ""

