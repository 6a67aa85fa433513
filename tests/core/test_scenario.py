"""Scenario-engine tests: grid expansion, suite execution, merging."""

import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core import (
    ExperimentSpec,
    ScenarioSpec,
    ScenarioSuite,
    SuiteResult,
    build_fault_schedule,
)
from repro.core.faults import FaultSchedule
from repro.errors import BenchmarkError


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def test_expand_takes_cartesian_product():
    spec = ScenarioSpec(
        name="grid",
        platforms=["hyperledger", "parity"],
        workloads=["ycsb", "donothing"],
        servers=[4, 8],
        clients=[2],
        rates=[10, 20, 30],
        durations=[5],
        seeds=[1, 2],
    )
    specs = spec.expand()
    assert len(specs) == 2 * 2 * 2 * 3 * 2
    assert all(isinstance(s, ExperimentSpec) for s in specs)
    assert all(s.scenario == "grid" for s in specs)
    # Every grid point is distinct.
    points = {
        (s.platform, s.workload, s.n_servers, s.request_rate_tx_s, s.seed)
        for s in specs
    }
    assert len(points) == len(specs)


def test_scalar_axes_are_one_point_axes():
    spec = ScenarioSpec(
        platforms="hyperledger", workloads="ycsb", servers=4,
        clients=2, rates=50.0, durations=5, seeds=3,
    )
    specs = spec.expand()
    assert len(specs) == 1
    only = specs[0]
    assert only.platform == "hyperledger"
    assert only.n_servers == 4
    assert only.n_clients == 2
    assert only.request_rate_tx_s == 50.0
    assert only.seed == 3


def test_clients_none_matches_servers_pointwise():
    spec = ScenarioSpec(servers=[4, 8, 16], clients=None, rates=10)
    by_servers = {s.n_servers: s.n_clients for s in spec.expand()}
    assert by_servers == {4: 4, 8: 8, 16: 16}


def test_seed_axis_produces_one_run_per_seed():
    spec = ScenarioSpec(servers=4, rates=10, seeds=[1, 2, 3])
    assert sorted(s.seed for s in spec.expand()) == [1, 2, 3]


def test_config_axis_carries_labels():
    """A platform-config sweep (Figure 15's block size) is an overrides
    axis: each point is labelled with its flattened knob."""
    spec = ScenarioSpec(
        platforms="hyperledger", servers=4, rates=10,
        overrides=[{"pbft": {"batch_size": batch}} for batch in (250, 500)],
    )
    labels = [s.label for s in spec.expand()]
    assert labels == ["pbft.batch_size=250", "pbft.batch_size=500"]


def test_overrides_axis_expands_with_labels():
    spec = ScenarioSpec(
        platforms="hyperledger", servers=4, rates=10,
        overrides=[
            {"pbft": {"batch_size": 100}},
            {"pbft": {"batch_size": 500}, "inbox_capacity": 1300},
        ],
    )
    specs = spec.expand()
    assert len(specs) == 2
    assert specs[0].config_overrides == {"pbft": {"batch_size": 100}}
    assert specs[0].label == "pbft.batch_size=100"
    # Multi-knob labels flatten in sorted key order.
    assert specs[1].label == "inbox_capacity=1300,pbft.batch_size=500"


def test_single_overrides_dict_applies_without_label():
    spec = ScenarioSpec(
        platforms="hyperledger", servers=4, rates=[10, 20],
        overrides={"pbft": {"batch_size": 250}},
    )
    specs = spec.expand()
    assert len(specs) == 2
    assert all(s.config_overrides == {"pbft": {"batch_size": 250}} for s in specs)
    # A campaign-wide dict is not an axis: no label noise on every row.
    assert all(s.label == "" for s in specs)


def test_overrides_accepted_from_json():
    spec = ScenarioSpec.from_dict(
        {
            "name": "batch-sweep",
            "platforms": "hyperledger",
            "servers": 4,
            "rates": 10,
            "overrides": [
                {"pbft": {"batch_size": 100}},
                {"pbft": {"batch_size": 1000}},
            ],
        }
    )
    assert len(spec.expand()) == 2


def test_overrides_axis_rejects_bad_points():
    with pytest.raises(BenchmarkError, match="axis 'overrides' is empty"):
        ScenarioSpec(overrides=[]).expand()
    with pytest.raises(BenchmarkError, match="must be an object"):
        ScenarioSpec(overrides=["batch_size=100"]).expand()
    # Each point is resolved against every platform of the grid at
    # expand time, so a bad knob fails before any run, by its path.
    for overrides, error in (
        ({"pbft": {"batch_sise": 5}},
         r"overrides\.pbft\.batch_sise: unknown config field 'batch_sise'"),
        ({"pbft": {"batch_size": "500"}},
         r"overrides\.pbft\.batch_size: expected int, got '500'"),
        ({"pbft": 7}, r"overrides\.pbft: expected PBFTConfig, got 7"),
    ):
        with pytest.raises(BenchmarkError, match=error):
            ScenarioSpec(platforms="hyperledger", overrides=overrides).expand()
    # Valid on one platform of the grid is not enough.
    with pytest.raises(BenchmarkError, match="for EthereumConfig"):
        ScenarioSpec(
            platforms=["hyperledger", "ethereum"],
            overrides={"pbft": {"batch_size": 250}},
        ).expand()
    # None is a value only where the knob declares it (unbounded inbox).
    ScenarioSpec(platforms="hyperledger", overrides={"inbox_capacity": None}).expand()


def test_overrides_label_combines_with_faults_axis_label():
    spec = ScenarioSpec(
        platforms="hyperledger", servers=4, rates=10,
        overrides=[{"inbox_capacity": 650}, {"inbox_capacity": 1300}],
        faults=[{}, {"crashes": [{"at_time": 5.0, "count": 1}]}],
    )
    labels = [s.label for s in spec.expand()]
    assert labels == [
        "inbox_capacity=650,no-faults",
        "inbox_capacity=650,crash=1",
        "inbox_capacity=1300,no-faults",
        "inbox_capacity=1300,crash=1",
    ]


def test_fault_dict_expands_to_fresh_schedule_per_point():
    spec = ScenarioSpec(
        servers=4, rates=10, seeds=[1, 2],
        faults={"crashes": [{"at_time": 5.0, "count": 1}]},
    )
    specs = spec.expand()
    assert all(isinstance(s.faults, FaultSchedule) for s in specs)
    assert specs[0].faults is not specs[1].faults
    assert specs[0].faults.crashes[0].at_time == 5.0


def test_driver_knob_axes_expand_and_flow_into_specs():
    spec = ScenarioSpec(
        platforms="hyperledger", servers=4, rates=10,
        poll_intervals=[0.25, 0.5],
        threads_per_client=[8, 32],
        retry_intervals=0.1,
    )
    specs = spec.expand()
    assert len(specs) == 4
    points = {(s.poll_interval_s, s.threads_per_client) for s in specs}
    assert points == {(0.25, 8), (0.25, 32), (0.5, 8), (0.5, 32)}
    assert all(s.retry_interval_s == 0.1 for s in specs)


def test_driver_knob_axes_accepted_from_json():
    spec = ScenarioSpec.from_dict(
        {
            "name": "poll-sweep",
            "platforms": "hyperledger",
            "servers": 4,
            "rates": 10,
            "poll_intervals": [0.1, 1.0],
            "threads_per_client": 16,
            "retry_intervals": [0.05, 0.25],
        }
    )
    specs = spec.expand()
    assert len(specs) == 4
    assert all(s.threads_per_client == 16 for s in specs)


def test_client_mode_key_is_refused():
    """The knob is gone; a scenario file still carrying it fails like
    any other unknown key instead of being silently ignored."""
    with pytest.raises(BenchmarkError, match=r"unknown scenario keys \['client_mode'"):
        ScenarioSpec.from_dict({"platforms": "hyperledger", "client_mode": "batch"})


def test_unknown_platform_rejected_at_expand():
    with pytest.raises(BenchmarkError, match="unknown platform 'nosuchchain'"):
        ScenarioSpec(platforms="nosuchchain").expand()


def test_unknown_workload_rejected_at_expand():
    with pytest.raises(BenchmarkError, match="unknown workload 'nosuchwork'"):
        ScenarioSpec(workloads="nosuchwork").expand()


def test_empty_axis_rejected():
    with pytest.raises(BenchmarkError, match="axis 'rates' is empty"):
        ScenarioSpec(rates=[]).expand()


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("rates", "fast", "scenario axis 'rates': expected float, got 'fast'"),
        ("seeds", 1.5, "scenario axis 'seeds': expected int, got 1.5"),
        ("servers", [4, 2.5], "scenario axis 'servers': expected int, got 2.5"),
        ("durations", True, "scenario axis 'durations': expected float, got True"),
        ("platforms", 7, "scenario axis 'platforms': expected str, got 7"),
    ],
)
def test_mistyped_scalar_axes_fail_at_expand(key, value, error):
    """Neither a raw ValueError from a coercion nor a silent int()
    truncation: the axis is named."""
    with pytest.raises(BenchmarkError, match=error):
        ScenarioSpec.from_dict({key: value}).expand()


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(BenchmarkError, match="unknown scenario keys"):
        ScenarioSpec.from_dict({"platfroms": ["hyperledger"]})


def test_build_fault_schedule_rejects_unknown_kinds():
    with pytest.raises(BenchmarkError, match="unknown fault kinds"):
        build_fault_schedule({"meteors": []})
    with pytest.raises(BenchmarkError, match=r"faults\.crashes\[0\]: bad crashes entry"):
        build_fault_schedule({"crashes": [{"at": 1}]})


@pytest.mark.parametrize(
    "faults, error",
    [
        ({"crashes": [{"at_time": "0.5", "count": 1}]},
         r"faults\.crashes\[0\]\.at_time: expected float, got '0\.5'"),
        ({"crashes": [{"at_time": 1.0, "count": 1.5}]},
         r"faults\.crashes\[0\]\.count: expected int \| None, got 1\.5"),
        ({"crashes": [{"at_time": 1.0, "nodes": "server-0"}]},
         r"faults\.crashes\[0\]\.nodes: expected list\[str\] \| None"),
        ({"byzantines": [{"at_time": 1, "until_time": 2}, {"at_time": 1, "until_time": "2"}]},
         r"faults\.byzantines\[1\]\.until_time: expected float"),
        ({"delays": {"at_time": 1}}, r"faults\.delays: expected list"),
        ({"partitions": [3]}, r"faults\.partitions\[0\]: expected dict, got 3"),
    ],
)
def test_build_fault_schedule_type_checks_entries(faults, error):
    """A mistyped entry fails with its path, not later in the scheduler
    (``'<' not supported between 'str' and 'float'``)."""
    with pytest.raises(BenchmarkError, match=error):
        build_fault_schedule(faults)
    with pytest.raises(BenchmarkError, match=error):
        ScenarioSpec(faults=[{}, faults]).expand()


def test_build_fault_schedule_accepts_ints_and_nulls():
    schedule = build_fault_schedule(
        {"crashes": [{"at_time": 5, "count": None, "nodes": ["server-1"],
                      "recover_at": 9, "recovery_mode": "cold"}]}
    )
    assert schedule.crashes[0].nodes == ["server-1"]
    assert schedule.crashes[0].recover_at == 9


def test_readme_scenario_key_table_lists_every_key():
    """The README's scenario-key table documents exactly the JSON keys
    ``ScenarioSpec.from_dict`` accepts (the ScenarioSpec fields)."""
    readme = (Path(__file__).resolve().parents[2] / "README.md").read_text()
    section = readme.split("\n## Scenario suites\n", 1)[1].split("\n### ", 1)[0]
    documented = set(re.findall(r"^\| `(\w+)` \|", section, re.MULTILINE))
    assert documented == {f.name for f in fields(ScenarioSpec)}


# ----------------------------------------------------------------------
# Suite loading
# ----------------------------------------------------------------------
def test_suite_from_file_single_scenario_object(tmp_path):
    path = tmp_path / "solo.json"
    path.write_text(json.dumps({"name": "solo", "servers": 4, "rates": 10}))
    suite = ScenarioSuite.from_file(path)
    assert suite.name == "solo"
    assert len(suite.scenarios) == 1
    assert len(suite.expand()) == 1


def test_suite_from_file_defaults_name_to_stem(tmp_path):
    path = tmp_path / "mysweep.json"
    path.write_text(json.dumps({"scenarios": [{"servers": 4, "rates": 10}]}))
    assert ScenarioSuite.from_file(path).name == "mysweep"
    # A bare scenario object without a name also falls back to the stem.
    bare = tmp_path / "baresweep.json"
    bare.write_text(json.dumps({"servers": 4, "rates": 10}))
    assert ScenarioSuite.from_file(bare).name == "baresweep"


def test_suite_from_file_missing_and_invalid(tmp_path):
    with pytest.raises(BenchmarkError, match="not found"):
        ScenarioSuite.from_file(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(BenchmarkError, match="invalid JSON"):
        ScenarioSuite.from_file(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(BenchmarkError, match="expected a JSON object"):
        ScenarioSuite.from_file(arr)


def test_suite_from_dict_rejects_empty_and_extra_keys():
    with pytest.raises(BenchmarkError, match="no scenarios"):
        ScenarioSuite.from_dict({"scenarios": []})
    with pytest.raises(BenchmarkError, match="unknown suite keys"):
        ScenarioSuite.from_dict({"scenarios": [{}], "bogus": 1})


# ----------------------------------------------------------------------
# End-to-end suite runs (small grids to keep CI fast)
# ----------------------------------------------------------------------
def _small_suite() -> ScenarioSuite:
    return ScenarioSuite(
        name="e2e",
        scenarios=[
            ScenarioSpec(
                name="two-platforms",
                platforms=["hyperledger", "erisdb"],
                workloads="ycsb",
                servers=4,
                clients=2,
                rates=[20, 40],
                durations=5,
                seeds=1,
            )
        ],
    )


def test_suite_run_end_to_end_two_platforms():
    result = _small_suite().run()
    assert isinstance(result, SuiteResult)
    assert len(result.results) == 4
    assert {r.spec.platform for r in result.results} == {"hyperledger", "erisdb"}
    assert all(r.summary.confirmed > 0 for r in result.results)
    # lookup()/one() resolve grid points by axis value.
    hlf40 = result.one(platform="hyperledger", rate=40.0)
    assert hlf40.spec.request_rate_tx_s == 40.0
    assert len(result.lookup(platform="erisdb")) == 2
    assert result.peak(platform="hyperledger").throughput >= hlf40.throughput
    with pytest.raises(BenchmarkError, match="expected exactly one"):
        result.one(platform="hyperledger")
    with pytest.raises(BenchmarkError, match="unknown lookup axis"):
        result.lookup(warp_factor=9)
    with pytest.raises(BenchmarkError, match="no results match"):
        result.peak(platform="parity")


def test_suite_run_multiprocessing_matches_grid_order():
    suite = ScenarioSuite(
        name="mp",
        scenarios=[
            ScenarioSpec(
                platforms="hyperledger", workloads="donothing",
                servers=4, clients=2, rates=[20, 40], durations=3, seeds=1,
            )
        ],
    )
    # plugin_modules reach every worker's initializer (spawn-safety for
    # third-party registrations; json is a stand-in importable module).
    result = suite.run(processes=2, plugin_modules=["json"])
    assert [r.spec.request_rate_tx_s for r in result.results] == [20.0, 40.0]
    assert all(r.summary.confirmed > 0 for r in result.results)


def test_suite_result_format_export_and_json(tmp_path):
    result = _small_suite().run()
    table = result.format()
    assert "hyperledger" in table and "erisdb" in table
    assert "suite e2e: 4 runs" in table

    payload = result.to_json()
    assert payload["suite"] == "e2e"
    assert payload["runs"] == 4
    assert all(run["throughput_tx_s"] > 0 for run in payload["results"])

    paths = result.export(tmp_path)
    assert {p.name for p in paths} == {"grid.csv", "summary.csv"}
    grid_lines = (tmp_path / "grid.csv").read_text().splitlines()
    assert grid_lines[0].startswith("scenario,")
    assert len(grid_lines) == 5
    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(summary_lines) == 5


def test_progress_callback_fires_per_run():
    seen = []
    suite = ScenarioSuite(
        name="progress",
        scenarios=[
            ScenarioSpec(
                platforms="hyperledger", workloads="donothing",
                servers=4, clients=2, rates=[20, 40], durations=3, seeds=1,
            )
        ],
    )
    suite.run(progress=lambda i, n, spec: seen.append((i, n, spec.platform)))
    assert seen == [(0, 2, "hyperledger"), (1, 2, "hyperledger")]


def test_arrival_axis_expands_with_labels():
    spec = ScenarioSpec(
        name="openloop",
        platforms="hyperledger",
        workloads="ycsb",
        servers=4,
        rates=1,
        durations=5,
        arrival=[
            {"process": "poisson", "rate": 500.0},
            {"process": "poisson", "rate": 1000.0, "zipf_s": 1.1},
        ],
    )
    specs = spec.expand()
    assert len(specs) == 2
    assert specs[0].arrival == {"process": "poisson", "rate": 500.0}
    assert specs[1].arrival["rate"] == 1000.0
    # Axis points of a multi-point arrival axis are labelled apart.
    assert specs[0].label != specs[1].label


def test_single_arrival_dict_applies_without_label():
    spec = ScenarioSpec(
        name="openloop",
        platforms="hyperledger",
        workloads="ycsb",
        servers=4,
        rates=1,
        durations=5,
        arrival={"process": "uniform", "rate": 200.0},
        stats_reservoir=5000,
    )
    specs = spec.expand()
    assert len(specs) == 1
    assert specs[0].arrival == {"process": "uniform", "rate": 200.0}
    assert specs[0].stats_reservoir == 5000
    assert specs[0].label == ""


def test_arrival_axis_rejects_bad_points_eagerly():
    spec = ScenarioSpec(
        name="openloop",
        platforms="hyperledger",
        workloads="ycsb",
        servers=4,
        rates=1,
        durations=5,
        arrival=[{"process": "poisson", "rate": -5.0}],
    )
    with pytest.raises(BenchmarkError):
        spec.expand()


def test_arrival_accepted_from_json():
    suite = ScenarioSuite.from_dict(
        {
            "name": "openloop",
            "platforms": ["hyperledger"],
            "workloads": ["ycsb"],
            "servers": [4],
            "rates": [1],
            "durations": [5],
            "arrival": {"process": "poisson", "rate": 400.0,
                        "accounts": 1000, "zipf_s": 1.1},
            "stats_reservoir": 2000,
        }
    )
    specs = suite.expand()
    assert len(specs) == 1
    assert specs[0].arrival["accounts"] == 1000
    assert specs[0].stats_reservoir == 2000
