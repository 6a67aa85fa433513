"""CLI tests: drive ``blockbench`` in-process through ``main``."""

import importlib.util
import json

import pytest

from repro.cli import main
from repro.registry import PLATFORMS, WORKLOADS


def test_list_names_every_platform_and_workload(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in PLATFORMS.names() + WORKLOADS.names():
        assert name in out


def test_list_output_is_registry_driven(capsys):
    """A platform registered at runtime shows up in ``list``."""
    from repro.registry import register_platform

    @register_platform("listedchain")
    def build_listed(node_id, scheduler, network, rng, config, all_ids):
        raise NotImplementedError

    try:
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "listedchain" in out
        assert "consensus protocols:" in out
        assert "pbft" in out
    finally:
        PLATFORMS.unregister("listedchain")


def test_run_prints_summary_table(capsys):
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "ycsb",
            "--servers", "4",
            "--clients", "2",
            "--rate", "40",
            "--duration", "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hyperledger / ycsb" in out
    assert "throughput (tx/s)" in out
    assert "confirmed" in out


def test_run_json_output_is_parseable(capsys):
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "donothing",
            "--servers", "4",
            "--clients", "2",
            "--rate", "40",
            "--duration", "5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["platform"] == "hyperledger"
    assert payload["confirmed"] > 0
    assert payload["throughput_tx_s"] > 0
    assert payload["main_branch_blocks"] <= payload["total_blocks"]


def test_run_crash_flag_kills_quorum(capsys):
    """Crashing 2 of 4 PBFT nodes mid-run halts commits (quorum 3)."""
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "ycsb",
            "--servers", "4",
            "--clients", "2",
            "--rate", "40",
            "--duration", "10",
            "--crash", "2",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # The run still reports, and well under the full offered load landed.
    assert payload["confirmed"] < 10 * 2 * 40


def test_run_crash_recovery_flags_report_recovery(capsys):
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "ycsb",
            "--servers", "4",
            "--clients", "2",
            "--rate", "40",
            "--duration", "16",
            "--crash", "1",
            "--crash-at", "5",
            "--recover-at", "9",
            "--recovery-mode", "cold",
            "--failover",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["safety_violations"] == 0
    assert "server-0" in payload["recovery_time_s"]
    assert payload["recovery_time_s"]["server-0"] > 0
    assert payload["sync_bytes"] > 0


def test_run_recovery_table_has_recovery_rows(capsys):
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "donothing",
            "--servers", "4",
            "--clients", "2",
            "--rate", "20",
            "--duration", "14",
            "--crash", "1",
            "--crash-at", "4",
            "--recover-at", "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery server-0 (s)" in out
    assert "sync traffic" in out


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--duration", "0"], "duration_s"),
        (["--duration", "-1"], "duration_s"),
        (["--clients", "0"], "n_clients"),
        (["--exec-workers", "0"], "exec_workers"),
    ],
)
def test_run_rejects_out_of_range_knobs_before_running(flags, field, capsys):
    code = main(["run", "--servers", "4", "--rate", "10", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_run_recover_at_requires_crash(capsys):
    code = main(["run", "--recover-at", "5"])
    assert code == 2
    assert "--crash" in capsys.readouterr().err


def test_run_subscribe_on_polling_platform_fails_cleanly(capsys):
    code = main(
        [
            "run",
            "--platform", "ethereum",
            "--workload", "ycsb",
            "--servers", "4",
            "--clients", "2",
            "--rate", "10",
            "--duration", "3",
            "--subscribe",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "publish/subscribe" in err


def test_run_export_dir_writes_csv_series(tmp_path, capsys):
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "ycsb",
            "--servers", "4",
            "--clients", "2",
            "--rate", "40",
            "--duration", "5",
            "--export-dir", str(tmp_path / "out"),
            "--json",
        ]
    )
    assert code == 0
    names = {p.name for p in (tmp_path / "out").iterdir()}
    assert names == {
        "summary.csv", "queue.csv", "latency_cdf.csv", "commits.csv", "run.csv",
    }
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("platform,")
    assert len(summary) == 2


def test_attack_json_reports_fork_metrics(capsys):
    code = main(
        [
            "attack",
            "--platform", "ethereum",
            "--servers", "4",
            "--clients", "2",
            "--rate", "10",
            "--start", "10",
            "--length", "15",
            "--total", "40",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_blocks"] >= payload["main_branch_blocks"]
    assert 0.0 < payload["fork_ratio"] <= 1.0


def _write_suite_file(path, rates=(20, 40)):
    path.write_text(
        json.dumps(
            {
                "name": "cli-suite",
                "scenarios": [
                    {
                        "name": "sweep",
                        "platforms": ["hyperledger", "erisdb"],
                        "workloads": "ycsb",
                        "servers": 4,
                        "clients": 2,
                        "rates": list(rates),
                        "durations": 5,
                        "seeds": 1,
                    }
                ],
            }
        )
    )


def test_suite_runs_scenario_file_and_prints_grid(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_suite_file(scenario)
    assert main(["suite", str(scenario)]) == 0
    captured = capsys.readouterr()
    assert "suite cli-suite: 4 runs" in captured.out
    assert "hyperledger" in captured.out and "erisdb" in captured.out
    # Serial mode narrates progress on stderr.
    assert "[1/4]" in captured.err and "[4/4]" in captured.err


def test_suite_json_output_merges_all_runs(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_suite_file(scenario)
    assert main(["suite", str(scenario), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "cli-suite"
    assert payload["runs"] == 4
    platforms = {run["platform"] for run in payload["results"]}
    assert platforms == {"hyperledger", "erisdb"}
    assert all(run["confirmed"] > 0 for run in payload["results"])


def test_suite_export_dir_writes_merged_csv(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_suite_file(scenario, rates=(20,))
    out_dir = tmp_path / "out"
    assert main(["suite", str(scenario), "--export-dir", str(out_dir)]) == 0
    names = {p.name for p in out_dir.iterdir()}
    assert names == {"grid.csv", "summary.csv"}


def test_suite_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["suite", str(tmp_path / "nope.json")]) == 2
    assert "scenario file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, where",
    [
        ({"rates": "fast"}, "scenario axis 'rates'"),
        ({"seeds": 1.5}, "scenario axis 'seeds'"),
        ({"servers": 2.5}, "scenario axis 'servers'"),
        ({"overrides": {"pbft": {"batch_size": "500"}}},
         "overrides.pbft.batch_size"),
        ({"overrides": {"pbft": 7}}, "overrides.pbft"),
        ({"faults": {"crashes": [{"at_time": "0.5", "count": 1}]}},
         "faults.crashes[0].at_time"),
        ({"arrival": {"rate": "fast"}}, "arrival.rate"),
        ({"arrival": {"accounts": 1.5}}, "arrival.accounts"),
        ({"arrival": [{"zipf_s": 1.1}, {"zipf_s": "x"}]}, "arrival.zipf_s"),
        ({"overrides": {"pbft": {"view_timeout": -1}}},
         "overrides.pbft.view_timeout: must be > 0"),
        ({"overrides": {"pbft": {"batch_size": 0}}},
         "overrides.pbft.batch_size: must be >= 1"),
        ({"platforms": "ethereum",
          "overrides": {"pow": {"base_block_interval": 0}}},
         "overrides.pow.base_block_interval: must be > 0"),
        ({"platforms": "ethereum",
          "overrides": {"pow": {"max_txs_per_block": 0}}},
         "overrides.pow.max_txs_per_block: must be >= 1"),
        ({"platforms": "parity", "overrides": {"poa": {"step_duration": 0}}},
         "overrides.poa.step_duration: must be > 0"),
        ({"platforms": "parity",
          "overrides": {"poa": {"confirmation_depth": -1}}},
         "overrides.poa.confirmation_depth: must be >= 0"),
        ({"platforms": "erisdb",
          "overrides": {"tendermint": {"tick_interval": 0}}},
         "overrides.tendermint.tick_interval: must be > 0"),
        ({"platforms": "erisdb",
          "overrides": {"tendermint": {"max_txs_per_block": 0}}},
         "overrides.tendermint.max_txs_per_block: must be >= 1"),
    ],
)
def test_suite_mistyped_values_fail_cleanly(tmp_path, capsys, scenario, where):
    """A mistyped scenario value exits 2 with one ``error:`` line naming
    it, before anything runs — no traceback, no mid-run TypeError."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"platforms": "hyperledger", "workloads": "donothing", **scenario}
    ))
    assert main(["suite", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    assert where in lines[0]
    assert captured.out == ""


def _write_quick_suite_file(path, rates=(20, 40)):
    """A donothing-based grid: faster than _write_suite_file's ycsb."""
    path.write_text(
        json.dumps(
            {
                "name": "store-suite",
                "scenarios": [
                    {
                        "name": "sweep",
                        "platforms": "hyperledger",
                        "workloads": "donothing",
                        "servers": 2,
                        "clients": 2,
                        "rates": list(rates),
                        "durations": 3,
                        "seeds": 1,
                    }
                ],
            }
        )
    )


def test_suite_out_dir_then_resume_reruns_only_missing(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_quick_suite_file(scenario)
    out_dir = tmp_path / "store"
    assert main(["suite", str(scenario), "--out-dir", str(out_dir), "--json"]) == 0
    captured = capsys.readouterr()
    first = json.loads(captured.out)
    assert "executed 2, resumed 0 of 2 runs" in captured.err
    run_files = sorted((out_dir / "runs").glob("*.json"))
    assert len(run_files) == 2
    run_files[0].unlink()  # simulate a killed campaign
    assert main(
        ["suite", str(scenario), "--out-dir", str(out_dir), "--resume", "--json"]
    ) == 0
    captured = capsys.readouterr()
    assert "executed 1, resumed 1 of 2 runs" in captured.err
    # The merged payload is identical to the uninterrupted run's.
    assert json.loads(captured.out) == first


def test_suite_resume_without_out_dir_fails(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_quick_suite_file(scenario)
    assert main(["suite", str(scenario), "--resume"]) == 2
    assert "--resume requires --out-dir" in capsys.readouterr().err


def test_suite_compare_identical_stores_exits_zero(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_quick_suite_file(scenario)
    for name in ("a", "b"):
        assert main(
            ["suite", str(scenario), "--out-dir", str(tmp_path / name)]
        ) == 0
    capsys.readouterr()
    code = main(
        ["suite", "--compare", str(tmp_path / "a"), str(tmp_path / "b"),
         "--threshold", "0.01", "--json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["compared"] == 2
    assert payload["regressed"] == 0


def test_suite_compare_gates_on_regression(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_quick_suite_file(scenario)
    for name in ("a", "b"):
        assert main(
            ["suite", str(scenario), "--out-dir", str(tmp_path / name)]
        ) == 0
    victim = sorted((tmp_path / "b" / "runs").glob("*.json"))[0]
    data = json.loads(victim.read_text())
    data["summary"]["throughput_tx_s"] *= 0.5
    victim.write_text(json.dumps(data))
    capsys.readouterr()
    code = main(["suite", "--compare", str(tmp_path / "a"), str(tmp_path / "b")])
    assert code == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "suite compare FAILED" in captured.err


def test_suite_compare_missing_store_fails_cleanly(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_quick_suite_file(scenario)
    assert main(["suite", str(scenario), "--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    code = main(
        ["suite", "--compare", str(tmp_path / "a"), str(tmp_path / "nope")]
    )
    assert code == 2
    assert "not a suite result directory" in capsys.readouterr().err


def test_suite_compare_rejects_scenario_file_argument(tmp_path, capsys):
    assert main(
        ["suite", "extra.json", "--compare", str(tmp_path), str(tmp_path)]
    ) == 2
    assert "no scenario file" in capsys.readouterr().err


def test_suite_compare_rejects_run_mode_flags(tmp_path, capsys):
    code = main(
        ["suite", "--compare", str(tmp_path), str(tmp_path),
         "--export-dir", "out", "--resume"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--export-dir" in err and "--resume" in err
    assert "not with --compare" in err


def test_suite_threshold_outside_compare_rejected(tmp_path, capsys):
    scenario = tmp_path / "sweep.json"
    _write_quick_suite_file(scenario)
    assert main(["suite", str(scenario), "--threshold", "0.1"]) == 2
    assert "--threshold only applies to --compare" in capsys.readouterr().err


def test_run_accepts_driver_knobs(capsys):
    code = main(
        [
            "run",
            "--platform", "hyperledger",
            "--workload", "donothing",
            "--servers", "2",
            "--clients", "1",
            "--rate", "20",
            "--duration", "5",
            "--poll-interval", "0.25",
            "--threads", "8",
            "--retry-interval", "0.1",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["confirmed"] > 0


def test_package_ships_no_benchmark_harness():
    """The kernels and their runner live in benchmarks/perf, outside src."""
    with pytest.raises(SystemExit):
        main(["perf"])
    assert importlib.util.find_spec("repro.core.perf") is None


def test_rejects_unknown_platform():
    with pytest.raises(SystemExit):
        main(["run", "--platform", "nosuchchain"])


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# Lifecycle tracing surfaces: run flags, report --bottleneck, list
# ---------------------------------------------------------------------------
_SHORT_RUN = [
    "run",
    "--platform", "hyperledger",
    "--workload", "ycsb",
    "--servers", "2",
    "--clients", "2",
    "--rate", "20",
    "--duration", "5",
    "--seed", "3",
]


def test_run_prints_bottleneck_table_by_default(capsys):
    assert main(list(_SHORT_RUN)) == 0
    out = capsys.readouterr().out
    assert "lifecycle stage breakdown" in out
    assert "bottleneck:" in out
    assert "mempool_wait" in out and "notification" in out
    assert "<--" in out  # the dominant-stage marker


def test_run_no_trace_stages_drops_the_breakdown(capsys):
    assert main(list(_SHORT_RUN) + ["--no-trace-stages"]) == 0
    out = capsys.readouterr().out
    assert "lifecycle stage breakdown" not in out
    assert "throughput (tx/s)" in out  # the summary itself is untouched


def test_run_json_carries_the_breakdown_and_dominant_stage(capsys):
    assert main(list(_SHORT_RUN) + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dominant_stage"] in (
        "admission", "mempool_wait", "consensus", "execution",
        "state_commit", "notification",
    )
    breakdown = payload["stage_breakdown"]
    assert breakdown["traced"] > 0
    assert len(breakdown["stages"]) == 6


def test_run_json_omits_breakdown_when_tracing_off(capsys):
    assert main(list(_SHORT_RUN) + ["--no-trace-stages", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "stage_breakdown" not in payload
    assert "dominant_stage" not in payload


def test_run_read_ratio_flag_reaches_the_workload(capsys):
    assert main(list(_SHORT_RUN) + ["--read-ratio", "0.9", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["confirmed"] > 0


def test_run_read_ratio_on_fixed_mix_workload_fails_cleanly(capsys):
    code = main(
        ["run", "--platform", "hyperledger", "--workload", "donothing",
         "--servers", "2", "--clients", "2", "--rate", "20",
         "--duration", "5", "--read-ratio", "0.5"]
    )
    assert code == 2
    assert "fixed operation mix" in capsys.readouterr().err


def _bottleneck_store(tmp_path):
    scenario = tmp_path / "bneck.json"
    scenario.write_text(json.dumps({
        "name": "bneck",
        "scenarios": [{
            "name": "grid", "platforms": "hyperledger", "workloads": "ycsb",
            "servers": 2, "clients": 2, "rates": 20, "durations": 5,
            "seeds": 3, "read_ratios": [0.1, 0.9],
        }],
    }))
    out_dir = tmp_path / "results"
    assert main(["suite", str(scenario), "--out-dir", str(out_dir)]) == 0
    return out_dir


def test_report_bottleneck_renders_each_run(tmp_path, capsys):
    out_dir = _bottleneck_store(tmp_path)
    capsys.readouterr()
    assert main(["report", str(out_dir), "--bottleneck"]) == 0
    out = capsys.readouterr().out
    assert out.count("bottleneck:") == 2
    assert "rr=0.1" in out and "rr=0.9" in out
    assert "mempool_wait" in out


def test_report_bottleneck_json_names_dominant_stages(tmp_path, capsys):
    out_dir = _bottleneck_store(tmp_path)
    capsys.readouterr()
    assert main(["report", str(out_dir), "--bottleneck", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["runs"]) == 2
    for run in payload["runs"]:
        assert run["dominant_stage"] is not None
        assert run["stage_breakdown"]["traced"] > 0


def test_report_requires_a_mode_flag(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 2
    assert "--bottleneck" in capsys.readouterr().err


def test_report_missing_store_fails_cleanly(tmp_path, capsys):
    code = main(["report", str(tmp_path / "nope"), "--bottleneck"])
    assert code == 2
    assert "not a suite result directory" in capsys.readouterr().err


def test_report_notes_untraced_runs(tmp_path, capsys):
    out_dir = _bottleneck_store(tmp_path)
    for path in (out_dir / "runs").glob("*.json"):
        data = json.loads(path.read_text())
        data["summary"].pop("stage_breakdown", None)
        path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["report", str(out_dir), "--bottleneck"]) == 0
    captured = capsys.readouterr()
    assert "bottleneck:" not in captured.out
    assert "2 run(s) without a stage breakdown" in captured.err


def test_list_describes_consensus_and_byzantine_behaviors(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "pbft — One replica's view of the PBFT protocol." in out
    assert "byzantine behaviors:" in out
    for behavior in ("equivocate", "silent", "garbage_digest", "delay_votes"):
        assert f"  {behavior} — " in out
