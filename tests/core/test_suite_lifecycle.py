"""Suite lifecycle tests: spec hashing, the result store, and resume."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import (
    ExperimentSpec,
    ScenarioSpec,
    ScenarioSuite,
    SuiteStore,
    run_experiment,
    spec_hash,
)
from repro.core.faults import CrashFault, FaultSchedule
from repro.core.suitestore import RUN_SCHEMA, spec_to_dict
from repro.errors import BenchmarkError

REPO_ROOT = Path(__file__).resolve().parents[2]


def _suite(**scenario_kwargs) -> ScenarioSuite:
    defaults = dict(
        platforms="hyperledger", workloads="donothing",
        servers=2, clients=2, rates=[20, 40], durations=3, seeds=1,
    )
    defaults.update(scenario_kwargs)
    return ScenarioSuite(name="lifecycle", scenarios=[ScenarioSpec(**defaults)])


# ----------------------------------------------------------------------
# Spec hashing
# ----------------------------------------------------------------------
def test_spec_hash_is_deterministic_and_axis_sensitive():
    base = ExperimentSpec(platform="hyperledger", seed=1)
    assert spec_hash(base) == spec_hash(ExperimentSpec(platform="hyperledger", seed=1))
    # Every sweep axis must move the hash — a collision would make
    # --resume silently serve one grid point's result for another.
    for change in (
        dict(platform="ethereum"),
        dict(seed=2),
        dict(request_rate_tx_s=99.0),
        dict(n_servers=4),
        dict(workload="donothing"),
        dict(poll_interval_s=0.125),
        dict(config_overrides={"pbft": {"batch_size": 250}}),
        dict(faults=FaultSchedule(crashes=[CrashFault(at_time=5.0, count=1)])),
    ):
        changed = ExperimentSpec(**{"platform": "hyperledger", "seed": 1, **change})
        assert spec_hash(changed) != spec_hash(base), change


def test_spec_hash_stable_across_process_restarts():
    """Two fresh interpreters agree with in-process hashing."""
    spec = ExperimentSpec(
        platform="hyperledger",
        seed=3,
        config_overrides={"pbft": {"batch_size": 250}},
        faults=FaultSchedule(crashes=[CrashFault(at_time=5.0, count=1)]),
    )
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "from repro.core import ExperimentSpec, spec_hash\n"
        "from repro.core.faults import CrashFault, FaultSchedule\n"
        "spec = ExperimentSpec(platform='hyperledger', seed=3,\n"
        "    config_overrides={'pbft': {'batch_size': 250}},\n"
        "    faults=FaultSchedule(crashes=[CrashFault(at_time=5.0, count=1)]))\n"
        "print(spec_hash(spec))\n"
    )
    hashes = {
        subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, cwd=REPO_ROOT, check=True,
        ).stdout.strip()
        for _ in range(2)
    }
    assert hashes == {spec_hash(spec)}


def test_spec_hash_ignores_fault_runtime_state():
    armed = FaultSchedule(crashes=[CrashFault(at_time=5.0, count=1)])
    pristine = FaultSchedule(crashes=[CrashFault(at_time=5.0, count=1)])
    armed.crashed_node_ids.append("server-0")
    assert spec_hash(ExperimentSpec(faults=armed)) == spec_hash(
        ExperimentSpec(faults=pristine)
    )


def test_spec_dict_keeps_the_config_constant():
    """Platform knobs travel as ``config_overrides`` only; the
    ``"config": null`` pair right after ``faults`` is a run-file
    schema/1 constant, so every spec hash and run file stands."""
    keys = list(spec_to_dict(ExperimentSpec()))
    assert keys[keys.index("faults") + 1] == "config"
    assert spec_to_dict(ExperimentSpec())["config"] is None
    assert not hasattr(ExperimentSpec(), "config")


#: (name, spec, spec_hash, sha256 of the spec dict's JSON in insertion
#: order — the byte order of run files), captured before the platform
#: config object left ExperimentSpec.
SPEC_PINS = [
    ("default", ExperimentSpec(),
     "9f9e36779f700672",
     "5750c7986acabadd77fa50ef81156deeaadfb1bcbe57c80983d87153f77eb5c3"),
    ("arrival", ExperimentSpec(arrival={"process": "poisson", "rate": 500.0}),
     "726bf4432346f5e5",
     "fb450fb2d9cdccd1a2f70c4dd6e456d5cfc3baefa87d1a34a752e621ec415a6b"),
    ("stats_reservoir", ExperimentSpec(stats_reservoir=1000),
     "3086a8f5c80e3e11",
     "d5698bf776d48d38b81af832384c64071c3942b5e8c9cbdc5c072f418c7aa941"),
    ("read_ratio", ExperimentSpec(read_ratio=0.25),
     "d1d799d0ce677840",
     "7fad8ac72d7df69af12404114f2c122dafd16ba9f5baff6cdfc3f857affe4bfb"),
    ("failover", ExperimentSpec(failover=True),
     "026998cd56e4895e",
     "147e252a77693ceb9332fe6b896f02bde0b1ec883210dfc92a88089b0f556f4e"),
    ("max_backoff_s", ExperimentSpec(max_backoff_s=4.0),
     "10b1aff7aa354e97",
     "fd7329da94ad41c9cd57ea6d622aa8b266c8422781f0367e53d93de8f0ff6757"),
    ("config_overrides", ExperimentSpec(
        config_overrides={"pbft": {"batch_size": 250}, "inbox_capacity": 1300}),
     "90fd3fe1fc21d4d2",
     "c06ac45fd317f3a02ddd9a9e6e76603091a5d9c54f0e44da4756b81b6f7171f0"),
    ("crash_recovery", ExperimentSpec(
        n_servers=4, failover=True,
        faults=FaultSchedule(crashes=[CrashFault(
            at_time=5.0, count=1, recover_at=9.0, recovery_mode="cold")])),
     "e0422d747b88ecad",
     "86d61b2910105abfd03a834c904b91d50da361e84ece82b3753353b839bc30e7"),
]


@pytest.mark.parametrize(
    "spec, hash_, body", [pin[1:] for pin in SPEC_PINS],
    ids=[pin[0] for pin in SPEC_PINS],
)
def test_spec_shape_is_pinned(spec, hash_, body):
    assert spec_hash(spec) == hash_
    assert hashlib.sha256(json.dumps(spec_to_dict(spec)).encode()).hexdigest() == body


#: sha256 over each example scenario file's expanded ``[[spec_hash,
#: label], ...]`` list, captured before the axis table replaced the
#: hand-written expansion.
EXAMPLE_PINS = {
    "blocksize_overrides.json": "233b927e38c47675acf9d860ff88311ae420cda17dda55fa538976d301c436cc",
    "bottleneck_sweep.json": "6eaa4290f1bd69993f674df25da8708d8fcb7b4bda883a555633280d4daa4aef",
    "byzantine_smoke.json": "d14c38ffa09563843de5150dba5297dc8d15b9907129b4ac7c164e74dc530761",
    "byzantine_sweep.json": "0df06356ecb9e6a62c02cc947ce6eeb1cd305ce533d58dc66c31b59de7341f40",
    "ci_smoke.json": "8ff259438c3f6f2f6162de94289f5b4e079db630d2f580203c25523e729862d9",
    "crash_recovery_sweep.json": "a6cf24728f983e2a6777413699fd78ea3162b18b4a436e69499289ddc19c63ad",
    "determinism_smoke.json": "b6ba3530cbf6fc7e73e48a24d72423ea0354760046d5bd9bf3c1a50eea0020aa",
    "fault_tolerance.json": "dc47a8c3677808cffaf352cac6af554dc479fc18f3566020acbaac3a7323d9b6",
    "openloop_100k.json": "2feb85e6b3fe759766320d404747359d920abdbb09793a516702dd9f554aeb46",
    "parallel_exec_sweep.json": "6977fce504c98b6af1abc9ac2409948061bc5bf485adc31430520bece6d34a1c",
    "peak_sweep.json": "dad356198f1c8e1a2d004d57b7187ceb71737447232376d0161eeaaacd7db095",
}


def test_every_example_scenario_is_pinned():
    names = {path.name for path in (REPO_ROOT / "examples" / "scenarios").glob("*.json")}
    assert names == set(EXAMPLE_PINS)


@pytest.mark.parametrize("name", sorted(EXAMPLE_PINS))
def test_example_scenario_expansion_is_pinned(name):
    suite = ScenarioSuite.from_file(REPO_ROOT / "examples" / "scenarios" / name)
    points = [[spec_hash(spec), spec.label] for spec in suite.expand()]
    assert hashlib.sha256(json.dumps(points).encode()).hexdigest() == EXAMPLE_PINS[name]


def test_override_axis_points_hash_apart():
    suite = _suite(
        rates=20,
        overrides=[
            {"pbft": {"batch_size": 100}},
            {"pbft": {"batch_size": 500}},
        ],
    )
    specs = suite.expand()
    assert len({spec_hash(s) for s in specs}) == len(specs) == 2


# ----------------------------------------------------------------------
# The result store
# ----------------------------------------------------------------------
def test_store_round_trips_a_result(tmp_path):
    spec = ExperimentSpec(
        platform="hyperledger", workload="donothing",
        n_servers=2, n_clients=2, request_rate_tx_s=20.0,
        duration_s=3.0, seed=1,
    )
    result = run_experiment(spec)
    store = SuiteStore(tmp_path)
    path = store.save(result)
    assert path == tmp_path / "runs" / f"{spec_hash(spec)}.json"
    loaded = store.load(spec)
    assert loaded is not None
    assert loaded.spec is spec  # live spec object, not a reconstruction
    assert loaded.summary == result.summary
    assert loaded.queue_series == result.queue_series
    assert loaded.chain_height == result.chain_height
    assert loaded.stats.submitted == result.summary.submitted


def test_store_treats_damage_as_missing(tmp_path):
    spec = ExperimentSpec(
        platform="hyperledger", workload="donothing",
        n_servers=2, n_clients=2, duration_s=3.0, request_rate_tx_s=20.0,
    )
    store = SuiteStore(tmp_path)
    assert store.load(spec) is None  # never written
    path = store.path_for(spec)
    path.write_text("{truncated")
    assert store.load(spec) is None  # corrupt JSON
    path.write_text(json.dumps({"schema": "something-else/9"}))
    assert store.load(spec) is None  # wrong schema
    payload = json.dumps(
        {"schema": RUN_SCHEMA, "spec_hash": "0" * 16, "spec": {}}
    )
    path.write_text(payload)
    assert store.load(spec) is None  # hash/name mismatch


# ----------------------------------------------------------------------
# Resume semantics
# ----------------------------------------------------------------------
def test_mid_suite_crash_leaves_valid_partial_store(tmp_path, monkeypatch):
    """A campaign killed after run 1 resumes with only runs 2+ executed."""
    import repro.core.scenario as scenario_mod

    suite = _suite()
    total = len(suite.expand())
    assert total == 2

    calls = []
    real_run = run_experiment

    def crash_after_first(spec):
        if calls:
            raise KeyboardInterrupt("simulated kill")
        calls.append(spec)
        return real_run(spec)

    monkeypatch.setattr(scenario_mod, "run_experiment", crash_after_first)
    with pytest.raises(KeyboardInterrupt):
        suite.run(out_dir=tmp_path)
    # The killed campaign left exactly the finished run behind, valid.
    files = list((tmp_path / "runs").glob("*.json"))
    assert len(files) == 1
    assert json.loads(files[0].read_text())["schema"] == RUN_SCHEMA

    executed = []

    def count_runs(spec):
        executed.append(spec)
        return real_run(spec)

    monkeypatch.setattr(scenario_mod, "run_experiment", count_runs)
    result = suite.run(out_dir=tmp_path, resume=True)
    assert len(executed) == 1  # only the missing grid point ran
    assert result.resumed == 1
    assert len(result.results) == total
    assert all(r.summary.confirmed >= 0 for r in result.results)


def test_resumed_suite_result_matches_uninterrupted_run(tmp_path):
    suite = _suite()
    uninterrupted = suite.run()
    partial_dir = tmp_path / "partial"
    suite.run(out_dir=partial_dir)
    # Kill one grid point and resume.
    victim = sorted((partial_dir / "runs").glob("*.json"))[0]
    victim.unlink()
    resumed = suite.run(out_dir=partial_dir, resume=True)
    assert resumed.resumed == len(suite.expand()) - 1
    assert json.dumps(resumed.to_json(), sort_keys=True) == json.dumps(
        uninterrupted.to_json(), sort_keys=True
    )
    # The grid rows (platform/axes/metrics) align too.
    assert resumed.to_rows() == uninterrupted.to_rows()


def test_resume_with_complete_store_executes_nothing(tmp_path, monkeypatch):
    import repro.core.scenario as scenario_mod

    suite = _suite()
    suite.run(out_dir=tmp_path)
    monkeypatch.setattr(
        scenario_mod,
        "run_experiment",
        lambda spec: pytest.fail("a fully stored suite must not re-run"),
    )
    result = suite.run(out_dir=tmp_path, resume=True)
    assert result.resumed == len(result.results) == 2


def test_run_without_resume_overwrites_store(tmp_path):
    suite = _suite()
    suite.run(out_dir=tmp_path)
    before = {
        p.name: p.read_text() for p in (tmp_path / "runs").glob("*.json")
    }
    suite.run(out_dir=tmp_path)  # no resume: everything re-executes
    after = {
        p.name: p.read_text() for p in (tmp_path / "runs").glob("*.json")
    }
    assert before == after  # deterministic sim: same bytes either way


def test_resume_requires_out_dir():
    with pytest.raises(BenchmarkError, match="requires out_dir"):
        _suite().run(resume=True)


def test_multiprocessing_run_persists_every_point(tmp_path):
    suite = _suite()
    result = suite.run(processes=2, out_dir=tmp_path)
    assert len(list((tmp_path / "runs").glob("*.json"))) == 2
    # And a subsequent serial resume trusts the parallel store.
    resumed = suite.run(out_dir=tmp_path, resume=True)
    assert resumed.resumed == 2
    assert resumed.to_rows() == result.to_rows()


def test_manifest_written_with_run_hashes(tmp_path):
    suite = _suite()
    result = suite.run(out_dir=tmp_path)
    manifest = json.loads((tmp_path / "suite.json").read_text())
    assert manifest["schema"] == "blockbench-suite/1"
    assert manifest["suite"] == "lifecycle"
    assert manifest["runs"] == 2
    assert manifest["run_hashes"] == [spec_hash(r.spec) for r in result.results]
    hashes = {p.stem for p in (tmp_path / "runs").glob("*.json")}
    assert set(manifest["run_hashes"]) == hashes


def test_new_optional_fields_do_not_move_old_spec_hashes():
    """PR 6 added ``arrival`` and ``stats_reservoir`` to the spec. At
    their defaults they must be invisible to the canonical form, or
    every committed baseline store and resumable campaign on disk
    would silently orphan (same physics, new hash)."""
    spec = ExperimentSpec(platform="hyperledger", seed=1)
    data = spec_to_dict(spec)
    assert "arrival" not in data
    assert "stats_reservoir" not in data


def test_non_default_arrival_and_reservoir_hash_apart():
    """A real axis value must enter the hash, like any other axis."""
    base = ExperimentSpec(platform="hyperledger", seed=1)
    arrival = ExperimentSpec(
        platform="hyperledger", seed=1,
        arrival={"process": "poisson", "rate": 100.0},
    )
    reservoir = ExperimentSpec(
        platform="hyperledger", seed=1, stats_reservoir=1000
    )
    hashes = {spec_hash(base), spec_hash(arrival), spec_hash(reservoir)}
    assert len(hashes) == 3
    assert "arrival" in spec_to_dict(arrival)
    assert spec_to_dict(reservoir)["stats_reservoir"] == 1000
