"""Comparison-engine tests: aligning and gating two result stores."""

import json

import pytest

from repro.core import ScenarioSpec, ScenarioSuite, compare_suites
from repro.errors import BenchmarkError


def _run_store(tmp_path, name, rates=(20, 40)):
    out = tmp_path / name
    ScenarioSuite(
        name="cmp",
        scenarios=[
            ScenarioSpec(
                platforms="hyperledger", workloads="donothing",
                servers=2, clients=2, rates=list(rates), durations=3, seeds=1,
            )
        ],
    ).run(out_dir=out)
    return out


def _doctor(store_dir, scale_throughput=1.0, scale_latency=1.0, index=0):
    """Rewrite one run file's summary to fake a perf change."""
    path = sorted((store_dir / "runs").glob("*.json"))[index]
    data = json.loads(path.read_text())
    data["summary"]["throughput_tx_s"] *= scale_throughput
    data["summary"]["latency_avg_s"] *= scale_latency
    path.write_text(json.dumps(data))
    return path


def test_identical_stores_compare_clean(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    comparison = compare_suites(base, current, threshold=0.0)
    assert len(comparison.deltas) == 2
    assert comparison.regressions() == []
    assert comparison.only_in_base == comparison.only_in_current == []
    for delta in comparison.deltas:
        assert delta.throughput_ratio == 1.0
        assert delta.latency_ratio == 1.0


def test_throughput_drop_beyond_threshold_regresses(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor(current, scale_throughput=0.8)
    comparison = compare_suites(base, current, threshold=0.1)
    regressions = comparison.regressions()
    assert len(regressions) == 1
    assert "throughput" in regressions[0].failures[0]
    # A drop inside the tolerance passes.
    assert compare_suites(base, current, threshold=0.25).regressions() == []


def test_latency_rise_beyond_threshold_regresses(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor(current, scale_latency=1.5)
    regressions = compare_suites(base, current, threshold=0.1).regressions()
    assert len(regressions) == 1
    assert "latency" in regressions[0].failures[0]


def test_improvements_never_regress(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor(current, scale_throughput=2.0, scale_latency=0.5)
    comparison = compare_suites(base, current, threshold=0.0)
    assert comparison.regressions() == []
    assert max(d.throughput_ratio for d in comparison.deltas) == 2.0


def test_partial_overlap_reports_drift(tmp_path):
    base = _run_store(tmp_path, "base", rates=(20, 40))
    current = _run_store(tmp_path, "current", rates=(40, 80))
    comparison = compare_suites(base, current)
    assert len(comparison.deltas) == 1  # rate=40 is the shared point
    assert len(comparison.only_in_base) == 1
    assert len(comparison.only_in_current) == 1
    assert "only in base" in comparison.format()


def test_disjoint_stores_error(tmp_path):
    base = _run_store(tmp_path, "base", rates=(20,))
    current = _run_store(tmp_path, "current", rates=(80,))
    with pytest.raises(BenchmarkError, match="no grid points in common"):
        compare_suites(base, current)


def test_missing_directory_errors(tmp_path):
    base = _run_store(tmp_path, "base")
    with pytest.raises(BenchmarkError, match="not a suite result directory"):
        compare_suites(base, tmp_path / "nope")


def test_negative_threshold_rejected(tmp_path):
    base = _run_store(tmp_path, "base")
    with pytest.raises(BenchmarkError, match="non-negative"):
        compare_suites(base, base, threshold=-0.1)


def test_json_payload_shape(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor(current, scale_throughput=0.5)
    payload = compare_suites(base, current, threshold=0.1).to_json()
    assert payload["schema"] == "blockbench-suite-compare/1"
    assert payload["compared"] == 2
    assert payload["regressed"] == 1
    regressed = [r for r in payload["results"] if r["regressed"]]
    assert len(regressed) == 1
    assert regressed[0]["throughput_ratio"] == 0.5
    assert regressed[0]["failures"]
    assert json.dumps(payload)  # fully serializable


def test_zero_base_point_is_visible_but_not_gating(tmp_path):
    """Work appearing from a zero base: never a regression, ratios are
    JSON-null (Infinity is not valid JSON), and the human table notes it."""
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor(base, scale_throughput=0.0, scale_latency=0.0)
    comparison = compare_suites(base, current, threshold=0.0)
    assert comparison.regressions() == []
    assert len(comparison.appeared_from_zero()) == 1
    payload = comparison.to_json()
    text = json.dumps(payload)
    assert "Infinity" not in text
    json.loads(text)  # strict-parseable
    nulled = [r for r in payload["results"] if r["throughput_ratio"] is None]
    assert len(nulled) == 1 and nulled[0]["latency_ratio"] is None
    assert "appeared from a zero base" in comparison.format()


def test_format_marks_regressions(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor(current, scale_throughput=0.5)
    text = compare_suites(base, current, threshold=0.1).format()
    assert "REGRESSED" in text
    assert "REGRESSION" in text  # the per-point note line
    assert "hyperledger/donothing" in text


# ---------------------------------------------------------------------------
# Cross-scenario-file projection (PR 6)
# ---------------------------------------------------------------------------
def _named_store(tmp_path, dirname, scenario_name, rates=(20, 40)):
    out = tmp_path / dirname
    ScenarioSuite(
        name=scenario_name,
        scenarios=[
            ScenarioSpec(
                platforms="hyperledger", workloads="donothing",
                servers=2, clients=2, rates=list(rates), durations=3, seeds=1,
                name=scenario_name,
            )
        ],
    ).run(out_dir=out)
    return out


def test_same_axes_different_scenario_names_align_by_projection(tmp_path):
    """Two scenario files sweeping identical physical axes never share
    a direct spec hash (the name is hashed); the projected alignment
    must recover the point-by-point diff and flag itself."""
    base = _named_store(tmp_path, "base", "alpha")
    current = _named_store(tmp_path, "current", "beta")
    comparison = compare_suites(base, current, threshold=0.0)
    assert comparison.projected is True
    assert len(comparison.deltas) == 2
    assert comparison.regressions() == []
    assert comparison.to_json()["projected"] is True
    assert "projected spec hash" in comparison.format()


def test_direct_alignment_never_reports_projected(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    comparison = compare_suites(base, current)
    assert comparison.projected is False
    assert comparison.to_json()["projected"] is False
    assert "projected spec hash" not in comparison.format()


def test_projection_still_gates_regressions(tmp_path):
    base = _named_store(tmp_path, "base", "alpha")
    current = _named_store(tmp_path, "current", "beta")
    _doctor(current, scale_throughput=0.5)
    comparison = compare_suites(base, current, threshold=0.1)
    assert comparison.projected is True
    assert len(comparison.regressions()) == 1


def test_projection_with_disjoint_physical_axes_errors(tmp_path):
    base = _named_store(tmp_path, "base", "alpha", rates=(20,))
    current = _named_store(tmp_path, "current", "beta", rates=(80,))
    with pytest.raises(BenchmarkError, match="disjoint axes"):
        compare_suites(base, current)


def test_projection_collision_is_rejected(tmp_path):
    """Two runs on one side that differ only in scenario/label project
    to the same key; aligning either would be arbitrary, so refuse."""
    base = _named_store(tmp_path, "base", "alpha", rates=(20,))
    extra = _named_store(tmp_path, "extra", "gamma", rates=(20,))
    # Splice gamma's run file into base's store: same physical point,
    # different scenario name.
    src = next((extra / "runs").glob("*.json"))
    (base / "runs" / src.name).write_text(src.read_text())
    current = _named_store(tmp_path, "current", "beta", rates=(20,))
    with pytest.raises(BenchmarkError, match="ambiguous"):
        compare_suites(base, current)


# ---------------------------------------------------------------------------
# Stage attribution: a regression names the lifecycle stage that moved
# ---------------------------------------------------------------------------
def _doctor_stage(store_dir, stage, extra_s, index=0):
    """Inflate one stage's mean and the end-to-end latency to match —
    the run-file shape of a slowdown localized to that stage."""
    path = sorted((store_dir / "runs").glob("*.json"))[index]
    data = json.loads(path.read_text())
    data["summary"]["latency_avg_s"] += extra_s
    breakdown = data["summary"]["stage_breakdown"]
    breakdown["end_to_end_avg_s"] += extra_s
    for stat in breakdown["stages"]:
        if stat["stage"] == stage:
            stat["avg_s"] += extra_s
    path.write_text(json.dumps(data))
    return path


def test_latency_regression_is_attributed_to_the_moved_stage(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    _doctor_stage(current, "consensus", 5.0)
    comparison = compare_suites(base, current, threshold=0.1)
    regressions = comparison.regressions()
    assert len(regressions) == 1
    delta = regressions[0]
    assert delta.regressed_stage == "consensus"
    assert delta.stage_deltas["consensus"] == pytest.approx(5.0)
    # The attribution is visible in both renderings.
    assert any(
        "stage attribution: 'consensus'" in failure
        for failure in delta.failures
    )
    assert "stage attribution: 'consensus'" in comparison.format()
    payload = comparison.to_json()
    regressed = [r for r in payload["results"] if r["regressed"]]
    assert regressed[0]["regressed_stage"] == "consensus"
    assert regressed[0]["stage_deltas"]["consensus"] == pytest.approx(5.0)


def test_clean_compare_reports_stage_deltas_without_attribution(tmp_path):
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    comparison = compare_suites(base, current, threshold=0.1)
    assert comparison.regressions() == []
    for delta in comparison.deltas:
        assert delta.stage_deltas is not None
        assert all(moved == 0.0 for moved in delta.stage_deltas.values())
        assert "stage attribution" not in "".join(delta.failures)


def test_runs_without_breakdowns_compare_without_attribution(tmp_path):
    """Stores written before stage tracing existed still compare cleanly."""
    base = _run_store(tmp_path, "base")
    current = _run_store(tmp_path, "current")
    for store in (base, current):
        for path in (store / "runs").glob("*.json"):
            data = json.loads(path.read_text())
            data["summary"].pop("stage_breakdown", None)
            path.write_text(json.dumps(data))
    _doctor(current, scale_latency=3.0)
    comparison = compare_suites(base, current, threshold=0.1)
    regressions = comparison.regressions()
    assert len(regressions) == 1
    assert regressions[0].regressed_stage is None
    assert regressions[0].stage_deltas is None
    assert "stage attribution" not in "".join(regressions[0].failures)
