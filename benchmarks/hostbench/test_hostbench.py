"""Tests for the hostbench harness itself.

Run explicitly: ``pytest benchmarks/hostbench`` (tier-1 ``testpaths``
does not include this directory).
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import compare
import run
from layers import ENTRY_POINTS, LAYERS
from metrics import BY_NAME, DRIVER_END_TO_END, END_TO_END, PAPER_RATIO, PER_LAYER
from tracer import Tracer, resolve
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


# ---------------------------------------------------------------------------
# Tracer: self-time arithmetic on synthetic spans
# ---------------------------------------------------------------------------
def _aggregate(spans):
    """``spans``: (name, layer, start, end, parent index)."""
    tracer = Tracer(layers=("x", "y", "z"))
    for span in spans:
        tracer.add_span(*span)
    return tracer.aggregate()


def test_self_time_nested_cross_layer():
    out = _aggregate([
        ("a", "x", 0.0, 10.0, -1),
        ("b", "y", 2.0, 5.0, 0),
        ("c", "z", 3.0, 4.0, 1),
    ])
    assert [out[layer]["self_s"] for layer in "xyz"] == [7.0, 2.0, 1.0]
    assert [out[layer]["share"] for layer in "xyz"] == [0.7, 0.2, 0.1]
    assert [out[layer]["calls"] for layer in "xyz"] == [1, 1, 1]


def test_self_time_same_layer_spans_merge():
    out = _aggregate([
        ("a", "x", 0.0, 10.0, -1),
        ("b", "x", 2.0, 6.0, 0),   # same layer as its parent: merges
        ("c", "y", 3.0, 4.0, 1),
    ])
    assert out["x"]["self_s"] == 9.0 and out["y"]["self_s"] == 1.0
    assert out["x"]["calls"] == 1   # b is not a crossing into x
    assert out["y"]["calls"] == 1
    assert sum(row["share"] for row in out.values()) == pytest.approx(1.0)


def test_self_time_siblings():
    out = _aggregate([
        ("a", "x", 0.0, 10.0, -1),
        ("b", "y", 1.0, 3.0, 0),
        ("c", "y", 5.0, 8.0, 0),
    ])
    assert out["x"]["self_s"] == 5.0 and out["y"]["self_s"] == 5.0
    assert out["y"]["calls"] == 2


# ---------------------------------------------------------------------------
# Tracer: wrappers on a toy package
# ---------------------------------------------------------------------------
@pytest.fixture
def toy(monkeypatch):
    """A two-module package ``hbtoy`` with one function imported by value."""
    lib = types.ModuleType("hbtoy.lib")
    user = types.ModuleType("hbtoy.user")
    package = types.ModuleType("hbtoy")
    package.lib, package.user = lib, user

    def helper(x):
        return x + 1

    class Inner:
        def leaf(self, x):
            return lib.helper(x)

        def twice(self, x):
            return self.leaf(self.leaf(x))   # same-layer nested calls

        @classmethod
        def make(cls):
            return cls()

        @staticmethod
        def ident(x):
            return x

    class Outer:
        def go(self, x):
            return Inner.make().twice(x)

    class Loop:
        def __init__(self):
            self.queue = []

        def schedule(self, when, fn, *args):
            self.queue.append((fn, args))

        def drain(self):
            while self.queue:
                fn, args = self.queue.pop(0)
                fn(*args)

    for cls in (Inner, Outer, Loop):
        cls.__module__ = "hbtoy.lib"
    helper.__module__ = "hbtoy.lib"
    lib.helper, lib.Inner, lib.Outer, lib.Loop = helper, Inner, Outer, Loop
    user.helper = helper   # `from hbtoy.lib import helper`
    for module in (package, lib, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    return lib, user


TOY_ENTRY_POINTS = {
    "x": ("hbtoy.lib.Outer.go",),
    "y": ("hbtoy.lib.Inner.*",),
    "z": ("hbtoy.lib.helper", "hbtoy.lib.Gone.method", "hbtoy.nowhere.f"),
}


def test_wrappers_record_crossings_and_are_fully_removed(toy):
    lib, user = toy
    originals = {
        (cls, name): vars(cls)[name]
        for cls in (lib.Outer, lib.Inner)
        for name in vars(cls) if not name.startswith("_")
    }
    helper = lib.helper
    tracer = Tracer(layers=("x", "y", "z", "other"))
    tracer.install(TOY_ENTRY_POINTS)
    try:
        # An unresolved dotted name is skipped and reported, not raised.
        assert tracer.missing == ["hbtoy.lib.Gone.method", "hbtoy.nowhere.f"]
        # The by-value import in the other module was rebound too.
        assert user.helper is lib.helper and user.helper is not helper
        tracer.begin()
        assert lib.Outer().go(1) == 3
        assert lib.Inner.ident(7) == 7
        tracer.end()
    finally:
        tracer.uninstall()
    out = tracer.aggregate()
    # go -> make (y) ; go -> twice (y) -> leaf x2 (same layer, no span)
    # -> helper x2 (z); ident (y) from the root.
    assert out["x"]["calls"] == 1
    assert out["y"]["calls"] == 3
    assert out["z"]["calls"] == 2
    assert tracer.calls(".Inner.leaf") == 2      # counted although merged
    assert sum(row["share"] for row in out.values()) == pytest.approx(1.0)
    assert all(row["self_s"] >= 0 for row in out.values())
    for (cls, name), original in originals.items():
        assert vars(cls)[name] is original
    assert lib.helper is helper and user.helper is helper


def test_scheduler_callbacks_get_a_span_of_their_own_layer(toy, monkeypatch):
    lib, _ = toy
    import layers
    import tracer as tracer_module

    monkeypatch.setitem(layers.MODULE_LAYERS, "hbtoy.lib", "y")
    monkeypatch.setitem(
        tracer_module.CALLBACK_TAKERS, "hbtoy.lib.Loop.schedule", "positional"
    )
    fired = []

    def callback(value):
        fired.append(value)

    callback.__module__ = "hbtoy.lib"
    tracer = Tracer(layers=("x", "y", "other"))
    tracer.install({"x": ("hbtoy.lib.Loop.schedule", "hbtoy.lib.Loop.drain")})
    try:
        loop = lib.Loop()
        tracer.begin()
        loop.schedule(0.0, callback, 41)
        loop.drain()
        tracer.end()
    finally:
        tracer.uninstall()
    assert fired == [41]
    out = tracer.aggregate()
    assert out["x"]["calls"] == 2          # schedule, drain
    assert out["y"]["calls"] == 1          # the callback, inside drain
    assert tracer.calls("callback:hbtoy.lib") == 1


def test_every_entry_point_resolves_on_this_commit():
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == []


# ---------------------------------------------------------------------------
# Every workload, 2 simulated seconds, untraced and traced
# ---------------------------------------------------------------------------
def _child(workload: str, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", "5", "--sim-seconds", "2", *extra],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_emits_every_metric_and_tracing_leaves_the_sim_alone(workload):
    plain = _child(workload)
    traced = _child(workload, "--trace")
    assert set(plain["end_to_end"]) == {metric.name for metric in END_TO_END}
    assert all(math.isfinite(value) for value in plain["end_to_end"].values())
    assert traced["sim_digest"] == plain["sim_digest"]
    assert traced["missing_entry_points"] == []
    layers = traced["per_layer"]
    assert set(layers) == {
        name for name in PER_LAYER if not name.startswith(("run.", "trace.overhead"))
    }
    assert all(math.isfinite(value) for value in layers.values())
    assert sum(layers[f"{layer}.share"] for layer in LAYERS) == pytest.approx(1.0)


def test_wrappers_are_fully_removed_after_a_traced_run(capsys):
    import child

    assert child.main(["--workload", "hl_smallbank_steady", "--seed", "5",
                       "--sim-seconds", "2", "--trace"]) == 0
    capsys.readouterr()
    for dotted_names in ENTRY_POINTS.values():
        for dotted in dotted_names:
            if dotted.endswith(".*"):
                continue
            owner, attr = resolve(dotted)
            assert not hasattr(getattr(owner, attr), "__wrapped__"), dotted
    from repro.platforms.cluster import Cluster

    assert Cluster.run_until.__qualname__ == "Cluster.run_until"


# ---------------------------------------------------------------------------
# compare.py on doctored documents
# ---------------------------------------------------------------------------
def _document() -> dict:
    record = {
        "sim_digest": "d" * 64,
        "end_to_end": {
            "setup_s": 1.0, "tx_per_wall_s": 1000.0, "sim_s_per_wall_s": 4.0,
            "sim_s_per_loop": 1.2, "peak_rss_mb": 100.0, "sim_tput_tx_s": 500.0, "sim_lat_p50_s": 0.5,
            "sim_lat_p99_s": 1.0, "failed_share": 0.0, "max_commit_gap_s": 0.4,
        },
        "spread": {"setup_s": 0.02, "tx_per_wall_s": 0.03, "sim_s_per_wall_s": 0.03,
                   "sim_s_per_loop": 0.02, "peak_rss_mb": 0.0},
        "per_layer": {
            "sim.events.self_s": 2.0, "sim.events.share": 0.5,
            "chain.self_s": 2.0, "chain.share": 0.5,
            "crypto.hashing.hash_calls": 1000, "sim.events.dispatched": 5000,
            "run.wall_s": 4.0,
        },
    }
    return {"workloads": {"w": record}}


def _verdicts(a: dict, b: dict) -> dict[str, str]:
    return {row["metric"]: row["verdict"] for row in compare.compare(a, b)}


def test_compare_identical_documents_are_ok():
    verdicts = _verdicts(_document(), _document())
    assert set(verdicts) == set(BY_NAME)
    assert set(verdicts.values()) == {"ok"}


def test_compare_flags_a_host_regression_and_names_the_layers(tmp_path):
    a, b = _document(), _document()
    record = b["workloads"]["w"]
    record["end_to_end"]["tx_per_wall_s"] = 850.0            # -15% > 10% bound
    record["end_to_end"]["sim_s_per_wall_s"] = 3.8           # -5%: inside
    record["per_layer"]["chain.self_s"] = 2.9
    record["per_layer"]["crypto.hashing.hash_calls"] = 1400
    rows = {row["metric"]: row for row in compare.compare(a, b)}
    assert rows["tx_per_wall_s"]["verdict"] == "regressed"
    assert rows["sim_s_per_wall_s"]["verdict"] == "ok"
    assert [mover.split()[0] for mover in rows["tx_per_wall_s"]["movers"]] == [
        "crypto.hashing.hash_calls", "chain.self_s"
    ]
    assert not rows["sim_s_per_wall_s"]["movers"]
    assert "moved: crypto.hashing.hash_calls 1000 -> 1400" in compare.render(
        list(rows.values())
    )
    paths = []
    for name, document in (("a.json", a), ("b.json", b)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(document))
    assert compare.main(paths) == 1
    assert compare.main([paths[0], paths[0]]) == 0


def test_compare_noisy_side_is_unresolved_not_regressed():
    a, b = _document(), _document()
    b["workloads"]["w"]["end_to_end"]["tx_per_wall_s"] = 850.0
    b["workloads"]["w"]["spread"]["tx_per_wall_s"] = 0.3
    assert _verdicts(a, b)["tx_per_wall_s"] == "unresolved"


def test_compare_sim_metrics_use_tight_and_absolute_bounds():
    a, b = _document(), _document()
    record = b["workloads"]["w"]
    record["sim_digest"] = "e" * 64
    record["end_to_end"]["sim_lat_p99_s"] = 1.02        # +2% > 1%
    record["end_to_end"]["failed_share"] = 0.004        # +0.004 <= 0.005 abs
    record["end_to_end"]["max_commit_gap_s"] = 0.6      # +0.2 > 0.1 abs
    record["end_to_end"]["setup_s"] = 1.04              # +4% and < 0.05 s
    verdicts = _verdicts(a, b)
    assert verdicts["sim_lat_p99_s"] == "regressed"
    assert verdicts["failed_share"] == "ok"
    assert verdicts["max_commit_gap_s"] == "regressed"
    assert verdicts["setup_s"] == "ok"
    assert verdicts["sim_digest"] == "changed"


# ---------------------------------------------------------------------------
# The contract: BENCHMARK.json and the one command
# ---------------------------------------------------------------------------
def test_benchmark_json_mirrors_the_harness():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest["command"] == ["python3", "benchmarks/hostbench/run.py"]
    assert manifest["paths"] == ["benchmarks/hostbench"]
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == {
        name: why for name, (why, _) in WORKLOADS.items()
    }
    assert [m["name"] for m in manifest["end_to_end"]] == list(DRIVER_END_TO_END)
    for entry in manifest["end_to_end"]:
        metric = BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
        assert 0 < entry["bound"] <= 0.25
    assert {
        m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]
    } == PER_LAYER
    assert PAPER_RATIO not in PER_LAYER


def test_the_one_command_prints_the_result_line():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "parity_smallbank_overload", "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == list(DRIVER_END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == BY_NAME[name].unit and entry["value"] > 0
    for metric in END_TO_END:
        assert metric.name in done.stdout and metric.unit in done.stdout


def test_without_the_simulator_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/hostbench/run.py", "--workload",
         "hl_ycsb_peak", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_selfcheck_and_out_are_wired(monkeypatch, tmp_path, capsys):
    """--selfcheck compares two passes; --out stores the first."""
    passes = []

    def fake_measure(workload, seed, reps, seconds, trace, spans_out=None):
        record = copy.deepcopy(_document()["workloads"]["w"])
        record |= {
            "workload": workload, "seed": seed, "reps": reps, "correct": True,
            "failed_checks": [], "attempted": reps, "failed": 0,
            "submitted": 10, "rejected": 0, "confirmed": 10,
        }
        del record["per_layer"]
        if passes:   # second pass: slower by more than the bound
            record["end_to_end"]["tx_per_wall_s"] *= 0.8
        passes.append(workload)
        return record

    monkeypatch.setattr(run, "measure", fake_measure)
    out = tmp_path / "result.json"
    status = run.main(["--workload", "hl_ycsb_peak", "--seed", "9",
                       "--selfcheck", "--out", str(out)])
    assert status == 1 and len(passes) == 2
    assert "selfcheck: 1 regressed" in capsys.readouterr().out
    document = json.loads(out.read_text())
    assert document["meta"]["seed"] == 9 and document["meta"]["reps"] == 3
    assert document["meta"]["python"] and document["meta"]["nproc"]
    assert list(document["workloads"]) == ["hl_ycsb_peak"]
