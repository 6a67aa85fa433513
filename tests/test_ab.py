"""The alternating-pairs runner's bookkeeping (benchmarks/ab.py).

Only the pure parts: which side runs first, how pairs fold into
medians, wins and the ``clear`` verdict, what a tree snapshot copies
and the environment a child gets. Running children is hostbench's own
business.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_spec = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "peak_rss_mb", "better": "lower"},
    {"name": "sim_s_per_loop", "better": "higher"},
]


def _run(digest, rss, speed, wall=2.0):
    return {
        "sim_digest": digest,
        "run_wall_s": wall,
        "end_to_end": {"peak_rss_mb": rss, "sim_s_per_loop": speed},
    }


def _pairs(base_rss, change_rss, digests=None, walls=None):
    digests = digests or ["d"] * len(base_rss)
    walls = walls or [(2.0, 2.0)] * len(base_rss)
    return [
        {
            "seed": 600 + i,
            "base": _run("d", b, 1.0, base_wall),
            "change": _run(d, c, 1.0, change_wall),
        }
        for i, (b, c, d, (base_wall, change_wall)) in enumerate(
            zip(base_rss, change_rss, digests, walls)
        )
    ]


def test_seeds_parse_ranges_and_lists():
    assert ab.parse_seeds("601-603,610") == [601, 602, 603, 610]
    assert ab.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        ab.parse_seeds("x")


def test_sides_alternate_which_runs_first():
    orders = [ab.pair_order(i) for i in range(4)]
    assert orders == [("base", "change"), ("change", "base")] * 2


def test_quartile_spread():
    assert ab.quartile_spread([5.0]) == 0.0
    assert ab.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert ab.quartile_spread([3.0, 3.0, 3.0]) == 0.0


def test_wins_follow_the_metric_direction():
    assert ab.change_wins(74.0, 65.0, "lower")
    assert not ab.change_wins(74.0, 65.0, "higher")
    assert not ab.change_wins(1.0, 1.0, "lower")  # a tie is no win


def test_a_consistent_drop_is_clear():
    base = [74.0, 75.0, 73.5, 74.4, 74.1, 76.0, 73.9, 74.8, 74.2, 75.2]
    change = [b - 9.0 for b in base]
    change[3] = 80.0  # one lost pair of ten still clears
    summary = ab.summarize(_pairs(base, change), METRICS)
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 9 and rss["pairs"] == 10
    assert rss["base_median"] == pytest.approx(74.3)
    assert rss["change_median"] == pytest.approx(65.5)
    assert rss["ratio"] == pytest.approx(65.5 / 74.3)
    assert rss["clear"]
    assert summary["digest_mismatches"] == []
    # Equal values on every pair: no wins, nothing clear.
    speed = summary["metrics"]["sim_s_per_loop"]
    assert speed["wins"] == 0 and not speed["clear"]


def test_a_move_inside_the_base_spread_is_not_clear():
    base = [70.0, 80.0, 72.0, 78.0, 74.0, 76.0, 71.0, 79.0, 73.0, 77.0]
    change = [b - 1.0 for b in base]  # 10/10 wins, but 1 MB < the IQR
    rss = ab.summarize(_pairs(base, change), METRICS)["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 10 and not rss["clear"]
    eight = [b - 9.0 for b in base[:8]] + base[8:]  # 8/10 wins
    rss = ab.summarize(_pairs(base, eight), METRICS)["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 8 and not rss["clear"]


def test_run_wall_is_reported_per_side_and_never_gated():
    """Each side's raw ``run_wall_s`` median and quartile spread, and the
    change's wins, are printed beside the metrics with no verdict: they
    tell a drift of the calibration loop behind ``sim_s_per_loop`` from
    a slower run."""
    base = [2.30, 2.38, 2.41, 2.35, 2.39, 2.50, 2.36, 2.40, 2.33, 2.45]
    change = [2.20, 2.34, 2.43, 2.31, 2.37, 2.44, 2.38, 2.36, 2.30, 2.42]
    summary = ab.summarize(
        _pairs([1.0] * 10, [1.0] * 10, walls=list(zip(base, change))), METRICS
    )
    wall = summary["informational"]["run_wall_s"]
    assert wall["base_median"] == pytest.approx(2.385)
    assert wall["change_median"] == pytest.approx(2.365)
    assert wall["base_quartile_spread"] == pytest.approx(ab.quartile_spread(base))
    assert wall["change_quartile_spread"] == pytest.approx(
        ab.quartile_spread(change)
    )
    assert wall["wins"] == 8 and wall["pairs"] == 10
    assert "clear" not in wall
    assert "run_wall_s" not in summary["metrics"]
    line, = (
        line for line in ab.render("w", summary).splitlines()
        if "run_wall_s" in line
    )
    assert "informational, not gated" in line and "wins 8/10" in line
    assert "clear" not in line


def test_digest_mismatches_name_their_seeds():
    pairs = _pairs([1.0] * 3, [1.0] * 3, digests=["d", "e", "d"])
    assert ab.summarize(pairs, METRICS)["digest_mismatches"] == [601]


def test_snapshot_copies_what_a_child_needs(tmp_path):
    tree = tmp_path / "tree"
    (tree / "src" / "repro" / "__pycache__").mkdir(parents=True)
    (tree / "src" / "repro" / "__init__.py").write_text("")
    (tree / "src" / "repro" / "__pycache__" / "x.pyc").write_text("")
    (tree / "benchmarks" / "hostbench").mkdir(parents=True)
    (tree / "benchmarks" / "hostbench" / "child.py").write_text("")
    (tree / "tests").mkdir()
    copy = ab.snapshot(str(tree), tmp_path / "copy")
    assert (copy / "src" / "repro" / "__init__.py").is_file()
    assert (copy / ab.CHILD).is_file()
    assert not (copy / "src" / "repro" / "__pycache__").exists()
    assert not (copy / "tests").exists()


def test_metrics_come_from_the_benchmark_of_record():
    names = [m["name"] for m in ab.end_to_end_metrics()]
    assert names == ["setup_s", "sim_s_per_loop", "peak_rss_mb"]


def test_children_run_without_writing_bytecode(tmp_path, monkeypatch):
    """Every child compiles its imports: no ``__pycache__`` left by an
    earlier child shortens a later child's ``setup_s``."""
    calls = []

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs))
        return subprocess.CompletedProcess(argv, 0, json.dumps({"ok": 1}), "")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "")
    monkeypatch.setenv("AB_TEST_MARKER", "kept")
    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    assert ab.run_child(tmp_path, "hl_ycsb_peak", 601) == {"ok": 1}
    (argv, kwargs), = calls
    assert argv[-4:] == ["--workload", "hl_ycsb_peak", "--seed", "601"]
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert kwargs["env"]["AB_TEST_MARKER"] == "kept"
    assert ab.os.environ["PYTHONDONTWRITEBYTECODE"] == ""
