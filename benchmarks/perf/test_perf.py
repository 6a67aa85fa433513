"""Tests for the kernel microbenchmarks and their runner.

Run explicitly: ``python -m pytest benchmarks/perf`` (tier-1
``testpaths`` does not include this directory).

Nothing here looks at a wall-clock rate: every assertion is on a count
that repeats exactly on any machine (or, for ``parallel_execute``, a
ratio of simulated times), so a failure means the kernel's layer does
different work, never that the runner was slow.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from kernels import KERNELS

HERE = Path(__file__).resolve().parent

#: Unit and quick-size ``ops`` of each kernel. Sizes are the trajectory's
#: contract, and where ``ops`` is counted by the layer itself it is the
#: check: a dispatch change that skips or repeats an opcode moves the
#: EVM's step count, a dropped or doubly dispatched event the scheduler's.
EXPECTED = {
    "evm_cpuheavy": ("steps", 12_477),  # quicksort(24), three iterations
    "trie_puts": ("puts", 2_000),
    "block_commit": ("writes", 8 * 500),
    "replica_execute": ("tx", 4 * 6 * 100),
    "parallel_execute": ("tx", 6 * 200),
    "scheduler_events": ("events", 20_000 + 64),  # chained ticks + seeded timers
    "arrival_gen": ("draws", 200_000),
}


@pytest.fixture(scope="module")
def quick():
    """Every kernel's quick-size result, measured once for the module."""
    return {name: bench(True) for name, bench in KERNELS.items()}


# ---------------------------------------------------------------------------
# Kernels: machine-independent counts
# ---------------------------------------------------------------------------
def test_the_seven_kernels():
    assert list(KERNELS) == list(EXPECTED)


@pytest.mark.parametrize("name", EXPECTED)
def test_kernel_unit_ops_and_meta_keys(quick, name):
    result = quick[name]
    unit, ops = EXPECTED[name]
    assert (result.name, result.unit, result.ops) == (name, unit, ops)
    assert result.ops_per_s > 0
    # BENCH.json (full) and CI's artifact (quick) must stay comparable.
    assert KERNELS[name](False).meta.keys() == result.meta.keys()


@pytest.mark.parametrize("name", ["trie_puts", "block_commit"])
def test_batched_update_rewrites_shared_paths_once(quick, name):
    result = quick[name]
    assert result.meta["blocks"] > 0
    # Far fewer node writes than sequential puts would have made (one
    # full leaf-to-root path each): a regression to per-put rewrites
    # lands well above three per logical write.
    assert 0 < result.meta["node_writes"] < 3 * result.ops


def test_block_commit_counts_every_write(quick):
    meta = quick["block_commit"].meta
    assert quick["block_commit"].ops == meta["blocks"] * meta["writes_per_block"]


def test_replica_execute_applies_and_installs(quick):
    result = quick["replica_execute"]
    meta = result.meta
    assert result.ops == meta["replicas"] * meta["blocks"] * meta["txs_per_block"]
    # Root equality across replicas is checked inside the kernel. Every
    # commit of replicas 2..N, the preload's included, must be an
    # install of the first replica's record — not a second hashing.
    assert meta["commit_installs"] == (meta["replicas"] - 1) * (meta["blocks"] + 1)


def test_parallel_execute_schedules_and_captures(quick):
    result = quick["parallel_execute"]
    meta = result.meta
    assert result.ops == meta["blocks"] * meta["txs_per_block"]
    # Distinct-key transactions must schedule nearly embarrassingly
    # parallel on 4 workers (a ratio of simulated durations).
    assert meta["speedup_w4"] > 1.3
    # The recording overlay costs one dict probe per access; capture
    # must stay within a small constant factor of plain execution.
    assert meta["capture_overhead"] < 3.0


# ---------------------------------------------------------------------------
# Runner: driven as the script CI runs
# ---------------------------------------------------------------------------
def _run(*args, cwd):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


_ONE_QUICK = ("--quick", "--repeats", "1", "--only", "scheduler_events")


@pytest.mark.parametrize(
    "text", ["[1, 2, 3]", json.dumps({"results": ["nameless"]})]
)
def test_runner_rejects_wrong_shaped_baseline_before_running(tmp_path, text):
    """A baseline that parses as JSON but isn't a trajectory must fail
    with a message, not an AttributeError after the kernels ran."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    done = _run(*_ONE_QUICK, "--baseline", str(bad), cwd=tmp_path)
    assert done.returncode == 2
    assert "not a perf trajectory" in done.stderr
    assert "bench " not in done.stderr  # the per-kernel progress line


def test_runner_rejects_unknown_kernel(tmp_path):
    done = _run("--quick", "--only", "driver_tx", cwd=tmp_path)
    assert done.returncode == 2
    assert "unknown kernel(s) driver_tx" in done.stderr
    assert all(name in done.stderr for name in KERNELS)
    assert "bench " not in done.stderr


def test_runner_out_is_the_selected_results(tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"results": [
        {"name": "scheduler_events", "ops_per_s": 1.0},
    ]}))
    done = _run(*_ONE_QUICK, "--only", "trie_puts", "--baseline", str(base),
                "--out", "out.json", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "speedup" in done.stdout
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["schema"] == "blockbench-perf/1"
    assert payload["quick"] is True
    assert [r["name"] for r in payload["results"]] == [
        "scheduler_events", "trie_puts"
    ]
    assert "baseline" not in payload


def test_runner_writes_nothing_without_out(tmp_path):
    done = _run(*_ONE_QUICK, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "scheduler_events" in done.stdout
    assert list(tmp_path.iterdir()) == []
