"""Alternating parent/change pairs of hostbench runs.

    python benchmarks/ab.py --base REV_OR_DIR \\
        --workload NAME [--workload NAME]... --seeds 601-610 [--out FILE]

Runs the base tree's and this working tree's
``benchmarks/hostbench/child.py`` alternately, one pair per seed, the
two sides swapping order from pair to pair so drift on a shared host
falls on both. ``--base`` is a directory holding a checkout, or a git
revision of this repository, exported with ``git archive``. Both sides
are copied (``src/`` and ``benchmarks/hostbench/``) into a temporary
directory before the first run, so editing the tree mid-batch cannot
mix versions.

Every pair must report the same ``sim_digest``. For each end-to-end
metric ``BENCHMARK.json`` lists, the report gives both medians, the
change/base ratio, how many pairs the change won, and the base's
quartile spread; ``clear`` marks a metric whose change won at least
nine pairs in ten and whose median moved by more than that spread.
Below them, marked informational and never gated, each side's median
and quartile spread of the raw ``run_wall_s`` and the change's wins:
``sim_s_per_loop`` divides by a calibration loop timed around each run,
and the raw wall tells that loop's drift from a slower run.
Exit status: 0, or 1 when a digest differs or a child fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What a child needs from a tree: the simulator and hostbench itself.
TREE_PARTS = ("src", "benchmarks/hostbench")
CHILD = "benchmarks/hostbench/child.py"
CHILD_TIMEOUT_S = 300
#: Share of pairs the change must win for a ``clear`` verdict.
CLEAR_WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"601-603,610"`` -> ``[601, 602, 603, 610]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.strip().partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if not seeds:
        raise ValueError(f"no seeds in {text!r}")
    return seeds


def pair_order(index: int) -> tuple[str, str]:
    """Which side runs first in pair ``index``: base first on even pairs."""
    return ("base", "change") if index % 2 == 0 else ("change", "base")


def quartile_spread(values: list[float]) -> float:
    """Distance between the upper and lower quartile (0 for one value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def change_wins(base: float, change: float, better: str) -> bool:
    """Whether one pair's change value beats its base value strictly."""
    return change < base if better == "lower" else change > base


def compare(base: list[float], change: list[float], better: str) -> dict:
    """Medians, ratio, the change's wins and the base's quartile spread
    of one metric over pairs (``base[i]`` and ``change[i]`` are pair
    ``i``)."""
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    return {
        "better": better,
        "base_median": base_median,
        "change_median": change_median,
        "ratio": change_median / base_median if base_median else None,
        "wins": sum(map(change_wins, base, change, [better] * len(base))),
        "pairs": len(base),
        "base_quartile_spread": quartile_spread(base),
    }


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Fold pairs (``{"seed", "base", "change"}``, each side a child's
    JSON line) into per-metric statistics, the run wall's (no verdict)
    and the digest mismatches."""
    mismatches = [
        pair["seed"]
        for pair in pairs
        if pair["base"]["sim_digest"] != pair["change"]["sim_digest"]
    ]
    rows = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        row = compare(
            [pair["base"]["end_to_end"][name] for pair in pairs],
            [pair["change"]["end_to_end"][name] for pair in pairs],
            better,
        )
        row["clear"] = (
            row["wins"] >= CLEAR_WIN_SHARE * len(pairs)
            and change_wins(row["base_median"], row["change_median"], better)
            and abs(row["change_median"] - row["base_median"])
            > row["base_quartile_spread"]
        )
        rows[name] = row
    change_wall = [pair["change"]["run_wall_s"] for pair in pairs]
    wall = compare(
        [pair["base"]["run_wall_s"] for pair in pairs], change_wall, "lower"
    )
    wall["change_quartile_spread"] = quartile_spread(change_wall)
    return {
        "digest_mismatches": mismatches,
        "metrics": rows,
        "informational": {"run_wall_s": wall},
    }


def render(workload: str, summary: dict) -> str:
    lines = [f"== {workload}"]
    for name, row in summary["metrics"].items():
        ratio = "n/a" if row["ratio"] is None else f"x{row['ratio']:.3f}"
        lines.append(
            f"   {name:16s} {row['base_median']:10.4g} -> "
            f"{row['change_median']:10.4g}  {ratio:8s} "
            f"wins {row['wins']}/{row['pairs']}  "
            f"base IQR {row['base_quartile_spread']:.4g}"
            + ("  clear" if row["clear"] else "")
        )
    for name, row in summary["informational"].items():
        lines.append(
            f"   {name:16s} {row['base_median']:10.4g} -> "
            f"{row['change_median']:10.4g}  "
            f"wins {row['wins']}/{row['pairs']}  "
            f"IQR base {row['base_quartile_spread']:.4g} / "
            f"change {row['change_quartile_spread']:.4g}  "
            "(informational, not gated)"
        )
    mismatches = summary["digest_mismatches"]
    lines.append(
        "   sim_digest: equal on every pair" if not mismatches
        else f"   sim_digest DIFFERS on seeds {mismatches}"
    )
    return "\n".join(lines)


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics of the benchmark of record."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def snapshot(source: str, into: Path) -> Path:
    """Copy the parts a child needs from a directory, or export them
    from a git revision of this repository, into ``into``."""
    path = Path(source)
    if path.is_dir():
        for part in TREE_PARTS:
            shutil.copytree(
                path / part, into / part,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        return into
    done = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", source, *TREE_PARTS],
        capture_output=True, check=True,
    )
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_child(tree: Path, workload: str, seed: int) -> dict:
    """One repetition in a fresh interpreter; its JSON line, parsed.

    Bytecode writing is off, so every child compiles what it imports:
    a cache left by the first child would drop compile time from the
    ``setup_s`` of every later one, on one side more than the other.
    """
    done = subprocess.run(
        [sys.executable, str(tree / CHILD), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{tree} child for {workload} seed {seed} exited "
            f"{done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--base", required=True,
                        help="a checkout directory or a git revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="hostbench workload; repeatable")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair per seed, e.g. 601-610")
    parser.add_argument("--out", metavar="FILE",
                        help="write every pair and summary as JSON")
    args = parser.parse_args(argv)
    metrics = end_to_end_metrics()

    document: dict = {"base": args.base, "workloads": {}}
    failed = False
    with tempfile.TemporaryDirectory(prefix="ab-") as workdir:
        trees = {
            side: snapshot(source, Path(workdir) / side)
            for side, source in (("base", args.base), ("change", str(ROOT)))
        }
        for workload in args.workload:
            pairs = []
            for index, seed in enumerate(args.seeds):
                pair: dict = {"seed": seed}
                for side in pair_order(index):
                    try:
                        pair[side] = run_child(trees[side], workload, seed)
                    except (RuntimeError, subprocess.TimeoutExpired) as exc:
                        print(f"ab: {exc}", file=sys.stderr)
                        return 1
                pairs.append(pair)
                print(
                    f"   {workload} seed {seed}: "
                    f"{pair['base']['sim_digest'][:12]} / "
                    f"{pair['change']['sim_digest'][:12]}",
                    flush=True,
                )
            summary = summarize(pairs, metrics)
            failed = failed or bool(summary["digest_mismatches"])
            document["workloads"][workload] = {"pairs": pairs} | summary
            print(render(workload, summary), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
