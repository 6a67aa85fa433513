"""Runner for the kernel microbenchmarks (``kernels.py``).

    python benchmarks/perf/run.py [--quick] [--only NAME]... \\
        [--repeats N] [--out PATH] [--baseline PATH]

Prints one row per kernel, best of ``--repeats`` runs. ``--out`` writes
the rows as a ``blockbench-perf/1`` JSON document (nothing is written
without it); ``--baseline`` names an earlier such document and adds a
speedup column. The committed ``BENCH.json`` beside this file is the
latest full-size recording: a PR that moves a kernel overwrites it.

There is no gate here. A wall-clock floor against a file recorded on
another machine cannot fail for the right reason; the checks that are
exact on any machine live in ``test_perf.py``, and wall regressions are
hostbench's job (``benchmarks/hostbench/compare.py``).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# Run as a script, only this directory is on sys.path: add the package.
sys.path.insert(0, str(ROOT / "src"))

from kernels import KERNELS, BenchResult  # noqa: E402
from repro.core import format_table  # noqa: E402

#: Trajectory file schema identifier; bump on incompatible change.
SCHEMA = "blockbench-perf/1"


def run_kernels(names: list[str], quick: bool, repeats: int) -> list[BenchResult]:
    """Run the named kernels in order; best-of-``repeats`` per kernel."""
    results = []
    for name in names:
        runs = []
        for attempt in range(repeats):
            print(f"bench {name} [{attempt + 1}/{repeats}]", file=sys.stderr)
            runs.append(KERNELS[name](quick))
        results.append(max(runs, key=lambda run: run.ops_per_s))
    return results


def git_rev() -> str:
    """Short git revision ('-dirty' suffixed when the tree has edits)."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()

    try:
        dirty = "-dirty" if git("status", "--porcelain") else ""
        return git("rev-parse", "--short", "HEAD") + dirty
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_trajectory(path: str) -> dict:
    """Read and shape-check a previously written trajectory file.

    Raises :class:`ValueError` when the file cannot be read or is not a
    perf trajectory (wrong top-level type, or ``results`` not a list of
    named entries) — pointing ``--baseline`` at the wrong file must fail
    with a message, not an ``AttributeError`` deep in the comparison.
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load baseline {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(
            f"{path} is not a perf trajectory: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    results = data.get("results")
    if not isinstance(results, list) or not all(
        isinstance(entry, dict) and "name" in entry for entry in results
    ):
        raise ValueError(
            f"{path} is not a perf trajectory: 'results' must be a list "
            "of objects with a 'name' field"
        )
    return data


def speedup_rows(current: list[BenchResult], baseline: dict) -> list[list[str]]:
    """Baseline ops/s, current ops/s and their ratio, for shared kernels."""
    base_by_name = {entry["name"]: entry for entry in baseline["results"]}
    rows = []
    for result in current:
        base = base_by_name.get(result.name, {}).get("ops_per_s")
        if base:
            rows.append([result.name, f"{base:,.0f}", f"{result.ops_per_s:,.0f}",
                         f"{result.ops_per_s / base:.2f}x"])
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="kernel microbenchmarks (hostbench is the end-to-end one)"
    )
    parser.add_argument("--quick", action="store_true",
                        help="smaller problem sizes (CI smoke mode)")
    parser.add_argument("--only", action="append", default=[], metavar="NAME",
                        help="run only the named kernel (repeatable): "
                             + ", ".join(KERNELS))
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="take the best of N runs per kernel (default 3)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the results as JSON to PATH")
    parser.add_argument("--baseline", metavar="PATH",
                        help="print speedups against PATH's results")
    args = parser.parse_args(argv)

    # Checked before any kernel runs, so a mistyped name or a missing,
    # corrupt or wrong-shaped baseline fails at once and cleanly.
    try:
        unknown = [name for name in args.only if name not in KERNELS]
        if unknown:
            raise ValueError(f"unknown kernel(s) {', '.join(unknown)}; "
                             f"available: {', '.join(KERNELS)}")
        baseline = load_trajectory(args.baseline) if args.baseline else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    results = run_kernels(args.only or list(KERNELS), args.quick,
                          max(1, args.repeats))
    rev = git_rev()
    print(format_table(
        ["kernel", "throughput", "wall time"],
        [[r.name, f"{r.ops_per_s:,.0f} {r.unit}/s", f"{r.wall_time_s:.3f}s"]
         for r in results],
        title=f"kernels @ {rev}" + (" (quick)" if args.quick else ""),
    ))
    if baseline is not None:
        print(format_table(
            ["kernel", "baseline", "current", "speedup"],
            speedup_rows(results, baseline),
            title=f"vs baseline @ {baseline.get('git_rev', '?')}",
        ))
    if args.out:
        payload = {
            "schema": SCHEMA,
            "git_rev": rev,
            "python": platform.python_version(),
            "quick": args.quick,
            "results": [asdict(r) for r in results],
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
