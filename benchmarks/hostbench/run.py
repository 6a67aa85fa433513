"""hostbench: the end-to-end benchmark of record for the simulator.

    PYTHONPATH=src python benchmarks/hostbench/run.py \\
        [--workload NAME]... [--seed 5] [--reps 3 | --seconds S] \\
        [--trace] [--out FILE] [--selfcheck]

Six whole-``run_experiment`` workloads, two clocks (see README.md).
Prints every end-to-end metric by name with its unit, runs the
correctness checks and exits non-zero if one fails. With ``--trace`` a
separate traced repetition adds the per-layer block.

Each repetition is a fresh child interpreter (``child.py``), strictly
one at a time: the simulator is single-threaded, so the load generator
is one process, one thread, no sockets. Host metrics are medians over
the repetitions; sim metrics must be identical across them.

After the tables, one JSON line per workload carries ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
``BENCHMARK.json`` lists, or with ``--trace`` its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import compare
from metrics import BY_NAME, DRIVER_END_TO_END, END_TO_END, PAPER_RATIO, PER_LAYER
from workloads import PAPER_PEAK_TX_S, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The contract allows a run 180 s; a child that takes longer is hung.
CHILD_TIMEOUT_S = 150
HOST = [m.name for m in END_TO_END if m.clock == "host"]
SIM = [m.name for m in END_TO_END if m.clock == "sim"]


def run_child(workload: str, seed: int, trace: bool = False,
              spans_out: str | None = None) -> dict:
    """One repetition in a fresh interpreter; its JSON line, parsed."""
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed)]
    if trace:
        command.append("--trace")
        if spans_out:
            command += ["--spans-out", spans_out]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(
            f"child for {workload} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, reps: int | None, seconds: float | None,
            trace: bool, spans_out: str | None = None) -> dict:
    """Run one workload's repetitions and fold them into one record.

    ``reps`` fixes the number of untraced repetitions; ``seconds``
    instead starts repetitions until that much wall time has gone by
    (at least two beside a traced one, whose overhead ratio and wall
    spread need them).
    """
    began = perf_counter()
    traced = run_child(workload, seed, True, spans_out) if trace else None
    runs: list[dict] = []

    def more() -> bool:
        if reps is not None:
            return len(runs) < reps
        return perf_counter() - began < seconds or len(runs) < (2 if trace else 1)

    while more():
        runs.append(run_child(workload, seed))

    everyone = runs + ([traced] if traced else [])
    failed_checks = [
        f"rep {i}: {check}"
        for i, run in enumerate(everyone)
        for check in run["failed_checks"]
    ]
    first = runs[0]
    for i, run in enumerate(everyone):
        if run["sim_digest"] != first["sim_digest"]:
            kind = "traced rep" if run["traced"] else f"rep {i}"
            failed_checks.append(
                f"{kind}: sim_digest {run['sim_digest'][:12]} != "
                f"rep 0's {first['sim_digest'][:12]}"
            )
    failed_runs = sum(
        bool(run["failed_checks"]) or run["sim_digest"] != first["sim_digest"]
        for run in everyone
    )

    def median(name: str) -> float:
        return statistics.median(run["end_to_end"][name] for run in runs)

    def spread(values: list[float]) -> float:
        middle = statistics.median(values)
        return (max(values) - min(values)) / middle if middle else 0.0

    record = {
        "workload": workload,
        "seed": seed,
        "reps": len(runs),
        "sim_digest": first["sim_digest"],
        "correct": not failed_checks,
        "failed_checks": failed_checks,
        "attempted": len(everyone),
        "failed": failed_runs,
        "submitted": first["submitted"],
        "rejected": first["rejected"],
        "confirmed": first["confirmed"],
        # Sim metrics repeat exactly (the digest check above enforces
        # it), so rep 0 speaks for all; host metrics are medians.
        "end_to_end": {name: median(name) for name in HOST}
        | {name: first["end_to_end"][name] for name in SIM},
        "spread": {
            name: spread([run["end_to_end"][name] for run in runs]) for name in HOST
        },
        "raw": [
            {key: run[key] for key in ("run_wall_s", "import_s", "calib_s")}
            | run["end_to_end"]
            for run in runs
        ],
    }
    if traced:
        walls = [run["run_wall_s"] for run in runs]
        wall = statistics.median(walls)
        paper = PAPER_PEAK_TX_S.get(workload)
        record["per_layer"] = traced["per_layer"] | {
            "trace.overhead_ratio": traced["run_wall_s"] / wall,
            "run.wall_s": wall,
            "run.wall_spread": spread(walls),
            "run.import_s": statistics.median(run["import_s"] for run in runs),
            "run.confirmed": first["confirmed"],
            # Open-loop arrivals are simulated-clock events, so the
            # generator cannot run late: 0 by construction.
            "run.generator_lag_s": 0,
            PAPER_RATIO: (
                first["end_to_end"]["sim_tput_tx_s"] / paper if paper else None
            ),
        }
        record["missing_entry_points"] = traced["missing_entry_points"]
        unexpected = set(record["per_layer"]) ^ (set(PER_LAYER) | {PAPER_RATIO})
        if unexpected:
            raise RuntimeError(f"per-layer metrics out of step: {sorted(unexpected)}")
    return record


def render(record: dict) -> str:
    """The human-readable block for one workload."""
    lines = [
        f"== {record['workload']}  seed {record['seed']}  "
        f"{record['reps']} rep(s)  sim_digest {record['sim_digest'][:16]}",
        f"   submitted / rejected / confirmed = {record['submitted']} / "
        f"{record['rejected']} / {record['confirmed']}",
    ]
    for metric in END_TO_END:
        value = record["end_to_end"][metric.name]
        note = (
            f"spread {record['spread'][metric.name]:.3f}"
            if metric.clock == "host" else "exact"
        )
        lines.append(
            f"   {metric.name:18s} {value:14.6g} {metric.unit:9s} "
            f"{metric.clock:4s} {metric.better:6s} {note}"
        )
    layers = record.get("per_layer")
    if layers:
        lines.append("   layer                   self_s    share      calls")
        shares = sorted(
            (name[:-6] for name in layers if name.endswith(".share")),
            key=lambda layer: -layers[f"{layer}.share"],
        )
        for layer in shares:
            lines.append(
                f"   {layer:20s} {layers[f'{layer}.self_s']:9.3f} "
                f"{layers[f'{layer}.share']:8.4f} {layers[f'{layer}.calls']:10d}"
            )
        for name, value in layers.items():
            if not name.endswith((".self_s", ".share", ".calls")):
                unit = PER_LAYER.get(name, ("ratio",))[0]
                shown = (
                    "null" if value is None
                    else str(value) if isinstance(value, int) else f"{value:.6g}"
                )
                lines.append(f"   {name:36s} {shown:>14s} {unit}")
        for name in record["missing_entry_points"]:
            lines.append(f"   missing entry point: {name}")
    checks = "ok" if record["correct"] else "; ".join(record["failed_checks"])
    lines.append(f"   checks: {checks}")
    return "\n".join(lines)


def result_line(record: dict, trace: bool) -> str:
    """The machine-readable line: exactly what BENCHMARK.json lists."""
    if trace:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": BY_NAME[name].unit}
            for name in DRIVER_END_TO_END
        }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_set(args: argparse.Namespace) -> dict:
    """Measure every selected workload; the result document."""
    document = {
        "schema": "hostbench/1",
        "meta": {
            "seed": args.seed,
            "reps": args.reps,
            "seconds": args.seconds,
            "traced": bool(args.trace),
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "workloads": {},
    }
    for name in args.workload:
        record = measure(name, args.seed, args.reps, args.seconds,
                         bool(args.trace), args.spans_out)
        document["workloads"][name] = record
        print(render(record), flush=True)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all six")
    parser.add_argument("--seed", type=int, default=5,
                        help="reaches ExperimentSpec.seed and nothing else")
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--reps", type=int,
                        help="untraced repetitions per workload (default 3)")
    length.add_argument("--seconds", type=float,
                        help="instead of --reps: start repetitions for this long")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="add a traced repetition")
    parser.add_argument("--spans-out", metavar="FILE",
                        help="with --trace: dump the first spans as JSON lines")
    parser.add_argument("--out", metavar="FILE", help="write the result document")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the set twice and compare the two")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    if args.reps is None and args.seconds is None:
        args.reps = 3
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"hostbench: no simulator at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    document = run_set(args)
    records = list(document["workloads"].values())
    correct = all(record["correct"] for record in records)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    if args.selfcheck:
        print("-- selfcheck: second pass", flush=True)
        second = run_set(args)
        rows = compare.compare(document, second)
        print(compare.render(rows))
        bad = {
            v: compare.count(rows, v) for v in ("regressed", "unresolved", "changed")
        }
        print("selfcheck: " + ", ".join(f"{n} {v}" for v, n in bad.items()))
        correct = correct and not any(bad.values())
        correct = correct and all(r["correct"] for r in second["workloads"].values())
    print("hostbench: " + ("all checks passed" if correct else "CHECKS FAILED"))
    for record in records:
        print(result_line(record, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
