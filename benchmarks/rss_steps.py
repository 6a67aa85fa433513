"""Which step of one hostbench run sets its memory high-water mark.

    python benchmarks/rss_steps.py WORKLOAD SEED [--sim-seconds S]

Drives one ``benchmarks/hostbench/child.py`` run in this interpreter
(the child's own JSON line is discarded) with the steps below wrapped
from outside, and prints one line per call: the high-water mark
(``ru_maxrss``) before and after the call, what the call added to it,
the current RSS right after it (``/proc/self/statm``, where it exists)
and the call's wall time. A step that raises the mark is what sets
``peak_rss_mb``; a current RSS close to the mark after a later step
says that step binds too.

The steps: the preload (``preload_state``, wrapped where the YCSB and
Smallbank workloads import it), the run (``Cluster.run_until``), the
report (both drivers' ``_collect``, ``StatsCollector.summary``,
``StageTracer.breakdown``), ``Cluster.close`` and the child's own
``calibrate`` loop, timed once before the run and once after it.
Nothing is written; the child is imported, not edited.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HOSTBENCH = ROOT / "benchmarks" / "hostbench"
STATM = Path("/proc/self/statm")


def peak_mb() -> float:
    """This process's RSS high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def current_mb() -> float | None:
    """This process's resident set right now, or None without procfs."""
    try:
        resident = int(STATM.read_text().split()[1])
    except OSError:
        return None
    return resident * os.sysconf("SC_PAGE_SIZE") / 2**20


def watch(owner, name: str, label: str, out) -> None:
    """Replace ``owner.name`` with a wrapper that prints one step line
    to ``out``."""
    original = getattr(owner, name)

    def wrapped(*args, **kwargs):
        before = peak_mb()
        began = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            wall_ms = (perf_counter() - began) * 1e3
            after = peak_mb()
            now = current_mb()
            print(f"{label:28s} peak {before:7.2f} -> {after:7.2f} MB "
                  f"({after - before:+.2f})  current "
                  f"{'-' if now is None else f'{now:.2f}':>7s} MB  "
                  f"{wall_ms:9.1f} ms", file=out, flush=True)

    setattr(owner, name, wrapped)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--sim-seconds", type=float,
                        help="shorten the run (passed to the child)")
    args = parser.parse_args(argv)

    # As CI's hostbench jobs run their children: nothing cached on disk.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HOSTBENCH), str(ROOT / "src")]
    import child
    from repro.core.driver import Driver, OpenLoopDriver
    from repro.core.stats import StatsCollector
    from repro.core.trace import StageTracer
    from repro.platforms.cluster import Cluster
    from repro.workloads import smallbank, ycsb

    for owner, name, label in (
        (ycsb, "preload_state", "ycsb.preload_state"),
        (smallbank, "preload_state", "smallbank.preload_state"),
        (Cluster, "run_until", "Cluster.run_until"),
        (Driver, "_collect", "Driver._collect"),
        (OpenLoopDriver, "_collect", "OpenLoopDriver._collect"),
        (StatsCollector, "summary", "StatsCollector.summary"),
        (StageTracer, "breakdown", "StageTracer.breakdown"),
        (Cluster, "close", "Cluster.close"),
        (child, "calibrate", "child.calibrate"),
    ):
        watch(owner, name, label, sys.stdout)

    child_argv = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.sim_seconds is not None:
        child_argv += ["--sim-seconds", str(args.sim_seconds)]
    print(f"{args.workload} seed {args.seed}: start, peak {peak_mb():.2f} MB",
          flush=True)
    with contextlib.redirect_stdout(io.StringIO()):
        status = child.main(child_argv)
    print(f"{args.workload} seed {args.seed}: end, peak {peak_mb():.2f} MB",
          flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
