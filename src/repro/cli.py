"""Command-line interface to the BLOCKBENCH framework.

Five subcommands cover the framework's day-to-day entry points:

``blockbench run``
    One macro-benchmark experiment (the Driver pipeline of Figure 4):
    pick a platform, a workload, cluster and client counts, and get the
    paper's metrics — throughput, latency percentiles, queue growth.

``blockbench suite``
    A declarative measurement campaign: a JSON scenario file expands
    into a grid of experiments (platform x workload x servers x rate x
    seed ...), runs it — optionally fanned out across CPU cores — and
    emits one merged summary (see ``repro.core.scenario``).

``blockbench attack``
    The Section 4.1.3 partition attack: split the network in half for a
    window and report the fork exposure (total vs main-branch blocks).

``blockbench report``
    Post-hoc analysis over a suite's ``--out-dir`` result store. The
    ``--bottleneck`` mode renders each run's lifecycle stage breakdown
    (submit → admit → propose → decide → execute → commit → notify,
    see ``repro.core.trace``) and names the dominant stage.

``blockbench list``
    The registered platforms, workloads, consensus protocols, and
    byzantine behaviors, each with a one-line description.

Examples
--------
::

    blockbench run --platform hyperledger --workload ycsb \
        --servers 8 --clients 8 --rate 256 --duration 60
    blockbench suite examples/scenarios/peak_sweep.json --processes 4
    blockbench attack --platform ethereum --start 100 --length 150
    blockbench report results/ --bottleneck
    blockbench list

Platform and workload names come from the plugin registries
(``repro.registry``); a backend registered by a third-party module is
immediately addressable from every subcommand.

``main`` returns an exit code instead of calling ``sys.exit`` so tests
(and other programs) can drive the CLI in-process.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from typing import Sequence

from .core import (
    ARRIVAL_PROCESSES,
    BYZANTINE_BEHAVIORS,
    ExperimentSpec,
    FaultSchedule,
    ByzantineFault,
    CrashFault,
    Driver,
    DriverConfig,
    ScenarioSuite,
    format_table,
    run_experiment,
    run_partition_attack,
)
from .errors import ReproError
from .registry import CONSENSUS, PLATFORMS, WORKLOADS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockbench",
        description="BLOCKBENCH: a framework for analyzing private blockchains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every option that sets an ExperimentSpec field has that field as
    # its dest: _cmd_run hands them to the spec by name.
    run = sub.add_parser("run", help="run one macro-benchmark experiment")
    run.add_argument(
        "--platform", choices=PLATFORMS.names(), default="hyperledger"
    )
    run.add_argument("--workload", choices=WORKLOADS.names(), default="ycsb")
    run.add_argument(
        "--servers", type=int, default=8, dest="n_servers", metavar="SERVERS"
    )
    run.add_argument(
        "--clients", type=int, default=8, dest="n_clients", metavar="CLIENTS"
    )
    run.add_argument(
        "--rate", type=float, default=100.0,
        dest="request_rate_tx_s", metavar="RATE",
        help="request rate per client (tx/s)",
    )
    run.add_argument(
        "--duration", type=float, default=30.0,
        dest="duration_s", metavar="DURATION", help="seconds",
    )
    run.add_argument("--seed", type=int, default=42)
    run.add_argument(
        "--poll-interval", type=float, metavar="S", dest="poll_interval_s",
        default=DriverConfig.poll_interval_s,
        help="getLatestBlock polling period per client "
             f"(default {DriverConfig.poll_interval_s:g}s)",
    )
    run.add_argument(
        "--threads", type=int, metavar="N", dest="threads_per_client",
        default=DriverConfig.threads_per_client,
        help="worker threads per client, one submission RPC in flight "
             f"each (default {DriverConfig.threads_per_client})",
    )
    run.add_argument(
        "--retry-interval", type=float, metavar="S", dest="retry_interval_s",
        default=DriverConfig.retry_interval_s,
        help="backoff before a rejected submission is retried "
             f"(default {DriverConfig.retry_interval_s:g}s)",
    )
    run.add_argument(
        "--blocking", action="store_true",
        help="one outstanding transaction per client (latency mode)",
    )
    run.add_argument(
        "--subscribe", action="store_true",
        help="confirm via the pub/sub block feed (ErisDB only)",
    )
    run.add_argument(
        "--crash", type=int, default=0, metavar="N",
        help="crash N servers at mid-run (Figure 9 style)",
    )
    run.add_argument(
        "--crash-at", type=float, metavar="S", default=None,
        help="crash time for --crash servers (default: duration/2)",
    )
    run.add_argument(
        "--recover-at", type=float, metavar="S", default=None,
        help="restart the crashed servers at S: they block-sync from "
             "live peers, replay, and rejoin consensus (requires --crash)",
    )
    run.add_argument(
        "--recovery-mode", choices=("warm", "cold"), default="warm",
        help="warm keeps the crashed node's state (sync the gap only); "
             "cold wipes it, forcing a full replay (default warm)",
    )
    run.add_argument(
        "--failover", action="store_true",
        help="clients fail over to the next live server when an RPC "
             "times out (deterministic exponential backoff; pairs "
             "naturally with --crash/--recover-at)",
    )
    run.add_argument(
        "--byzantine", type=int, default=0, metavar="N",
        help="make N servers byzantine for the middle half of the run",
    )
    run.add_argument(
        "--byzantine-behavior",
        choices=sorted(BYZANTINE_BEHAVIORS),
        default="equivocate",
        help="adversarial strategy for --byzantine (default equivocate)",
    )
    run.add_argument(
        "--arrival-process", choices=ARRIVAL_PROCESSES, default=None,
        help="switch to the open-loop driver: transactions arrive by "
             "this process at --arrival-rate regardless of back-pressure "
             "(closed-loop client knobs are ignored)",
    )
    run.add_argument(
        "--arrival-rate", type=float, metavar="TX_S", default=None,
        help="aggregate open-loop arrival rate (tx/s); requires "
             "--arrival-process",
    )
    run.add_argument(
        "--arrival-accounts", type=int, metavar="N", default=100_000,
        help="open-loop sender population size (default 100000)",
    )
    run.add_argument(
        "--arrival-zipf-s", type=float, metavar="S", default=0.0,
        help="Zipf skew over sender accounts (0 = uniform, default)",
    )
    run.add_argument(
        "--read-ratio", type=float, metavar="R", default=None,
        help="fraction of read operations in the workload mix (0..1); "
             "translated per-workload, rejected by fixed-mix workloads",
    )
    run.add_argument(
        "--exec-workers", type=int, metavar="W", default=1,
        help="modeled execution-engine workers for intra-block "
             "parallelism (default 1 = serial; results are "
             "byte-identical across W, only execution time shrinks)",
    )
    run.add_argument(
        "--stats-reservoir", type=int, metavar="K", default=0,
        help="cap per-collector latency samples at K via reservoir "
             "sampling (0 = unbounded, the default; see "
             "repro.core.stats for the percentile-accuracy tradeoff)",
    )
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument(
        "--export-dir", metavar="DIR",
        help="write plot-ready CSV series (summary, queue, CDF, commits)",
    )

    suite = sub.add_parser(
        "suite", help="run a declarative scenario suite from a JSON file"
    )
    suite.add_argument(
        "file", nargs="?",
        help="scenario file (see repro.core.scenario); "
             "not used with --compare",
    )
    suite.add_argument(
        "--processes", type=int, default=1, metavar="N",
        help="fan the grid out across N worker processes",
    )
    suite.add_argument(
        "--plugin", action="append", default=[], metavar="MODULE",
        help="import MODULE first so its registered platforms/workloads "
             "are available (repeatable)",
    )
    suite.add_argument(
        "--out-dir", metavar="DIR",
        help="persist each grid point to DIR/runs/<spec-hash>.json as it "
             "completes (plus a DIR/suite.json manifest)",
    )
    suite.add_argument(
        "--resume", action="store_true",
        help="skip grid points whose result file already exists in "
             "--out-dir — continue a killed campaign",
    )
    suite.add_argument(
        "--compare", nargs=2, metavar=("BASE", "CURRENT"),
        help="diff two --out-dir result directories aligned by spec "
             "hash instead of running anything; exit 1 on regression",
    )
    suite.add_argument(
        "--gc", action="store_true",
        help="instead of running, prune run files from --out-dir whose "
             "spec hashes are no longer in the scenario file's grid "
             "(stale points from an older grid shape)",
    )
    suite.add_argument(
        "--threshold", type=float, default=None, metavar="FRAC",
        help="--compare regression tolerance: fail a point whose "
             "throughput drops (or avg latency rises) by more than "
             "FRAC of base (default 0.05)",
    )
    suite.add_argument("--json", action="store_true", help="machine-readable output")
    suite.add_argument(
        "--export-dir", metavar="DIR",
        help="write the merged grid and per-run summaries as CSV",
    )

    attack = sub.add_parser(
        "attack", help="partition the network in half and measure forks"
    )
    attack.add_argument(
        "--platform", choices=PLATFORMS.names(), default="ethereum"
    )
    attack.add_argument("--servers", type=int, default=8)
    attack.add_argument("--clients", type=int, default=8)
    attack.add_argument("--rate", type=float, default=20.0)
    attack.add_argument("--start", type=float, default=100.0, help="attack start (s)")
    attack.add_argument("--length", type=float, default=150.0, help="attack length (s)")
    attack.add_argument(
        "--total", type=float, default=0.0,
        help="total run length (default: start + length + 100)",
    )
    attack.add_argument("--seed", type=int, default=42)
    attack.add_argument("--json", action="store_true")

    report = sub.add_parser(
        "report", help="analyze a suite's --out-dir result store"
    )
    report.add_argument(
        "dir",
        help="result directory written by 'blockbench suite --out-dir'",
    )
    report.add_argument(
        "--bottleneck", action="store_true",
        help="per-run lifecycle stage breakdown: where each "
             "transaction's end-to-end latency was spent, with the "
             "dominant stage marked",
    )
    report.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    sub.add_parser("list", help="list platforms and workloads")
    return parser


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_run(args: argparse.Namespace) -> int:
    if (args.crash_at is not None or args.recover_at is not None) and not args.crash:
        print(
            "error: --crash-at/--recover-at require --crash N",
            file=sys.stderr,
        )
        return 2
    faults = None
    if args.crash or args.byzantine:
        crashes = []
        byzantines = []
        if args.crash:
            crashes.append(
                CrashFault(
                    at_time=(
                        args.duration_s / 2
                        if args.crash_at is None
                        else args.crash_at
                    ),
                    count=args.crash,
                    recover_at=args.recover_at,
                    recovery_mode=args.recovery_mode,
                )
            )
        if args.byzantine:
            # Middle half of the run: long enough to bite, with healthy
            # lead-in and recovery phases on either side.
            byzantines.append(
                ByzantineFault(
                    at_time=args.duration_s / 4,
                    until_time=args.duration_s * 3 / 4,
                    behavior=args.byzantine_behavior,
                    count=args.byzantine,
                )
            )
        faults = FaultSchedule(crashes=crashes, byzantines=byzantines)
    arrival = None
    if args.arrival_process is not None:
        if args.arrival_rate is None:
            print(
                "error: --arrival-process requires --arrival-rate",
                file=sys.stderr,
            )
            return 2
        arrival = {
            "process": args.arrival_process,
            "rate": args.arrival_rate,
            "accounts": args.arrival_accounts,
            "zipf_s": args.arrival_zipf_s,
        }
    elif args.arrival_rate is not None:
        print(
            "error: --arrival-rate requires --arrival-process",
            file=sys.stderr,
        )
        return 2
    knobs = {f.name for f in fields(ExperimentSpec)}
    spec = ExperimentSpec(
        **{name: value for name, value in vars(args).items() if name in knobs},
        faults=faults,
        arrival=arrival,
        config_overrides=(
            {"exec_workers": args.exec_workers}
            if args.exec_workers != 1 else {}
        ),
    )
    result = run_experiment(spec)
    summary = result.summary
    if args.export_dir:
        from pathlib import Path

        from .core import (
            export_commit_series,
            export_latency_cdf,
            export_queue_series,
            export_summary,
            write_csv,
        )

        out = Path(args.export_dir)
        export_summary(out / "summary.csv", [summary])
        export_queue_series(out / "queue.csv", result.stats)
        export_latency_cdf(out / "latency_cdf.csv", result.stats)
        export_commit_series(out / "commits.csv", result.stats)
        write_csv(
            out / "run.csv",
            ["platform", "workload", "servers", "clients", "rate_tx_s",
             "duration_s", "seed"],
            [[spec.platform, spec.workload, spec.n_servers, spec.n_clients,
              spec.request_rate_tx_s, spec.duration_s, spec.seed]],
        )
        print(f"wrote CSV series to {out}/", file=sys.stderr)
    breakdown = summary.stage_breakdown
    if args.json:
        payload = {
            "platform": spec.platform,
            "workload": spec.workload,
            "servers": spec.n_servers,
            "clients": spec.n_clients,
            "rate_tx_s": spec.request_rate_tx_s,
            "duration_s": spec.duration_s,
            "throughput_tx_s": summary.throughput_tx_s,
            "latency_avg_s": summary.latency_avg_s,
            "latency_p50_s": summary.latency_p50_s,
            "latency_p99_s": summary.latency_p99_s,
            "submitted": summary.submitted,
            "confirmed": summary.confirmed,
            "chain_height": result.chain_height,
            "total_blocks": result.total_blocks,
            "main_branch_blocks": result.main_branch_blocks,
            "view_changes": result.view_changes,
            "safety_violations": result.safety_violations,
            "safety_report": result.safety_report,
        }
        if summary.recovery_time_s:
            payload["recovery_time_s"] = summary.recovery_time_s
            payload["sync_requests"] = summary.sync_requests
            payload["sync_blocks"] = summary.sync_blocks
            payload["sync_bytes"] = summary.sync_bytes
        payload["dominant_stage"] = breakdown.dominant_stage()
        payload["stage_breakdown"] = asdict(breakdown)
        print(json.dumps(payload))
        return 0
    rows = [
        ["throughput (tx/s)", f"{summary.throughput_tx_s:.1f}"],
        ["latency avg (s)", f"{summary.latency_avg_s:.3f}"],
        ["latency p50 (s)", f"{summary.latency_p50_s:.3f}"],
        ["latency p99 (s)", f"{summary.latency_p99_s:.3f}"],
        ["submitted", summary.submitted],
        ["confirmed", summary.confirmed],
        ["chain height", result.chain_height],
        ["fork blocks", result.total_blocks - result.main_branch_blocks],
        ["view changes", result.view_changes],
        [
            "chain safety",
            (
                "ok"
                if result.safety_violations == 0
                else f"{result.safety_violations} VIOLATIONS"
            ),
        ],
    ]
    for node_id in sorted(summary.recovery_time_s):
        rows.append(
            [f"recovery {node_id} (s)", f"{summary.recovery_time_s[node_id]:.2f}"]
        )
    if summary.recovery_time_s:
        rows.append(
            [
                "sync traffic",
                f"{summary.sync_blocks} blocks / {summary.sync_bytes} B "
                f"({summary.sync_requests} requests)",
            ]
        )
    if result.safety_violations and result.safety_report:
        for violation in result.safety_report["violations"][:5]:
            rows.append(
                [
                    f"  {violation['kind']} @h{violation['height']}",
                    ",".join(violation["nodes"]),
                ]
            )
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"{spec.platform} / {spec.workload}: {spec.n_servers} servers, "
                f"{spec.n_clients} clients @ {spec.request_rate_tx_s:g} tx/s "
                f"for {spec.duration_s:g}s"
            ),
        )
    )
    if breakdown.traced:
        from .core import bottleneck_table

        print()
        print(bottleneck_table(breakdown))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not args.bottleneck:
        print(
            "error: report needs a mode flag (currently: --bottleneck)",
            file=sys.stderr,
        )
        return 2
    from .core import StageBreakdown, bottleneck_table
    from .core.suitestore import SuiteStore

    runs = SuiteStore.load_runs(args.dir)
    entries = []
    for hash_, data in sorted(runs.items()):
        spec = data.get("spec", {})
        label = spec.get("label", "")
        name = f"{spec.get('platform', '?')}/{spec.get('workload', '?')}"
        if label:
            name += f" [{label}]"
        raw = data.get("summary", {}).get("stage_breakdown")
        breakdown = StageBreakdown.from_dict(raw) if raw is not None else None
        entries.append((hash_, name, breakdown))
    if args.json:
        payload = {
            "dir": args.dir,
            "runs": [
                {
                    "spec_hash": hash_,
                    "run": name,
                    "dominant_stage": (
                        breakdown.dominant_stage() if breakdown else None
                    ),
                    "stage_breakdown": (
                        asdict(breakdown) if breakdown else None
                    ),
                }
                for hash_, name, breakdown in entries
            ],
        }
        print(json.dumps(payload))
        return 0
    untraced = 0
    for hash_, name, breakdown in entries:
        if breakdown is None or not breakdown.traced:
            untraced += 1
            continue
        print(bottleneck_table(breakdown, title=f"{name} ({hash_})"))
        print()
    if untraced:
        print(
            f"{untraced} run(s) without a stage breakdown to show (a run "
            "file written before stage tracing, or no transaction traced "
            "end to end)",
            file=sys.stderr,
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    # Imported here so `blockbench list` works even if platform deps
    # grow heavier later; keeps CLI startup light.
    from .platforms import build_cluster
    from .workloads import DoNothingWorkload

    total = args.total or (args.start + args.length + 100.0)
    cluster = build_cluster(args.platform, args.servers, seed=args.seed)
    driver = Driver(
        cluster,
        DoNothingWorkload(),
        DriverConfig(
            n_clients=args.clients,
            request_rate_tx_s=args.rate,
            duration_s=total,
        ),
    )
    driver.prepare()
    driver.start(total)
    report = run_partition_attack(
        cluster,
        attack_start=args.start,
        attack_duration=args.length,
        total_duration=total,
    )
    cluster.close()
    last = report.samples[-1] if report.samples else None
    if args.json:
        print(
            json.dumps(
                {
                    "platform": args.platform,
                    "attack_start_s": args.start,
                    "attack_length_s": args.length,
                    "total_blocks": last.total_blocks if last else 0,
                    "main_branch_blocks": last.main_branch_blocks if last else 0,
                    "fork_blocks": report.final_fork_blocks(),
                    "fork_ratio": report.fork_ratio(),
                    "peak_fork_fraction": report.peak_fork_fraction(),
                }
            )
        )
        return 0
    rows = [
        ["total blocks", last.total_blocks if last else 0],
        ["main branch blocks", last.main_branch_blocks if last else 0],
        ["fork blocks", report.final_fork_blocks()],
        ["fork ratio (main/total)", f"{report.fork_ratio():.3f}"],
        ["peak fork fraction", f"{report.peak_fork_fraction():.3f}"],
    ]
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"partition attack on {args.platform}: "
                f"{args.start:g}s..{args.start + args.length:g}s of {total:g}s"
            ),
        )
    )
    return 0


def _cmd_suite_compare(args: argparse.Namespace) -> int:
    from .core.compare import DEFAULT_THRESHOLD, compare_suites

    base, current = args.compare
    threshold = (
        DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    )
    comparison = compare_suites(base, current, threshold=threshold)
    if args.json:
        print(json.dumps(comparison.to_json()))
    else:
        print(comparison.format())
    regressions = comparison.regressions()
    if regressions:
        print(
            f"suite compare FAILED: {len(regressions)} of "
            f"{len(comparison.deltas)} point(s) regressed beyond "
            f"{threshold:.1%}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    import importlib

    if args.compare:
        if args.file is not None:
            print(
                "error: --compare takes two result directories and no "
                "scenario file",
                file=sys.stderr,
            )
            return 2
        # Run-mode flags would be silently meaningless here; reject
        # them the same way --threshold is rejected in run mode.
        run_only = [
            ("--out-dir", args.out_dir),
            ("--resume", args.resume),
            ("--gc", args.gc),
            ("--export-dir", args.export_dir),
            ("--plugin", args.plugin),
            ("--processes", args.processes != 1),
        ]
        offending = [flag for flag, given in run_only if given]
        if offending:
            print(
                f"error: {', '.join(offending)} only apply when running "
                "a scenario file, not with --compare",
                file=sys.stderr,
            )
            return 2
        return _cmd_suite_compare(args)
    if args.file is None:
        print("error: a scenario file is required (or --compare)", file=sys.stderr)
        return 2
    if args.threshold is not None:
        print("error: --threshold only applies to --compare", file=sys.stderr)
        return 2
    if args.resume and not args.out_dir:
        print("error: --resume requires --out-dir", file=sys.stderr)
        return 2
    if args.gc and not args.out_dir:
        print("error: --gc requires --out-dir", file=sys.stderr)
        return 2
    if args.gc:
        # Nothing runs in gc mode; silently accepting run-mode flags
        # would let `--gc --resume` prune and exit 0 with the caller
        # believing the campaign also ran.
        gc_conflicts = [
            ("--resume", args.resume),
            ("--export-dir", args.export_dir),
            ("--processes", args.processes != 1),
        ]
        offending = [flag for flag, given in gc_conflicts if given]
        if offending:
            print(
                f"error: {', '.join(offending)} only apply when running "
                "a scenario file, not with --gc",
                file=sys.stderr,
            )
            return 2
    for module_name in args.plugin:
        try:
            importlib.import_module(module_name)
        except ImportError as exc:
            print(
                f"error: cannot import plugin {module_name!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    suite = ScenarioSuite.from_file(args.file)
    if args.gc:
        from pathlib import Path

        from .core.suitestore import SuiteStore, spec_hash

        # gc must never invent a store: a typo'd --out-dir would
        # otherwise be silently created empty and reported clean while
        # the real store keeps its stale files.
        if not (Path(args.out_dir) / "runs").is_dir():
            print(
                f"error: {args.out_dir} is not a suite result directory "
                "(no runs/ inside); expected the --out-dir of a previous "
                "'blockbench suite' run",
                file=sys.stderr,
            )
            return 2
        keep = {spec_hash(spec) for spec in suite.expand()}
        removed = SuiteStore(args.out_dir).gc(keep)
        payload = {
            "suite": suite.name,
            "kept": len(keep),
            "removed": [path.stem for path in removed],
        }
        if args.json:
            print(json.dumps(payload))
        else:
            for path in removed:
                print(f"removed stale run {path.name}", file=sys.stderr)
            print(
                f"suite {suite.name}: gc removed {len(removed)} stale run "
                f"file(s); grid has {len(keep)} point(s)"
            )
        return 0
    if args.processes > 1:
        total = len(suite.expand())
        print(
            f"suite {suite.name}: {total} runs across "
            f"{min(args.processes, total)} processes",
            file=sys.stderr,
        )
        result = suite.run(
            processes=args.processes,
            plugin_modules=args.plugin,
            out_dir=args.out_dir,
            resume=args.resume,
        )
    else:
        def progress(index: int, count: int, spec: ExperimentSpec) -> None:
            point = f"{spec.platform}/{spec.workload}"
            if spec.label:
                point += f" [{spec.label}]"
            print(
                f"[{index + 1}/{count}] {point}: {spec.n_servers} servers, "
                f"{spec.n_clients} clients @ {spec.request_rate_tx_s:g} tx/s",
                file=sys.stderr,
            )

        result = suite.run(
            progress=progress, out_dir=args.out_dir, resume=args.resume
        )
    if args.out_dir:
        executed = len(result.results) - result.resumed
        print(
            f"suite {result.name}: executed {executed}, resumed "
            f"{result.resumed} of {len(result.results)} runs "
            f"(results in {args.out_dir}/runs)",
            file=sys.stderr,
        )
    if args.export_dir:
        paths = result.export(args.export_dir)
        print(f"wrote {', '.join(p.name for p in paths)} to {args.export_dir}/",
              file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_json()))
    else:
        print(result.format())
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("platforms:")
    for name, spec in PLATFORMS.items():
        line = f"  {name}"
        if spec.description:
            line += f" — {spec.description.splitlines()[0]}"
        print(line)
    print("workloads:")
    for name, spec in WORKLOADS.items():
        line = f"  {name}"
        if spec.description:
            line += f" — {spec.description.splitlines()[0]}"
        print(line)
    print("consensus protocols:")
    for name, protocol_type in CONSENSUS.items():
        line = f"  {name}"
        doc = protocol_type.__doc__
        if doc:
            line += f" — {doc.strip().splitlines()[0]}"
        print(line)
    print("byzantine behaviors:")
    for name in sorted(BYZANTINE_BEHAVIORS):
        line = f"  {name}"
        doc = BYZANTINE_BEHAVIORS[name].__doc__
        if doc:
            line += f" — {doc.strip().splitlines()[0]}"
        print(line)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "suite": _cmd_suite,
    "attack": _cmd_attack,
    "report": _cmd_report,
    "list": _cmd_list,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns an exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
