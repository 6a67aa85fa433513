"""Declarative scenario suites: experiment grids as data, not scripts.

The paper's figures are all points in one big grid — platform x
workload x servers x clients x request rate x block size x fault
schedule (Sections 3-4). The seed re-implemented each figure's sweep
loop by hand; this module makes a sweep a *value*:

* :class:`ScenarioSpec` — one named grid. Every axis accepts a scalar
  or a list; ``expand()`` takes the cartesian product and yields one
  :class:`~repro.core.runner.ExperimentSpec` per point.
* :class:`ScenarioSuite` — an ordered set of scenarios, loadable from
  a JSON file (the ``blockbench suite`` subcommand). ``run()``
  executes the whole grid, optionally fanning out across CPU cores
  with :mod:`multiprocessing`, and merges everything into a
  :class:`SuiteResult`. With ``out_dir=`` every finished grid point is
  persisted to a content-addressed file as it completes, and
  ``resume=True`` skips points whose results already exist — a killed
  campaign picks up where it stopped (see
  :mod:`repro.core.suitestore`).
* :class:`SuiteResult` — the merged outcome, consumed by the existing
  export (CSV series) and report (ASCII table) layers, with
  ``one()``/``lookup()`` accessors so harnesses can ask for grid
  points by axis value instead of tracking loop indices.

A scenario file looks like::

    {
      "name": "peak-sweep",
      "scenarios": [
        {
          "name": "ycsb-peak",
          "platforms": ["hyperledger", "ethereum"],
          "workloads": "ycsb",
          "servers": 4,
          "rates": [50, 200],
          "durations": 20,
          "seeds": 42
        }
      ]
    }

Platform and workload names resolve through :mod:`repro.registry`, so
scenario files can sweep third-party backends too.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Sequence

from ..errors import BenchmarkError
from .export import export_summary, write_csv
from .faults import (
    BYZANTINE_BEHAVIORS,
    ByzantineFault,
    CorruptionFault,
    CrashFault,
    DelayFault,
    FaultSchedule,
    PartitionFault,
)
from .driver import DriverConfig
from .workload import ArrivalSpec
from .report import format_table
from .runner import ExperimentResult, ExperimentSpec, run_experiment
from .stats import StatsSummary
from .suitestore import SuiteStore

__all__ = [
    "ScenarioSpec",
    "ScenarioSuite",
    "SuiteResult",
    "build_fault_schedule",
]

_FAULT_TYPES = {
    "crashes": CrashFault,
    "delays": DelayFault,
    "corruptions": CorruptionFault,
    "partitions": PartitionFault,
    "byzantines": ByzantineFault,
}


def build_fault_schedule(spec: dict[str, Any]) -> FaultSchedule:
    """Turn a JSON-shaped fault dict into a fresh :class:`FaultSchedule`.

    ``{"crashes": [{"at_time": 15, "count": 2}]}`` and friends; a fresh
    schedule per run keeps the armed state from leaking across grid
    points.
    """
    unknown = set(spec) - set(_FAULT_TYPES)
    if unknown:
        raise BenchmarkError(
            f"unknown fault kinds {sorted(unknown)}; "
            f"expected {sorted(_FAULT_TYPES)}"
        )
    kwargs = {}
    for key, fault_type in _FAULT_TYPES.items():
        entries = spec.get(key, [])
        try:
            kwargs[key] = [fault_type(**entry) for entry in entries]
        except TypeError as exc:
            raise BenchmarkError(f"bad {key} entry: {exc}") from None
    for byzantine in kwargs["byzantines"]:
        if byzantine.behavior not in BYZANTINE_BEHAVIORS:
            raise BenchmarkError(
                f"unknown byzantine behavior {byzantine.behavior!r}; "
                f"expected one of {sorted(BYZANTINE_BEHAVIORS)}"
            )
    return FaultSchedule(**kwargs)


def _axis(value: Any, name: str) -> list:
    """Normalize a grid axis: scalar -> one-point axis, list -> list."""
    if isinstance(value, (list, tuple)):
        points = list(value)
        if not points:
            raise BenchmarkError(f"scenario axis {name!r} is empty")
        return points
    return [value]


def _overrides_label(overrides: dict[str, Any]) -> str:
    """Flatten an override dict into a grid-point label.

    ``{"pbft": {"batch_size": 250}}`` -> ``"pbft.batch_size=250"``;
    multiple knobs join with commas in sorted key order so the label
    (and anything keyed on it) is order-independent.
    """
    parts: list[str] = []

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for key in sorted(value):
                walk(f"{prefix}.{key}" if prefix else str(key), value[key])
        else:
            parts.append(f"{prefix}={value}")

    walk("", overrides)
    return ",".join(parts)


def _overrides_axis(
    overrides: dict[str, Any] | Sequence[dict[str, Any]] | None,
) -> list[dict[str, Any]]:
    """Normalize the ``overrides`` field to a one-dict-per-point axis."""
    if overrides is None:
        return [{}]
    if isinstance(overrides, dict):
        return [overrides]
    points = list(overrides)
    if not points:
        raise BenchmarkError("scenario axis 'overrides' is empty")
    for point in points:
        if not isinstance(point, dict):
            raise BenchmarkError(
                "each 'overrides' axis point must be an object of config "
                f"knobs; got {type(point).__name__}"
            )
    return points


def _faults_label(faults: dict[str, Any]) -> str:
    """Compact grid-point label for one faults-axis point.

    ``{"byzantines": [{..., "count": 2}]}`` -> ``"byz=equivocate:2"``;
    an empty dict (the healthy control point of a sweep) labels as
    ``"no-faults"`` so f=0 rows stay distinguishable.
    """
    parts: list[str] = []
    for crash in faults.get("crashes", []):
        count = crash.get("count")
        if count is None:
            count = len(crash.get("nodes") or []) or 1
        label = f"crash={count}"
        if crash.get("recover_at") is not None:
            # The crash time disambiguates recovery-vs-chain-height
            # sweeps, where only at_time/recover_at vary across points.
            label += (
                f"@{crash.get('at_time'):g}"
                f",recover={crash.get('recovery_mode', 'warm')}"
            )
        parts.append(label)
    for delay in faults.get("delays", []):
        parts.append(f"delay={delay.get('extra_s')}s")
    for corruption in faults.get("corruptions", []):
        parts.append(f"corrupt={corruption.get('rate')}")
    for _ in faults.get("partitions", []):
        parts.append("partition")
    for byzantine in faults.get("byzantines", []):
        count = byzantine.get("count")
        if count is None:
            count = len(byzantine.get("nodes") or []) or 1
        behavior = byzantine.get("behavior", "equivocate")
        parts.append(f"byz={behavior}:{count}")
    return ",".join(parts) or "no-faults"


def _faults_axis(
    faults: dict[str, Any] | Sequence[dict[str, Any]] | None,
) -> list[dict[str, Any] | None]:
    """Normalize the ``faults`` field to a one-dict-per-point axis.

    A single dict applies to every grid point (the historical shape); a
    list of dicts is an axis — one grid point per schedule, which is
    how "throughput vs number of byzantine nodes" sweeps are written.
    Each point is validated eagerly so a typo'd fault kind or behavior
    fails at expand time, not mid-campaign.
    """
    if faults is None:
        return [None]
    points: list[Any] = [faults] if isinstance(faults, dict) else list(faults)
    if not points:
        raise BenchmarkError("scenario axis 'faults' is empty")
    for point in points:
        if not isinstance(point, dict):
            raise BenchmarkError(
                "each 'faults' axis point must be a fault-schedule object; "
                f"got {type(point).__name__}"
            )
        build_fault_schedule(point)  # raises on bad shape/values
    return points


def _arrival_axis(
    arrival: dict[str, Any] | Sequence[dict[str, Any]] | None,
) -> list[dict[str, Any] | None]:
    """Normalize the ``arrival`` field to a one-spec-per-point axis.

    Each point is validated eagerly through ArrivalSpec so a typo'd
    process name fails at expand time, not mid-campaign.
    """
    if arrival is None:
        return [None]
    points: list[Any] = (
        [arrival] if isinstance(arrival, dict) else list(arrival)
    )
    if not points:
        raise BenchmarkError("scenario axis 'arrival' is empty")
    for point in points:
        ArrivalSpec.from_dict(point)  # raises on bad shape/values
    return points


@dataclass
class ScenarioSpec:
    """One named experiment grid over the paper's sweep axes.

    Every axis accepts either a scalar or a list of values; the grid is
    the cartesian product of all axes. ``clients=None`` (the default)
    pins clients to the servers axis point-by-point — the paper's
    "clients = servers" scalability setup (Figure 7).

    ``configs`` is a Python-API-only axis of ``(label, platform
    config)`` pairs for block-size-style knob sweeps (Figure 15);
    ``overrides`` is its JSON-expressible sibling — a platform-knob
    dict (or a list of them, making it an axis) applied on top of the
    platform's config per grid point, e.g.
    ``{"pbft": {"batch_size": 250}}``; ``faults`` is a JSON-shaped
    dict (see :func:`build_fault_schedule`) instantiated freshly for
    every grid point.
    """

    name: str = "scenario"
    platforms: Sequence[str] | str = ("hyperledger",)
    workloads: Sequence[str] | str = ("ycsb",)
    servers: Sequence[int] | int = (8,)
    clients: Sequence[int] | int | None = None
    rates: Sequence[float] | float = (100.0,)
    durations: Sequence[float] | float = (30.0,)
    seeds: Sequence[int] | int = (42,)
    #: Driver-knob axes (scalar or list, like every other axis): the
    #: getLatestBlock poll period, worker threads per client, and the
    #: rejected-submission retry backoff. Sweeping them turns client
    #: tuning (Section 3.3's "threads per client") into grid points.
    #: Defaults come from DriverConfig — the single source of truth.
    poll_intervals: Sequence[float] | float = (DriverConfig.poll_interval_s,)
    threads_per_client: Sequence[int] | int = (DriverConfig.threads_per_client,)
    retry_intervals: Sequence[float] | float = (DriverConfig.retry_interval_s,)
    #: Read-fraction axis (scalar or list): each point maps onto the
    #: workload's native mix knobs via ``Workload.read_ratio_params``
    #: (YCSB read/update proportions, Smallbank balance weight). None
    #: keeps each workload's native mix.
    read_ratios: Sequence[float] | float | None = None
    workload_params: dict[str, Any] = field(default_factory=dict)
    blocking: bool = False
    subscribe: bool = False
    #: Client-side failover on RPC timeout (crash-recovery scenarios);
    #: a scalar knob, not an axis. See DriverConfig.failover.
    failover: bool = False
    max_backoff_s: float = DriverConfig.max_backoff_s
    with_monitor: bool = False
    drain_s: float = 5.0
    #: JSON-shaped fault schedule (see :func:`build_fault_schedule`):
    #: one dict applies to every grid point; a list of dicts is an axis
    #: — one grid point per schedule, labelled compactly (e.g.
    #: ``byz=equivocate:2``) — which is how fault-tolerance sweeps like
    #: "throughput vs number of byzantine nodes" are expressed.
    faults: dict[str, Any] | Sequence[dict[str, Any]] | None = None
    configs: Sequence[tuple[str, Any]] | None = None
    #: Platform-config knob overrides, JSON-expressible: one dict
    #: applies to every grid point; a list of dicts is an axis (one
    #: grid point per dict, labelled from its flattened keys). Nested
    #: dicts address nested config dataclasses; see
    #: :func:`repro.config.apply_overrides`.
    overrides: dict[str, Any] | Sequence[dict[str, Any]] | None = None
    #: Open-loop arrival process: ``{"process": "poisson", "rate":
    #: 5000, "accounts": 100000, "zipf_s": 1.1}`` switches every grid
    #: point to the OpenLoopDriver; a list of such dicts is an axis.
    #: ``None`` (default) keeps the closed-loop clients.
    arrival: dict[str, Any] | Sequence[dict[str, Any]] | None = None
    #: Latency-sample reservoir bound for every grid point (0 = keep
    #: every sample). See StatsCollector.
    stats_reservoir: int = 0
    #: Record lifecycle stage timestamps (repro.core.trace) and attach
    #: a StageBreakdown to every grid point's summary. Not an axis: the
    #: timeline is identical either way, so sweeping it would duplicate
    #: grid points.
    trace_stages: bool = True

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Build a spec from JSON data, rejecting unknown keys."""
        known = {f.name for f in fields(cls)} - {"configs"}
        unknown = set(data) - known
        if unknown:
            raise BenchmarkError(
                f"unknown scenario keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
                + (
                    " (the 'configs' axis holds platform config objects "
                    "and is only available from the Python API)"
                    if "configs" in unknown
                    else ""
                )
            )
        return cls(**data)

    def expand(self) -> list[ExperimentSpec]:
        """Cartesian product of all axes, one ExperimentSpec per point."""
        # Imported here to trigger registration of the built-ins; the
        # registry itself is a leaf module.
        from ..registry import PLATFORMS, WORKLOADS
        from .. import platforms as _platforms  # noqa: F401
        from .. import workloads as _workloads  # noqa: F401

        for platform in _axis(self.platforms, "platforms"):
            PLATFORMS.get(platform)  # raises with available names
        for workload in _axis(self.workloads, "workloads"):
            WORKLOADS.get(workload)

        configs = list(self.configs) if self.configs is not None else [("", None)]
        overrides_axis = _overrides_axis(self.overrides)
        arrival_axis = _arrival_axis(self.arrival)
        faults_axis = _faults_axis(self.faults)
        clients_axis = (
            _axis(self.clients, "clients") if self.clients is not None else [None]
        )
        read_ratio_axis = (
            [float(v) for v in _axis(self.read_ratios, "read_ratios")]
            if self.read_ratios is not None
            else [None]
        )
        specs: list[ExperimentSpec] = []
        for platform, workload, (label, config), overrides, arrival, \
                fault_spec, servers, clients, rate, duration, seed, \
                poll_interval, threads, retry_interval, \
                read_ratio in itertools.product(
            _axis(self.platforms, "platforms"),
            _axis(self.workloads, "workloads"),
            configs,
            overrides_axis,
            arrival_axis,
            faults_axis,
            _axis(self.servers, "servers"),
            clients_axis,
            _axis(self.rates, "rates"),
            _axis(self.durations, "durations"),
            _axis(self.seeds, "seeds"),
            _axis(self.poll_intervals, "poll_intervals"),
            _axis(self.threads_per_client, "threads_per_client"),
            _axis(self.retry_intervals, "retry_intervals"),
            read_ratio_axis,
        ):
            # The overrides label only disambiguates when overrides
            # actually form an axis; a single campaign-wide dict would
            # just repeat the same text on every row.
            point_label = label
            if overrides and len(overrides_axis) > 1:
                olabel = _overrides_label(overrides)
                point_label = f"{label},{olabel}" if label else olabel
            if arrival is not None and len(arrival_axis) > 1:
                alabel = _overrides_label({"arrival": arrival})
                point_label = (
                    f"{point_label},{alabel}" if point_label else alabel
                )
            if fault_spec is not None and len(faults_axis) > 1:
                flabel = _faults_label(fault_spec)
                point_label = (
                    f"{point_label},{flabel}" if point_label else flabel
                )
            if read_ratio is not None and len(read_ratio_axis) > 1:
                rlabel = f"rr={read_ratio:g}"
                point_label = (
                    f"{point_label},{rlabel}" if point_label else rlabel
                )
            specs.append(
                ExperimentSpec(
                    platform=platform,
                    workload=workload,
                    workload_params=dict(self.workload_params),
                    n_servers=int(servers),
                    n_clients=int(servers if clients is None else clients),
                    request_rate_tx_s=float(rate),
                    duration_s=float(duration),
                    seed=int(seed),
                    poll_interval_s=float(poll_interval),
                    threads_per_client=int(threads),
                    retry_interval_s=float(retry_interval),
                    failover=self.failover,
                    max_backoff_s=self.max_backoff_s,
                    blocking=self.blocking,
                    subscribe=self.subscribe,
                    with_monitor=self.with_monitor,
                    faults=(
                        build_fault_schedule(fault_spec)
                        if fault_spec is not None
                        else None
                    ),
                    config=config,
                    config_overrides=dict(overrides),
                    arrival=dict(arrival) if arrival is not None else None,
                    stats_reservoir=self.stats_reservoir,
                    read_ratio=read_ratio,
                    trace_stages=self.trace_stages,
                    drain_s=self.drain_s,
                    scenario=self.name,
                    label=point_label,
                )
            )
        return specs


#: Axis aliases accepted by SuiteResult.lookup()/one(), mapping the
#: scenario-file vocabulary onto ExperimentSpec attribute names.
_LOOKUP_ALIASES = {
    "servers": "n_servers",
    "clients": "n_clients",
    "rate": "request_rate_tx_s",
    "duration": "duration_s",
    "poll_interval": "poll_interval_s",
    "threads": "threads_per_client",
    "retry_interval": "retry_interval_s",
}

GRID_HEADERS = [
    "scenario",
    "label",
    "platform",
    "workload",
    "servers",
    "clients",
    "rate",
    "seed",
    "tx/s",
    "lat avg (s)",
    "lat p99 (s)",
    "confirmed",
    "queue",
    "safety",
    "recovery",
]


def _recovery_cell(summary: StatsSummary) -> str:
    """Grid cell for the recovery column: worst per-node recovery time
    (and how many nodes recovered), or ``-`` when nothing did."""
    if not summary.recovery_time_s:
        return "-"
    worst = max(summary.recovery_time_s.values())
    n = len(summary.recovery_time_s)
    return f"{worst:.2f}s" if n == 1 else f"{n}x{worst:.2f}s"


@dataclass
class SuiteResult:
    """Merged outcome of a scenario-suite run."""

    name: str
    results: list[ExperimentResult]
    #: Grid points loaded from a result store instead of executed —
    #: non-zero only for ``run(out_dir=..., resume=True)``.
    resumed: int = 0

    @property
    def summaries(self) -> list[StatsSummary]:
        return [result.summary for result in self.results]

    def lookup(self, **criteria: Any) -> list[ExperimentResult]:
        """Results whose spec matches every ``axis=value`` criterion.

        Axes use scenario-file names: ``platform``, ``workload``,
        ``servers``, ``clients``, ``rate``, ``duration``, ``seed``,
        ``scenario``, ``label``.
        """
        matches = []
        for result in self.results:
            spec = result.spec
            for key, expected in criteria.items():
                attr = _LOOKUP_ALIASES.get(key, key)
                if not hasattr(spec, attr):
                    raise BenchmarkError(
                        f"unknown lookup axis {key!r}; expected one of "
                        f"{sorted([f.name for f in fields(ExperimentSpec)] + list(_LOOKUP_ALIASES))}"
                    )
                if getattr(spec, attr) != expected:
                    break
            else:
                matches.append(result)
        return matches

    def one(self, **criteria: Any) -> ExperimentResult:
        """The single result matching ``criteria`` (error otherwise)."""
        matches = self.lookup(**criteria)
        if len(matches) != 1:
            raise BenchmarkError(
                f"expected exactly one result for {criteria}; "
                f"found {len(matches)}"
            )
        return matches[0]

    def peak(
        self,
        key: Callable[[ExperimentResult], float] | None = None,
        **criteria: Any,
    ) -> ExperimentResult:
        """Best matching result (default: highest throughput)."""
        matches = self.lookup(**criteria)
        if not matches:
            raise BenchmarkError(f"no results match {criteria}")
        return max(matches, key=key or (lambda result: result.throughput))

    def to_rows(self) -> list[list[Any]]:
        """One grid row per run, aligned with :data:`GRID_HEADERS`."""
        rows = []
        for result in self.results:
            spec, summary = result.spec, result.summary
            rows.append(
                [
                    spec.scenario,
                    spec.label,
                    spec.platform,
                    spec.workload,
                    spec.n_servers,
                    spec.n_clients,
                    spec.request_rate_tx_s,
                    spec.seed,
                    f"{summary.throughput_tx_s:.1f}",
                    f"{summary.latency_avg_s:.3f}",
                    f"{summary.latency_p99_s:.3f}",
                    summary.confirmed,
                    summary.final_queue_length,
                    (
                        "ok"
                        if summary.safety_violations == 0
                        else f"{summary.safety_violations} VIOLATIONS"
                    ),
                    _recovery_cell(summary),
                ]
            )
        return rows

    def format(self) -> str:
        """Render the whole grid as one ASCII table."""
        return format_table(
            GRID_HEADERS,
            self.to_rows(),
            title=f"suite {self.name}: {len(self.results)} runs",
        )

    def to_json(self) -> dict[str, Any]:
        """Machine-readable merged summary (``blockbench suite --json``)."""
        runs = []
        for result in self.results:
            spec, summary = result.spec, result.summary
            runs.append(
                {
                    "scenario": spec.scenario,
                    "label": spec.label,
                    "platform": spec.platform,
                    "workload": spec.workload,
                    "servers": spec.n_servers,
                    "clients": spec.n_clients,
                    "rate_tx_s": spec.request_rate_tx_s,
                    "duration_s": spec.duration_s,
                    "seed": spec.seed,
                    "throughput_tx_s": summary.throughput_tx_s,
                    "latency_avg_s": summary.latency_avg_s,
                    "latency_p50_s": summary.latency_p50_s,
                    "latency_p99_s": summary.latency_p99_s,
                    "submitted": summary.submitted,
                    "confirmed": summary.confirmed,
                    "chain_height": result.chain_height,
                    "view_changes": result.view_changes,
                    "safety_violations": summary.safety_violations,
                }
            )
            breakdown = summary.stage_breakdown
            if breakdown is not None:
                runs[-1]["dominant_stage"] = breakdown.dominant_stage()
                runs[-1]["stage_breakdown"] = dataclasses.asdict(breakdown)
            if summary.recovery_time_s:
                runs[-1]["recovery_time_s"] = summary.recovery_time_s
                runs[-1]["sync_requests"] = summary.sync_requests
                runs[-1]["sync_blocks"] = summary.sync_blocks
                runs[-1]["sync_bytes"] = summary.sync_bytes
        return {"suite": self.name, "runs": len(runs), "results": runs}

    def export(self, directory: str | Path) -> list[Path]:
        """Write the merged grid + per-run summaries as plot-ready CSV."""
        out = Path(directory)
        return [
            write_csv(out / "grid.csv", GRID_HEADERS, self.to_rows()),
            export_summary(out / "summary.csv", self.summaries),
        ]


def _import_plugin_modules(module_names: tuple[str, ...]) -> None:
    """Pool-worker initializer: re-run plugin registration imports.

    Needed under spawn-based multiprocessing, where workers start from
    a fresh interpreter and only the built-in platforms/workloads are
    registered by the core imports.
    """
    import importlib

    for module_name in module_names:
        importlib.import_module(module_name)


@dataclass
class ScenarioSuite:
    """An ordered collection of scenarios run as one campaign."""

    scenarios: list[ScenarioSpec]
    name: str = "suite"

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSuite":
        """Accept ``{"scenarios": [...]}`` or a single scenario object."""
        if "scenarios" in data:
            extra = set(data) - {"name", "scenarios"}
            if extra:
                raise BenchmarkError(
                    f"unknown suite keys {sorted(extra)}; "
                    "expected 'name' and 'scenarios'"
                )
            scenarios = [ScenarioSpec.from_dict(s) for s in data["scenarios"]]
            if not scenarios:
                raise BenchmarkError("suite has no scenarios")
            return cls(scenarios=scenarios, name=data.get("name", "suite"))
        spec = ScenarioSpec.from_dict(data)
        return cls(scenarios=[spec], name=spec.name)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSuite":
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except FileNotFoundError:
            raise BenchmarkError(f"scenario file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise BenchmarkError(f"invalid JSON in {path}: {exc}") from None
        if not isinstance(data, dict):
            raise BenchmarkError(
                f"{path}: expected a JSON object, got {type(data).__name__}"
            )
        suite = cls.from_dict(data)
        if "name" not in data:
            suite.name = path.stem
        return suite

    def expand(self) -> list[ExperimentSpec]:
        """Every run in the suite, in scenario order."""
        specs: list[ExperimentSpec] = []
        for scenario in self.scenarios:
            specs.extend(scenario.expand())
        return specs

    def run(
        self,
        processes: int = 1,
        progress: Callable[[int, int, ExperimentSpec], None] | None = None,
        plugin_modules: Sequence[str] = (),
        out_dir: str | Path | None = None,
        resume: bool = False,
    ) -> SuiteResult:
        """Execute the full grid and merge the results.

        ``processes > 1`` fans runs out across CPU cores with
        :mod:`multiprocessing` (each run is an independent simulation,
        so the grid is embarrassingly parallel); results come back in
        grid order either way. ``progress`` is invoked before each
        executed run in serial mode, with the run's *grid* index.

        ``out_dir`` persists every finished grid point to
        ``out_dir/runs/<spec-hash>.json`` as soon as it completes
        (atomically, even under ``processes > 1``), so a killed
        campaign leaves a valid partial result directory behind.
        ``resume=True`` loads the points whose files already exist and
        executes only the missing ones; because the simulator is
        deterministic per seed, the merged result is identical to an
        uninterrupted run. See :mod:`repro.core.suitestore`.

        Third-party platforms/workloads register at import time of
        their defining module, which spawn-based multiprocessing (the
        default on macOS/Windows) does *not* re-run in workers. Pass
        those module names via ``plugin_modules`` so each worker
        imports them before its first run; the built-ins are always
        available.
        """
        if resume and out_dir is None:
            raise BenchmarkError("resume=True requires out_dir")
        store = SuiteStore(out_dir) if out_dir is not None else None
        specs = self.expand()
        results: list[ExperimentResult | None] = [None] * len(specs)
        pending: list[tuple[int, ExperimentSpec]] = []
        resumed = 0
        for index, spec in enumerate(specs):
            cached = store.load(spec) if (store and resume) else None
            if cached is not None:
                results[index] = cached
                resumed += 1
            else:
                pending.append((index, spec))
        if processes > 1 and len(pending) > 1:
            import multiprocessing

            workers = min(processes, len(pending))
            with multiprocessing.get_context().Pool(
                workers,
                initializer=_import_plugin_modules,
                initargs=(tuple(plugin_modules),),
            ) as pool:
                # imap (not map) so each result is persisted as it
                # arrives — a crash mid-campaign keeps what finished.
                for (index, _), result in zip(
                    pending, pool.imap(run_experiment, [s for _, s in pending])
                ):
                    if store is not None:
                        store.save(result)
                    results[index] = result
        else:
            for index, spec in pending:
                if progress is not None:
                    progress(index, len(specs), spec)
                result = run_experiment(spec)
                if store is not None:
                    store.save(result)
                results[index] = result
        suite_result = SuiteResult(
            name=self.name, results=results, resumed=resumed
        )
        if store is not None:
            store.write_manifest(suite_result)
        return suite_result
