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

import copy
import itertools
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Sequence

from ..config import check_value
from ..errors import BenchmarkError
from ..registry import PLATFORMS, WORKLOADS
from .export import export_summary, write_csv
from .faults import ByzantineFault, CrashFault, FaultSchedule, build_fault_schedule
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


def _victims(fault: CrashFault | ByzantineFault) -> int:
    return fault.count if fault.count is not None else len(fault.nodes or []) or 1


def _faults_label(faults: FaultSchedule) -> str:
    """Compact grid-point label for one faults-axis point.

    Two equivocating replicas -> ``"byz=equivocate:2"``; an empty
    schedule (the healthy control point of a sweep) labels as
    ``"no-faults"`` so f=0 rows stay distinguishable.
    """
    parts: list[str] = []
    for crash in faults.crashes:
        label = f"crash={_victims(crash)}"
        if crash.recover_at is not None:
            # The crash time disambiguates recovery-vs-chain-height
            # sweeps, where only at_time/recover_at vary across points.
            label += f"@{crash.at_time:g},recover={crash.recovery_mode}"
        parts.append(label)
    parts += [f"delay={delay.extra_s}s" for delay in faults.delays]
    parts += [f"corrupt={corruption.rate}" for corruption in faults.corruptions]
    parts += ["partition" for _ in faults.partitions]
    parts += [f"byz={b.behavior}:{_victims(b)}" for b in faults.byzantines]
    return ",".join(parts) or "no-faults"


# ---------------------------------------------------------------------------
# The axis table
# ---------------------------------------------------------------------------
def _typed(hint: type) -> Callable[[Any, str], Any]:
    """Axis points of one JSON scalar type (an int is a float)."""

    def point(value: Any, key: str) -> Any:
        check_value(value, hint, f"scenario axis {key!r}")
        return hint(value)

    return point


def _registered(registry: Any) -> Callable[[Any, str], Any]:
    """Axis points naming a registry entry."""

    def point(value: Any, key: str) -> Any:
        check_value(value, str, f"scenario axis {key!r}")
        registry.get(value)  # raises with the available names
        return value

    return point


def _object(value: Any, key: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise BenchmarkError(
            f"each {key!r} axis point must be an object; got {value!r}"
        )
    return value


def _arrival(value: Any, key: str) -> dict[str, Any]:
    ArrivalSpec.from_dict(value)  # raises on bad shape/values
    return value


def _faults(value: Any, key: str) -> FaultSchedule:
    return build_fault_schedule(_object(value, key))


@dataclass(frozen=True)
class _Axis:
    """One sweep axis of :class:`ScenarioSpec`."""

    #: ScenarioSpec field, and the scenario-JSON key.
    key: str
    #: The ExperimentSpec field each point sets.
    field: str
    #: Validates and coerces one point, naming the axis on error.
    point: Callable[[Any, str], Any]
    #: Grid-point label, used when the axis has more than one point.
    label: Callable[[Any], str] | None = None
    #: The name SuiteResult.lookup()/one() accept for ``field``.
    lookup: str | None = None


#: Every axis, in grid order: ``expand`` takes the cartesian product in
#: this order, so it fixes the order of the expanded specs.
_AXES = (
    _Axis("platforms", "platform", _registered(PLATFORMS)),
    _Axis("workloads", "workload", _registered(WORKLOADS)),
    _Axis("overrides", "config_overrides", _object, _overrides_label),
    _Axis("arrival", "arrival", _arrival,
          lambda arrival: _overrides_label({"arrival": arrival})),
    _Axis("faults", "faults", _faults, _faults_label),
    _Axis("servers", "n_servers", _typed(int), lookup="servers"),
    _Axis("clients", "n_clients", _typed(int), lookup="clients"),
    _Axis("rates", "request_rate_tx_s", _typed(float), lookup="rate"),
    _Axis("durations", "duration_s", _typed(float), lookup="duration"),
    _Axis("seeds", "seed", _typed(int)),
    _Axis("poll_intervals", "poll_interval_s", _typed(float),
          lookup="poll_interval"),
    _Axis("threads_per_client", "threads_per_client", _typed(int),
          lookup="threads"),
    _Axis("retry_intervals", "retry_interval_s", _typed(float),
          lookup="retry_interval"),
    _Axis("read_ratios", "read_ratio", _typed(float),
          lambda ratio: f"rr={ratio:g}"),
)

#: SuiteResult.lookup() names that differ from the ExperimentSpec field.
_LOOKUP = {axis.lookup: axis.field for axis in _AXES if axis.lookup}


@dataclass
class ScenarioSpec:
    """One named experiment grid over the paper's sweep axes.

    Every axis accepts either a scalar or a list of values; the grid is
    the cartesian product of all axes (see ``_AXES``). ``clients=None``
    (the default) pins clients to the servers axis point-by-point — the
    paper's "clients = servers" scalability setup (Figure 7).

    ``overrides`` is a platform-knob dict (or a list of them, making it
    an axis) applied on top of the platform's config per grid point,
    e.g. ``{"pbft": {"batch_size": 250}}``; ``faults`` is a JSON-shaped
    dict (see :func:`build_fault_schedule`) instantiated freshly for
    every grid point. The non-axis fields that share a name with an
    ExperimentSpec field are copied into every grid point.
    """

    name: str = "scenario"
    platforms: Sequence[str] | str = (ExperimentSpec.platform,)
    workloads: Sequence[str] | str = (ExperimentSpec.workload,)
    servers: Sequence[int] | int = (ExperimentSpec.n_servers,)
    clients: Sequence[int] | int | None = None
    rates: Sequence[float] | float = (ExperimentSpec.request_rate_tx_s,)
    durations: Sequence[float] | float = (30.0,)
    seeds: Sequence[int] | int = (ExperimentSpec.seed,)
    #: Driver-knob axes: the getLatestBlock poll period, worker threads
    #: per client, and the rejected-submission retry backoff. Sweeping
    #: them turns client tuning (Section 3.3's "threads per client")
    #: into grid points.
    poll_intervals: Sequence[float] | float = (ExperimentSpec.poll_interval_s,)
    threads_per_client: Sequence[int] | int = (ExperimentSpec.threads_per_client,)
    retry_intervals: Sequence[float] | float = (ExperimentSpec.retry_interval_s,)
    #: Read-fraction axis: each point maps onto the workload's native
    #: mix knobs via ``Workload.read_ratio_params`` (YCSB read/update
    #: proportions, Smallbank balance weight). None keeps each
    #: workload's native mix.
    read_ratios: Sequence[float] | float | None = None
    workload_params: dict[str, Any] = field(default_factory=dict)
    blocking: bool = ExperimentSpec.blocking
    subscribe: bool = ExperimentSpec.subscribe
    #: Client-side failover on RPC timeout (crash-recovery scenarios);
    #: a scalar knob, not an axis. See DriverConfig.failover.
    failover: bool = ExperimentSpec.failover
    max_backoff_s: float = ExperimentSpec.max_backoff_s
    with_monitor: bool = ExperimentSpec.with_monitor
    drain_s: float = ExperimentSpec.drain_s
    #: JSON-shaped fault schedule (see :func:`build_fault_schedule`):
    #: one dict applies to every grid point; a list of dicts is an axis
    #: — one grid point per schedule, labelled compactly (e.g.
    #: ``byz=equivocate:2``) — which is how fault-tolerance sweeps like
    #: "throughput vs number of byzantine nodes" are expressed.
    faults: dict[str, Any] | Sequence[dict[str, Any]] | None = None
    #: Platform-config knob overrides: one dict applies to every grid
    #: point; a list of dicts is an axis (one grid point per dict,
    #: labelled from its flattened keys). Nested dicts address nested
    #: config dataclasses; see :func:`repro.config.apply_overrides`.
    #: Checked against every platform of the grid at expand time.
    overrides: dict[str, Any] | Sequence[dict[str, Any]] | None = None
    #: Open-loop arrival process: ``{"process": "poisson", "rate":
    #: 5000, "accounts": 100000, "zipf_s": 1.1}`` switches every grid
    #: point to the OpenLoopDriver; a list of such dicts is an axis.
    #: ``None`` (default) keeps the closed-loop clients.
    arrival: dict[str, Any] | Sequence[dict[str, Any]] | None = None
    #: Latency-sample reservoir bound for every grid point (0 = keep
    #: every sample). See StatsCollector.
    stats_reservoir: int = ExperimentSpec.stats_reservoir

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioSpec":
        """Build a spec from JSON data, rejecting unknown keys."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise BenchmarkError(
                f"unknown scenario keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(**data)

    def _points(self, axis: _Axis) -> list:
        """The validated points of one axis: a scalar is a one-point
        axis, a list is the axis; ``[None]`` when unset."""
        value = getattr(self, axis.key)
        if value is None:
            return [None]
        points = list(value) if isinstance(value, (list, tuple)) else [value]
        if not points:
            raise BenchmarkError(f"scenario axis {axis.key!r} is empty")
        return [axis.point(point, axis.key) for point in points]

    def expand(self) -> list[ExperimentSpec]:
        """Cartesian product of all axes, one ExperimentSpec per point."""
        grid = [(axis, self._points(axis)) for axis in _AXES]
        points = {axis.key: axis_points for axis, axis_points in grid}
        for platform in points["platforms"]:
            for overrides in points["overrides"]:
                if overrides:
                    PLATFORMS.get(platform).make_config(overrides=overrides)
        shared = {name: getattr(self, name) for name in _SHARED}
        specs: list[ExperimentSpec] = []
        for combo in itertools.product(*points.values()):
            kwargs = dict(shared)
            labels = []
            for (axis, axis_points), point in zip(grid, combo):
                # An unset axis leaves the spec field at its default.
                if point is None:
                    continue
                kwargs[axis.field] = point
                if axis.label is not None and len(axis_points) > 1:
                    labels.append(axis.label(point))
            kwargs.setdefault("n_clients", kwargs["n_servers"])
            specs.append(
                ExperimentSpec(
                    # No two grid points share a mutable value: a fault
                    # schedule in particular is armed per run.
                    **copy.deepcopy(kwargs),
                    scenario=self.name,
                    label=",".join(filter(None, labels)),
                )
            )
        return specs


#: Scenario fields copied verbatim into every grid point: those named
#: like an ExperimentSpec field that are not an axis.
_SHARED = tuple(
    f.name for f in fields(ScenarioSpec)
    if f.name in {g.name for g in fields(ExperimentSpec)}
    and f.name not in {axis.key for axis in _AXES}
)

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
                attr = _LOOKUP.get(key, key)
                if not hasattr(spec, attr):
                    names = {f.name for f in fields(ExperimentSpec)} | set(_LOOKUP)
                    raise BenchmarkError(
                        f"unknown lookup axis {key!r}; expected one of "
                        f"{sorted(names)}"
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
                runs[-1]["stage_breakdown"] = asdict(breakdown)
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
    a fresh interpreter in which only the built-in platforms/workloads
    resolve (the registries find those by module name).
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
