"""One-call experiment orchestration.

Builds a cluster, attaches a workload and N clients, arms any fault
schedule, runs for the configured duration, and returns everything the
benchmark harnesses need — the whole Figure 4 pipeline in one function.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any

from ..errors import BenchmarkError
from ..platforms.cluster import build_cluster
from ..registry import WORKLOADS
from ..workloads import make_workload
from .driver import Driver, DriverConfig, OpenLoopDriver
from .stats import StatsCollector, StatsSummary
from .workload import ArrivalSpec

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultSchedule


def _since_schema(default: Any) -> Any:
    """A field added after run-file schema/1: at ``default`` it is
    omitted from the canonical spec dict (``suitestore.spec_to_dict``),
    so every spec hash computed before it existed stays valid; any other
    value enters the dict and hashes the run apart, as a real axis must."""
    return field(default=default, metadata={"omit_at_default": True})


@dataclass
class ExperimentSpec:
    """Everything defining one benchmark run.

    The one declaration of every run knob. A field named like a
    :class:`DriverConfig` field is a driver knob: ``run_experiment``
    hands it over by name, and its default is read from DriverConfig.
    Platform knobs are not fields: they travel as JSON in
    ``config_overrides``.
    """

    platform: str = "hyperledger"
    workload: str = "ycsb"
    workload_params: dict[str, Any] = field(default_factory=dict)
    #: Fraction of read operations in the workload's operation mix
    #: (0.0 = all writes, 1.0 = all reads). None keeps the workload's
    #: native mix. Translated per-workload via
    #: ``Workload.read_ratio_params`` — not every workload supports it.
    read_ratio: float | None = _since_schema(None)
    n_servers: int = 8
    n_clients: int = DriverConfig.n_clients
    request_rate_tx_s: float = DriverConfig.request_rate_tx_s
    duration_s: float = DriverConfig.duration_s
    seed: int = 42
    blocking: bool = DriverConfig.blocking
    #: Confirm via the backend's push feed instead of polling (ErisDB).
    subscribe: bool = DriverConfig.subscribe
    #: The getLatestBlock poll period, worker threads per client, and
    #: the backoff before a rejected submission is retried.
    poll_interval_s: float = DriverConfig.poll_interval_s
    threads_per_client: int = DriverConfig.threads_per_client
    retry_interval_s: float = DriverConfig.retry_interval_s
    #: Client-side crash tolerance: fail over to the next live server
    #: when an RPC times out, with exponential backoff capped at
    #: ``max_backoff_s``. See DriverConfig.
    failover: bool = _since_schema(DriverConfig.failover)
    max_backoff_s: float = _since_schema(DriverConfig.max_backoff_s)
    #: Open-loop arrival process (JSON shape, see ArrivalSpec): when
    #: set, the run uses the OpenLoopDriver instead of closed-loop
    #: clients and ignores n_clients / request_rate_tx_s /
    #: threads_per_client / blocking / subscribe.
    arrival: dict[str, Any] | None = _since_schema(None)
    #: Bound the latency sample set in memory (reservoir size; 0 keeps
    #: every sample). See StatsCollector for the accuracy tradeoff.
    stats_reservoir: int = _since_schema(DriverConfig.stats_reservoir)
    with_monitor: bool = False
    faults: FaultSchedule | None = None
    #: JSON-shaped platform-knob overrides (scenario-file ``overrides``)
    #: applied on top of the platform default by ``build_cluster`` —
    #: e.g. ``{"pbft": {"batch_size": 250}}``. Part of the
    #: content-addressed spec hash resumable suites key on.
    config_overrides: dict[str, Any] = field(default_factory=dict)
    drain_s: float = 5.0
    #: Scenario bookkeeping, set by the scenario engine: which
    #: ScenarioSpec expanded into this run, and a human label for the
    #: grid point (e.g. an overrides-axis knob like
    #: ``pbft.batch_size=500``).
    scenario: str = ""
    label: str = ""


#: The driver knobs: DriverConfig fields the spec declares by the same
#: name (``queue_sample_interval_s`` is not one).
_DRIVER_KNOBS = tuple(
    f.name for f in fields(DriverConfig)
    if f.name in {g.name for g in fields(ExperimentSpec)}
)


@dataclass
class ExperimentResult:
    """Run outputs: stats + cluster-level measurements."""

    spec: ExperimentSpec
    summary: StatsSummary
    stats: StatsCollector
    queue_series: list[tuple[float, int]]
    chain_height: int
    total_blocks: int
    main_branch_blocks: int
    mean_cpu_pct: float
    mean_net_mbps: float
    view_changes: int = 0
    #: Blocks executed at confirmation depth but later reorged away —
    #: the realized double-spend exposure (confirmation-depth ablation).
    stale_executions: int = 0
    #: Count of chain safety violations the auditor flagged (also in
    #: ``summary.safety_violations``; duplicated here so persisted run
    #: files carry it next to the other cluster-level measurements).
    safety_violations: int = 0
    #: Full auditor verdict (AuditReport.to_json()): per-violation
    #: height, replicas, and byzantine fault context.
    safety_report: dict[str, Any] | None = None

    @property
    def throughput(self) -> float:
        return self.summary.throughput_tx_s

    @property
    def latency(self) -> float:
        return self.summary.latency_avg_s


def _read_ratio_params(
    workload: str, ratio: float, params: dict[str, Any]
) -> dict[str, Any]:
    """Translate ``read_ratio`` into workload-native config kwargs.

    Each workload declares its own mapping via
    ``Workload.read_ratio_params`` (YCSB: read/update proportions;
    Smallbank: the balance-query fraction); workloads with a fixed
    operation mix raise. Explicit ``workload_params`` that would be
    overwritten are a spec error, not a silent override.
    """
    if not 0.0 <= ratio <= 1.0:
        raise BenchmarkError(f"read_ratio must be in [0, 1], got {ratio}")
    extra = WORKLOADS.get(workload).workload_type.read_ratio_params(ratio)
    overlap = sorted(set(extra) & set(params))
    if overlap:
        raise BenchmarkError(
            f"read_ratio conflicts with explicit workload_params "
            f"({', '.join(overlap)}); set one or the other"
        )
    return extra


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Execute one macro-benchmark run end to end."""
    # Built first: DriverConfig validates the driver knobs, so a bad
    # spec fails before the (comparatively expensive) cluster build.
    knobs = {name: getattr(spec, name) for name in _DRIVER_KNOBS}
    if spec.arrival is not None:
        knobs["arrival"] = ArrivalSpec.from_dict(spec.arrival)
    config = DriverConfig(**knobs)
    cluster = build_cluster(
        spec.platform,
        spec.n_servers,
        seed=spec.seed,
        config_overrides=spec.config_overrides or None,
        with_monitor=spec.with_monitor,
    )
    workload_params = dict(spec.workload_params)
    if spec.read_ratio is not None:
        workload_params.update(
            _read_ratio_params(spec.workload, spec.read_ratio, workload_params)
        )
    workload = make_workload(spec.workload, **workload_params)
    if config.arrival is not None:
        driver = OpenLoopDriver(cluster, workload, config)
    else:
        driver = Driver(cluster, workload, config)
    driver.prepare()
    if spec.faults is not None:
        spec.faults.arm(cluster)
    stats = driver.run(extra_drain_s=spec.drain_s)
    total, main = cluster.global_block_stats()
    view_changes = 0
    for node in cluster.nodes:
        view_changes += getattr(node.protocol, "view_changes_started", 0)
    audit_report = cluster.auditor.report()
    summary = stats.summary()
    summary.safety_violations = len(audit_report.violations)
    summary.stage_breakdown = cluster.tracer.breakdown()
    summary.recovery_time_s = cluster.recovery_times()
    sync = cluster.sync_traffic()
    summary.sync_requests = sync["requests"]
    summary.sync_blocks = sync["blocks"]
    summary.sync_bytes = sync["bytes"]
    result = ExperimentResult(
        spec=spec,
        summary=summary,
        stats=stats,
        queue_series=driver.queue_series(),
        chain_height=cluster.chain_height(),
        total_blocks=total,
        main_branch_blocks=main,
        mean_cpu_pct=cluster.monitor.mean_cpu_pct() if cluster.monitor else 0.0,
        mean_net_mbps=cluster.monitor.mean_net_mbps() if cluster.monitor else 0.0,
        view_changes=view_changes,
        stale_executions=cluster.stale_executions(),
        safety_violations=summary.safety_violations,
        safety_report=audit_report.to_json(),
    )
    cluster.close()
    return result
