"""BLOCKBENCH core: the paper's primary contribution (Figure 4).

Connector and workload interfaces, the asynchronous driver with its
outstanding-transaction queue and polling loop, statistics collection,
fault and attack injection, and experiment orchestration.
"""

from .connector import (
    BlockSubscription,
    IBlockchainConnector,
    RPCClient,
    SimChainConnector,
)
from .driver import Driver, DriverConfig, OpenLoopDriver
from .export import (
    export_commit_series,
    export_latency_cdf,
    export_queue_series,
    export_summary,
    write_csv,
)
from .audit import AuditReport, ChainAuditor, SafetyViolation
from .faults import (
    BYZANTINE_BEHAVIORS,
    ByzantineFault,
    CorruptionFault,
    CrashFault,
    DelayFault,
    FaultSchedule,
    PartitionFault,
    register_behavior,
)
from .compare import RunDelta, SuiteComparison, compare_suites
from .report import (
    BOTTLENECK_HEADERS,
    SUMMARY_HEADERS,
    bottleneck_rows,
    bottleneck_table,
    format_table,
    summary_row,
)
from .runner import ExperimentResult, ExperimentSpec, run_experiment
from .scenario import (
    ScenarioSpec,
    ScenarioSuite,
    SuiteResult,
    build_fault_schedule,
)
from .suitestore import SuiteStore, spec_hash
from .security import AttackReport, ForkMonitor, ForkSample, run_partition_attack
from .stats import StatsCollector, StatsSummary, merge_collectors
from .trace import (
    QUEUE_GAUGES,
    STAGE_INTERVALS,
    STAGES,
    StageBreakdown,
    StageStat,
    StageTracer,
)
from .workload import (
    ARRIVAL_PROCESSES,
    ArrivalGenerator,
    ArrivalSpec,
    Workload,
    preload_state,
)

__all__ = [
    "BlockSubscription",
    "IBlockchainConnector",
    "RPCClient",
    "SimChainConnector",
    "Driver",
    "DriverConfig",
    "OpenLoopDriver",
    "export_commit_series",
    "export_latency_cdf",
    "export_queue_series",
    "export_summary",
    "write_csv",
    "AuditReport",
    "ChainAuditor",
    "SafetyViolation",
    "BYZANTINE_BEHAVIORS",
    "ByzantineFault",
    "register_behavior",
    "CorruptionFault",
    "CrashFault",
    "DelayFault",
    "FaultSchedule",
    "PartitionFault",
    "SUMMARY_HEADERS",
    "format_table",
    "BOTTLENECK_HEADERS",
    "bottleneck_rows",
    "bottleneck_table",
    "summary_row",
    "ExperimentResult",
    "ExperimentSpec",
    "run_experiment",
    "ScenarioSpec",
    "ScenarioSuite",
    "SuiteResult",
    "SuiteStore",
    "spec_hash",
    "RunDelta",
    "SuiteComparison",
    "compare_suites",
    "build_fault_schedule",
    "AttackReport",
    "ForkMonitor",
    "ForkSample",
    "run_partition_attack",
    "StatsCollector",
    "StatsSummary",
    "QUEUE_GAUGES",
    "STAGE_INTERVALS",
    "STAGES",
    "StageBreakdown",
    "StageStat",
    "StageTracer",
    "merge_collectors",
    "Workload",
    "preload_state",
    "ARRIVAL_PROCESSES",
    "ArrivalGenerator",
    "ArrivalSpec",
]
