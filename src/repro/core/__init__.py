"""BLOCKBENCH core: the paper's primary contribution (Figure 4).

Connector and workload interfaces, the asynchronous driver with its
outstanding-transaction queue and polling loop, statistics collection,
fault and attack injection, and experiment orchestration.

Names resolve on first use (see :mod:`repro.util.lazy`): a run imports
the driver, not the scenario engine or the report layer.
"""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "connector": (
        "BlockSubscription",
        "IBlockchainConnector",
        "RPCClient",
        "SimChainConnector",
    ),
    "driver": ("Driver", "DriverConfig", "OpenLoopDriver"),
    "export": (
        "export_commit_series",
        "export_latency_cdf",
        "export_queue_series",
        "export_summary",
        "write_csv",
    ),
    "audit": ("AuditReport", "ChainAuditor", "SafetyViolation"),
    "faults": (
        "BYZANTINE_BEHAVIORS",
        "ByzantineFault",
        "CorruptionFault",
        "CrashFault",
        "DelayFault",
        "FaultSchedule",
        "PartitionFault",
        "build_fault_schedule",
        "register_behavior",
    ),
    "compare": ("RunDelta", "SuiteComparison", "compare_suites"),
    "report": (
        "BOTTLENECK_HEADERS",
        "SUMMARY_HEADERS",
        "bottleneck_rows",
        "bottleneck_table",
        "format_table",
        "summary_row",
    ),
    "runner": ("ExperimentResult", "ExperimentSpec", "run_experiment"),
    "scenario": ("ScenarioSpec", "ScenarioSuite", "SuiteResult"),
    "suitestore": ("SuiteStore", "spec_hash"),
    "security": (
        "AttackReport",
        "ForkMonitor",
        "ForkSample",
        "run_partition_attack",
    ),
    "stats": ("StatsCollector", "StatsSummary", "merge_collectors"),
    "trace": (
        "QUEUE_GAUGES",
        "STAGE_INTERVALS",
        "STAGES",
        "StageBreakdown",
        "StageStat",
        "StageTracer",
    ),
    "workload": (
        "ARRIVAL_PROCESSES",
        "ArrivalGenerator",
        "ArrivalSpec",
        "Workload",
        "preload_state",
    ),
})
