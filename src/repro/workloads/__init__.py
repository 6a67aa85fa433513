"""Benchmark workloads: macro (YCSB, Smallbank, real contracts) and
micro (DoNothing, IOHeavy, CPUHeavy, Analytics).

Workload classes register themselves with
:data:`repro.registry.WORKLOADS` via :func:`~repro.registry.
register_workload`; the registry imports ``repro.workloads.<name>`` (or
failing that, every workload module) the first time a name is looked
up, and ``make_workload`` resolves names through it, so plugin
workloads become available to the driver, CLI, and scenario files the
moment their module is imported.
"""

from __future__ import annotations

from ..registry import WORKLOADS
from ..util.lazy import lazy_exports


def make_workload(name: str, **kwargs):
    """Instantiate a driver workload by registry name.

    Keyword arguments are routed through the workload's config
    dataclass (e.g. ``make_workload("ycsb", record_count=1000)``).
    """
    return WORKLOADS.get(name).create(**kwargs)


def available_workloads() -> list[str]:
    """Names of every registered workload."""
    return WORKLOADS.names()


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "analytics": (
        "AnalyticsPreload",
        "QueryResult",
        "preload_history",
        "run_q1",
        "run_q2",
    ),
    "contracts": (
        "DoNothingWorkload",
        "DoublerWorkload",
        "EtherIdConfig",
        "EtherIdWorkload",
        "WavesPresaleWorkload",
    ),
    "smallbank": ("SmallbankConfig", "SmallbankWorkload"),
    "ycsb": ("YCSBConfig", "YCSBWorkload", "ZipfianGenerator"),
})
__all__ += ["available_workloads", "make_workload"]
