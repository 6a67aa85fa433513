"""Discrete-event simulation kernel.

Provides the deterministic scheduler, seeded RNG streams, the network
model with fault injection, the base node class with bounded inboxes,
and the resource monitor used to reproduce the paper's utilization
figures.
"""

from .clock import NEVER, SimTime, Stopwatch, format_time
from .events import Scheduler
from .futures import SimCoroutine, SimFuture, gather, spawn
from .monitor import ResourceMonitor, ResourceSample, ResourceSeries
from .network import Message, Network, NetworkStats
from .node import SimNode
from .rng import RngRegistry, derive_seed

__all__ = [
    "NEVER",
    "SimTime",
    "Stopwatch",
    "format_time",
    "Scheduler",
    "SimCoroutine",
    "SimFuture",
    "gather",
    "spawn",
    "ResourceMonitor",
    "ResourceSample",
    "ResourceSeries",
    "Message",
    "Network",
    "NetworkStats",
    "SimNode",
    "RngRegistry",
    "derive_seed",
]
