"""Simulated network: links, latency, partitions, and fault injection.

The network model reproduces the paper's testbed abstraction — a set of
commodity servers on a 1 Gb switch — plus the three fault modes used in
Section 3.3 (crash, message delay, message corruption) and the
partition attack from Section 4.1.3.

Messages are delivered point-to-point with ``latency + size / bandwidth``
delay. During an active partition, traffic crossing partition groups is
dropped, exactly as BLOCKBENCH "drops network traffic between any two
nodes in the two partitions".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from ..errors import NetworkError
from .clock import SimTime
from .events import Scheduler
from .rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import SimNode

#: Default LAN characteristics: 1 Gb switch, ~0.3 ms one-way latency.
DEFAULT_BANDWIDTH_BPS = 1_000_000_000
DEFAULT_LATENCY = 0.0003
DEFAULT_JITTER = 0.0002

#: Per-sender send interceptor: ``fn(recipient, kind, payload, size_bytes)``
#: returns ``None`` to drop the send, or a rewritten
#: ``(payload, size_bytes, extra_delay_s)`` triple. The hook point for
#: Byzantine behaviors — equivocation rewrites the payload per recipient,
#: silence drops, vote withholding adds delay.
SendFilter = Callable[[str, str, Any, int], "tuple[Any, int, float] | None"]


@dataclass(slots=True)
class Message:
    """A unit of network traffic between two simulated nodes."""

    sender: str
    recipient: str
    kind: str
    payload: Any
    size_bytes: int = 256
    corrupted: bool = False


@dataclass
class NetworkStats:
    """Aggregate traffic counters, also kept per node."""

    messages_sent: int = 0
    messages_delivered: int = 0
    dropped_partition: int = 0
    dropped_crash: int = 0
    dropped_delay_jitter: int = 0
    dropped_byzantine: int = 0
    bytes_sent: dict[str, int] = field(default_factory=dict)
    bytes_received: dict[str, int] = field(default_factory=dict)


class Network:
    """Routes messages between registered nodes under fault schedules."""

    def __init__(
        self,
        scheduler: Scheduler,
        rng: RngRegistry,
        bandwidth_bps: int = DEFAULT_BANDWIDTH_BPS,
        base_latency: SimTime = DEFAULT_LATENCY,
        jitter: SimTime = DEFAULT_JITTER,
    ) -> None:
        self.scheduler = scheduler
        self._rng = rng.stream("network")
        self.bandwidth_bps = bandwidth_bps
        self.base_latency = base_latency
        self.jitter = jitter
        self.nodes: dict[str, "SimNode"] = {}
        self.stats = NetworkStats()
        # Fault state. Delay and corruption are *windows* keyed by a
        # handle so overlapping faults compose: each window ends when
        # its own ``remove_*`` runs, never when another fault resets a
        # shared scalar (the clobbering bug the handles replace).
        self._partition_groups: list[frozenset[str]] | None = None
        self._fault_ids = itertools.count(1)
        self._delay_windows: dict[int, tuple[SimTime, frozenset[str] | None]] = {}
        self._corruption_windows: dict[int, float] = {}
        # Byzantine interception: per-sender rewrite hooks, plus the set
        # of nodes that ever had one (the safety auditor's honesty test).
        self._send_filters: dict[str, SendFilter] = {}
        self.ever_byzantine: set[str] = set()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node: "SimNode") -> None:
        if node.node_id in self.nodes:
            raise NetworkError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node

    def node_ids(self) -> list[str]:
        return list(self.nodes)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network; traffic between different groups is dropped."""
        frozen = [frozenset(group) for group in groups]
        covered = set().union(*frozen) if frozen else set()
        unknown = covered - set(self.nodes)
        if unknown:
            raise NetworkError(f"partition names unknown nodes: {sorted(unknown)}")
        self._partition_groups = frozen

    def heal(self) -> None:
        """Remove the active partition.

        Heals the partition *only*: a delay or corruption window that
        overlaps the partition keeps running until its own removal
        (healing used to wipe them, silently ending overlapping faults
        early).
        """
        self._partition_groups = None

    # -- delay windows --------------------------------------------------
    def add_delay(self, extra: SimTime, nodes: Iterable[str] | None = None) -> int:
        """Open a delay window: ``extra`` seconds on messages touching
        ``nodes`` (or all). Returns a handle for :meth:`remove_delay`;
        concurrent windows stack additively."""
        if extra < 0:
            raise NetworkError(f"delay {extra} must be non-negative")
        window_id = next(self._fault_ids)
        affected = frozenset(nodes) if nodes is not None else None
        self._delay_windows[window_id] = (extra, affected)
        return window_id

    def remove_delay(self, window_id: int) -> None:
        """Close one delay window (idempotent)."""
        self._delay_windows.pop(window_id, None)

    # -- corruption windows ---------------------------------------------
    def add_corruption(self, rate: float) -> int:
        """Open a corruption window; the effective rate is the max of
        all active windows. Returns a handle for :meth:`remove_corruption`."""
        if not 0.0 <= rate <= 1.0:
            raise NetworkError(f"corruption rate {rate} outside [0, 1]")
        window_id = next(self._fault_ids)
        self._corruption_windows[window_id] = rate
        return window_id

    def remove_corruption(self, window_id: int) -> None:
        """Close one corruption window (idempotent)."""
        self._corruption_windows.pop(window_id, None)

    def active_corruption_rate(self) -> float:
        """The corruption probability currently applied to deliveries."""
        return max(self._corruption_windows.values(), default=0.0)

    def active_delay_extra(self, sender: str, recipient: str) -> SimTime:
        """Total extra delay (pre-jitter) a send between the pair sees."""
        total = 0.0
        for extra, affected in self._delay_windows.values():
            if affected is None or sender in affected or recipient in affected:
                total += extra
        return total

    # -- byzantine send interception ------------------------------------
    def set_send_filter(self, node_id: str, fn: SendFilter) -> None:
        """Install a send interceptor for ``node_id`` (one per node; a
        second call replaces the first). The node is remembered in
        :attr:`ever_byzantine` for the safety auditor's honesty test."""
        if node_id not in self.nodes:
            raise NetworkError(f"unknown node {node_id!r}")
        self._send_filters[node_id] = fn
        self.ever_byzantine.add(node_id)

    def clear_send_filter(self, node_id: str) -> None:
        """Remove ``node_id``'s send interceptor (idempotent); the node
        stays in :attr:`ever_byzantine` — past lies taint its commits."""
        self._send_filters.pop(node_id, None)

    def partitioned(self, a: str, b: str) -> bool:
        """True if nodes ``a`` and ``b`` are currently in different groups."""
        if self._partition_groups is None or a == b:
            return False
        group_a = next((g for g in self._partition_groups if a in g), None)
        group_b = next((g for g in self._partition_groups if b in g), None)
        # Nodes absent from all groups communicate only within the implicit
        # "rest" group.
        if group_a is None and group_b is None:
            return False
        return group_a is not group_b

    # ------------------------------------------------------------------
    # Message transfer
    # ------------------------------------------------------------------
    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        size_bytes: int = 256,
    ) -> Message:
        """Send one message; returns it (useful for tests and tracing)."""
        if recipient not in self.nodes:
            raise NetworkError(f"unknown recipient {recipient!r}")
        filter_delay = 0.0
        # Fault state is empty on almost every send: each lookup below
        # is skipped unless its fault is active. The RNG draws (one for
        # jitter, then delay window, then corruption) keep their order.
        if self._send_filters:
            filter_fn = self._send_filters.get(sender)
            if filter_fn is not None:
                rewritten = filter_fn(recipient, kind, payload, size_bytes)
                if rewritten is None:
                    # The byzantine node chose not to transmit: nothing
                    # hits the wire, so no send is recorded.
                    self.stats.dropped_byzantine += 1
                    return Message(sender, recipient, kind, payload, size_bytes)
                payload, size_bytes, filter_delay = rewritten
        message = Message(sender, recipient, kind, payload, size_bytes)
        stats = self.stats
        stats.messages_sent += 1
        stats.bytes_sent[sender] = stats.bytes_sent.get(sender, 0) + size_bytes
        if self._partition_groups is not None and self.partitioned(sender, recipient):
            stats.dropped_partition += 1
            return message
        delay = self._delivery_delay(sender, recipient, size_bytes) + filter_delay
        if self._corruption_windows:
            rate = self.active_corruption_rate()
            if rate and self._rng.random() < rate:
                message.corrupted = True
        self.scheduler.schedule(delay, self._deliver, message)
        return message

    def broadcast(
        self,
        sender: str,
        recipients: Iterable[str],
        kind: str,
        payload: Any,
        size_bytes: int,
    ) -> None:
        """Send one message to each of ``recipients``, in their order:
        one :meth:`send` apiece, so each draws and counts as a send."""
        send = self.send
        for recipient in recipients:
            send(sender, recipient, kind, payload, size_bytes)

    def _delivery_delay(self, sender: str, recipient: str, size: int) -> SimTime:
        latency = self.base_latency + self._rng.random() * self.jitter
        serialization = size * 8 / self.bandwidth_bps
        if not self._delay_windows:
            return latency + serialization
        extra = self.active_delay_extra(sender, recipient)
        if extra:
            # One jitter draw regardless of how many windows stack, so a
            # single-window schedule replays byte-identically to the
            # pre-window scalar implementation.
            extra *= 0.5 + self._rng.random()
        return latency + serialization + extra

    def _deliver(self, message: Message) -> None:
        # Partitions that began while the message was in flight still drop it:
        # the paper's attack drops traffic for the whole partition window.
        stats = self.stats
        recipient = message.recipient
        if self._partition_groups is not None and self.partitioned(
            message.sender, recipient
        ):
            stats.dropped_partition += 1
            return
        node = self.nodes.get(recipient)
        if node is None or node.crashed:
            stats.dropped_crash += 1
            return
        stats.messages_delivered += 1
        stats.bytes_received[recipient] = (
            stats.bytes_received.get(recipient, 0) + message.size_bytes
        )
        node.deliver(message)
