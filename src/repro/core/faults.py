"""Fault-injection schedules (Section 3.3's failure modes, plus lies).

"In Blockbench we simulate three failure modes: crash failure in which
a node simply stops, network delay in which we inject arbitrary delays
into messages, and random response in which we corrupt the messages
exchanged among the nodes."

Beyond the paper's benign modes, :class:`ByzantineFault` makes a node
*adversarial*: for a window it equivocates (conflicting proposals to
disjoint replica subsets), advertises garbage digests, goes silent, or
withholds votes. Behaviors are strategies in :data:`BYZANTINE_BEHAVIORS`
implemented entirely against the adversary hook API on
:class:`~repro.consensus.base.ConsensusProtocol` (``proposal_kinds``,
``vote_kinds``, ``forge_proposal``) and the per-sender send filters on
:class:`~repro.sim.network.Network` — no protocol-specific fault code
lives here, so any protocol that declares its kinds is attackable.
"""

from __future__ import annotations

import hashlib
import typing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..chain.block import Block
from ..config import check_value
from ..errors import BenchmarkError
from ..platforms.base import RECOVERY_MODES

if TYPE_CHECKING:  # pragma: no cover
    from ..platforms.base import PlatformNode
    from ..platforms.cluster import Cluster
    from ..sim.network import Network, SendFilter


@dataclass
class CrashFault:
    """Kill nodes at ``at_time``; optionally restart them (Figure 9,
    extended to crash-*recovery*).

    Victims are ``nodes`` when given, else the first (or last) ``count``
    nodes per ``include_leader`` — the same convention as
    :class:`ByzantineFault`. When ``recover_at`` is set the victims
    restart at that time: ``warm`` recovery keeps their executed state
    and block-syncs only the missed suffix; ``cold`` wipes the state
    store and replays the whole chain before syncing.
    """

    at_time: float
    count: int | None = None
    include_leader: bool = True
    nodes: list[str] | None = None
    recover_at: float | None = None
    recovery_mode: str = "warm"


@dataclass
class DelayFault:
    """Inject ``extra_s`` message delay during [at_time, until_time)."""

    at_time: float
    until_time: float
    extra_s: float
    nodes: list[str] | None = None


@dataclass
class CorruptionFault:
    """Corrupt messages at ``rate`` during [at_time, until_time)."""

    at_time: float
    until_time: float
    rate: float


@dataclass
class PartitionFault:
    """Split the network in half during [at_time, until_time) — the
    double-spending attack window of Section 4.1.3."""

    at_time: float
    until_time: float


@dataclass
class ByzantineFault:
    """Make nodes adversarial during [at_time, until_time).

    ``behavior`` names a strategy in :data:`BYZANTINE_BEHAVIORS`.
    Victims are ``nodes`` when given, else the first ``count`` nodes of
    the cluster (the head of the list holds the PBFT view-0 leader and
    the first PoA/Tendermint proposer slots — the hardest case, matching
    :class:`CrashFault`'s convention). ``delay_s`` parameterizes the
    ``delay_votes`` behavior: how long votes are withheld.
    """

    at_time: float
    until_time: float
    behavior: str = "equivocate"
    count: int | None = None
    nodes: list[str] | None = None
    delay_s: float = 1.5


# ---------------------------------------------------------------------------
# Behavior registry
# ---------------------------------------------------------------------------
#: ``factory(node, network, fault, shared) -> SendFilter``. ``shared``
#: is one dict per armed fault, common to all its victims — equivocating
#: colluders share their forgery maps through it, which is what lets two
#: byzantine replicas vote consistently toward *both* sides of a fork.
BehaviorFactory = Callable[
    ["PlatformNode", "Network", ByzantineFault, dict], "SendFilter"
]

BYZANTINE_BEHAVIORS: dict[str, BehaviorFactory] = {}


def register_behavior(name: str) -> Callable[[BehaviorFactory], BehaviorFactory]:
    """Class/function decorator adding a strategy to the registry."""

    def decorator(factory: BehaviorFactory) -> BehaviorFactory:
        BYZANTINE_BEHAVIORS[name] = factory
        return factory

    return decorator


def _passthrough(payload: Any, size_bytes: int) -> tuple[Any, int, float]:
    return (payload, size_bytes, 0.0)


@register_behavior("equivocate")
def _equivocate(node, network, fault, shared):
    """Send conflicting proposals to disjoint replica subsets.

    Recipients at an even global index get the original proposal,
    recipients at an odd index a forged double (same height, parent,
    and transactions; different hash). Votes are rewritten to match the
    recipient's variant, so every victim of the fault campaigns for
    both sides at once. Parity splits the *honest* nodes across the two
    variants even though victims come from the head of the node list —
    the configuration that actually forks a quorum-based protocol once
    enough replicas collude.
    """
    protocol = node.protocol
    forged: dict[bytes, Block] = shared.setdefault("forged", {})
    original: dict[bytes, bytes] = shared.setdefault("original", {})
    index = {nid: i for i, nid in enumerate(network.node_ids())}

    def fn(recipient, kind, payload, size_bytes):
        odd = index.get(recipient, 0) % 2 == 1
        if kind in protocol.proposal_kinds and isinstance(payload, Block):
            if not odd:
                return _passthrough(payload, size_bytes)
            double = forged.get(payload.hash)
            if double is None:
                double = protocol.forge_proposal(kind, payload, "equivocate:1")
                if double is None:
                    return _passthrough(payload, size_bytes)
                forged[payload.hash] = double
                original[double.hash] = payload.hash
            return (double, double.size_bytes(), 0.0)
        if kind in protocol.vote_kinds and isinstance(payload, dict):
            digest = payload.get("digest")
            if isinstance(digest, bytes):
                if odd and digest in forged:
                    return ({**payload, "digest": forged[digest].hash},
                            size_bytes, 0.0)
                if not odd and digest in original:
                    return ({**payload, "digest": original[digest]},
                            size_bytes, 0.0)
        return _passthrough(payload, size_bytes)

    return fn


@register_behavior("garbage_digest")
def _garbage_digest(node, network, fault, shared):
    """Advertise digests that fail verification.

    Proposals are replaced by a double carrying a ``garbage`` marker —
    honest replicas detect the content/digest mismatch via
    ``proposal_intact`` and reject it. Vote digests are rewritten to a
    deterministic nonsense hash, so they never match any real proposal
    and count toward no quorum.
    """
    protocol = node.protocol
    forged: dict[bytes, Block] = shared.setdefault("forged", {})

    def fn(recipient, kind, payload, size_bytes):
        if kind in protocol.proposal_kinds and isinstance(payload, Block):
            double = forged.get(payload.hash)
            if double is None:
                double = protocol.forge_proposal(kind, payload, "garbage:1")
                if double is None:
                    return _passthrough(payload, size_bytes)
                forged[payload.hash] = double
            return (double, double.size_bytes(), 0.0)
        if kind in protocol.vote_kinds and isinstance(payload, dict):
            digest = payload.get("digest")
            if isinstance(digest, bytes):
                trash = hashlib.sha256(b"garbage-digest:" + digest).digest()
                return ({**payload, "digest": trash}, size_bytes, 0.0)
        return _passthrough(payload, size_bytes)

    return fn


@register_behavior("silent")
def _silent(node, network, fault, shared):
    """Drop every consensus send while still receiving — a node that
    looks alive to timeouts but contributes nothing to quorums."""
    kinds = frozenset(node.protocol.message_kinds)

    def fn(recipient, kind, payload, size_bytes):
        if kind in kinds:
            return None
        return _passthrough(payload, size_bytes)

    return fn


@register_behavior("delay_votes")
def _delay_votes(node, network, fault, shared):
    """Withhold prepare/commit/prevote/precommit messages for
    ``fault.delay_s`` — votes arrive, but only near the timeout."""
    protocol = node.protocol
    kinds = frozenset(protocol.vote_kinds)
    extra = fault.delay_s

    def fn(recipient, kind, payload, size_bytes):
        if kind in kinds:
            return (payload, size_bytes, extra)
        return _passthrough(payload, size_bytes)

    return fn


@dataclass
class FaultSchedule:
    """A set of faults armed against one cluster."""

    crashes: list[CrashFault] = field(default_factory=list)
    delays: list[DelayFault] = field(default_factory=list)
    corruptions: list[CorruptionFault] = field(default_factory=list)
    partitions: list[PartitionFault] = field(default_factory=list)
    byzantines: list[ByzantineFault] = field(default_factory=list)
    crashed_node_ids: list[str] = field(default_factory=list)
    byzantine_node_ids: list[str] = field(default_factory=list)

    def arm(self, cluster: "Cluster") -> None:
        """Schedule every fault on the cluster's event loop.

        Each windowed fault opens its own network window at ``at_time``
        and closes exactly that window at ``until_time``, so
        overlapping or nested schedules compose instead of a later
        fault's reset clobbering an earlier, still-active one.
        """
        scheduler = cluster.scheduler
        cold_restarts = 0
        for index, crash in enumerate(self.crashes):
            _check_victims(cluster, f"faults.crashes[{index}]", crash)
            if crash.recovery_mode not in RECOVERY_MODES:
                raise BenchmarkError(
                    f"unknown recovery_mode {crash.recovery_mode!r} "
                    f"(known: {', '.join(RECOVERY_MODES)})"
                )
            if crash.recover_at is not None and crash.recover_at <= crash.at_time:
                raise BenchmarkError(
                    f"recover_at ({crash.recover_at}) must be after "
                    f"at_time ({crash.at_time})"
                )
            scheduler.schedule_at(
                crash.at_time, self._do_crash, cluster, crash
            )
            if crash.recover_at is not None:
                scheduler.schedule_at(
                    crash.recover_at, self._do_recover, cluster, crash
                )
                if crash.recovery_mode == "cold":
                    cold_restarts += len(self._crash_victims(cluster, crash))
        # Each cold restart replays its replica's chain through the
        # execution cache: one more reader of every execution record.
        cluster.nodes[0].execution_cache.add_cold_restarts(cold_restarts)
        for index, delay in enumerate(self.delays):
            _check_victims(cluster, f"faults.delays[{index}]", delay)
            scheduler.schedule_at(
                delay.at_time, self._open_delay, cluster, delay
            )
        for corruption in self.corruptions:
            scheduler.schedule_at(
                corruption.at_time, self._open_corruption, cluster, corruption
            )
        for partition in self.partitions:
            scheduler.schedule_at(
                partition.at_time, lambda c=cluster: c.partition_halves()
            )
            scheduler.schedule_at(partition.until_time, cluster.network.heal)
        for index, byzantine in enumerate(self.byzantines):
            _check_victims(cluster, f"faults.byzantines[{index}]", byzantine)
            if byzantine.behavior not in BYZANTINE_BEHAVIORS:
                known = ", ".join(sorted(BYZANTINE_BEHAVIORS))
                raise BenchmarkError(
                    f"unknown byzantine behavior {byzantine.behavior!r} "
                    f"(known: {known})"
                )
            scheduler.schedule_at(
                byzantine.at_time, self._start_byzantine, cluster, byzantine
            )

    def _crash_victims(self, cluster: "Cluster", crash: CrashFault) -> list[str]:
        """The node ids one crash fault targets (pure function of the
        spec and the cluster's node order, so crash and recover agree)."""
        if crash.nodes is not None:
            wanted = set(crash.nodes)
            return [n.node_id for n in cluster.nodes if n.node_id in wanted]
        count = crash.count if crash.count is not None else 1
        chosen = (
            cluster.nodes[:count] if crash.include_leader
            else cluster.nodes[len(cluster.nodes) - count:]
        )
        return [n.node_id for n in chosen]

    def _do_crash(self, cluster: "Cluster", crash: CrashFault) -> None:
        victims = cluster.crash_named(self._crash_victims(cluster, crash))
        self.crashed_node_ids.extend(
            v for v in victims if v not in self.crashed_node_ids
        )
        if crash.recover_at is not None and crash.recovery_mode == "cold":
            # A cold restart replays only what its chain held at the
            # crash: withdraw the read ``arm`` added from every record
            # stored from now on.
            cluster.nodes[0].execution_cache.add_cold_restarts(-len(victims))

    def _do_recover(self, cluster: "Cluster", crash: CrashFault) -> None:
        cluster.recover_nodes(
            self._crash_victims(cluster, crash), crash.recovery_mode
        )

    def _open_delay(self, cluster: "Cluster", delay: DelayFault) -> None:
        window = cluster.network.add_delay(delay.extra_s, delay.nodes)
        cluster.scheduler.schedule_at(
            delay.until_time, cluster.network.remove_delay, window
        )

    def _open_corruption(
        self, cluster: "Cluster", corruption: CorruptionFault
    ) -> None:
        window = cluster.network.add_corruption(corruption.rate)
        cluster.scheduler.schedule_at(
            corruption.until_time, cluster.network.remove_corruption, window
        )

    def _start_byzantine(
        self, cluster: "Cluster", fault: ByzantineFault
    ) -> None:
        factory = BYZANTINE_BEHAVIORS[fault.behavior]
        if fault.nodes is not None:
            targets = [n for n in cluster.nodes if n.node_id in set(fault.nodes)]
        else:
            count = fault.count if fault.count is not None else 1
            targets = cluster.nodes[:count]
        shared: dict[str, Any] = {}
        armed: list[str] = []
        for node in targets:
            if node.crashed:
                continue
            cluster.network.set_send_filter(
                node.node_id, factory(node, cluster.network, fault, shared)
            )
            armed.append(node.node_id)
        self.byzantine_node_ids.extend(
            n for n in armed if n not in self.byzantine_node_ids
        )
        label = f"{fault.behavior} x{len(armed)}"
        cluster.auditor.fault_started(label)
        cluster.scheduler.schedule_at(
            fault.until_time, self._stop_byzantine, cluster, armed, label
        )

    def _stop_byzantine(
        self, cluster: "Cluster", armed: list[str], label: str
    ) -> None:
        for node_id in armed:
            cluster.network.clear_send_filter(node_id)
        cluster.auditor.fault_ended(label)


def _check_victims(cluster: "Cluster", where: str, fault: Any) -> None:
    """Reject a fault whose ``count`` or ``nodes`` names victims the
    cluster lacks, instead of silently arming fewer (or none)."""
    count, size = getattr(fault, "count", None), len(cluster.nodes)
    if count is not None and count > size:
        raise BenchmarkError(
            f"{where}.count: {count} exceeds the cluster's {size} nodes"
        )
    if count is not None and count < 0:
        raise BenchmarkError(f"{where}.count: {count} is negative")
    if fault.nodes is not None:
        known = set(cluster.node_ids())
        for node_id in fault.nodes:
            if node_id not in known:
                raise BenchmarkError(f"{where}.nodes: unknown node {node_id!r}")


_FAULT_TYPES = {
    "crashes": CrashFault,
    "delays": DelayFault,
    "corruptions": CorruptionFault,
    "partitions": PartitionFault,
    "byzantines": ByzantineFault,
}


def build_fault_schedule(spec: dict[str, Any]) -> FaultSchedule:
    """Turn a JSON-shaped fault dict into a fresh :class:`FaultSchedule`.

    ``{"crashes": [{"at_time": 15, "count": 2}]}`` and friends. Every
    entry value must fit its fault field's declared type; an error
    names it by path (``faults.crashes[0].at_time``), so a mistyped
    schedule fails here instead of inside the scheduler.
    """
    unknown = set(spec) - set(_FAULT_TYPES)
    if unknown:
        raise BenchmarkError(
            f"unknown fault kinds {sorted(unknown)}; "
            f"expected {sorted(_FAULT_TYPES)}"
        )
    kwargs: dict[str, list] = {}
    for key, fault_type in _FAULT_TYPES.items():
        entries = spec.get(key, [])
        check_value(entries, list, f"faults.{key}")
        hints = typing.get_type_hints(fault_type)
        kwargs[key] = []
        for index, entry in enumerate(entries):
            where = f"faults.{key}[{index}]"
            check_value(entry, dict, where)
            for name, value in entry.items():
                if name in hints:
                    check_value(value, hints[name], f"{where}.{name}")
            try:
                kwargs[key].append(fault_type(**entry))
            except TypeError as exc:
                raise BenchmarkError(f"{where}: bad {key} entry: {exc}") from None
    for byzantine in kwargs["byzantines"]:
        if byzantine.behavior not in BYZANTINE_BEHAVIORS:
            raise BenchmarkError(
                f"unknown byzantine behavior {byzantine.behavior!r}; "
                f"expected one of {sorted(BYZANTINE_BEHAVIORS)}"
            )
    return FaultSchedule(**kwargs)
