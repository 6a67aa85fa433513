"""Cluster builder: a private testnet of one platform.

Assembles scheduler, network, N platform nodes with peering, deployed
contracts, and an optional resource monitor — the simulated equivalent
of the paper's 48-node commodity cluster on a 1 Gb switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..core.audit import ChainAuditor
from ..core.trace import StageTracer
from ..errors import BenchmarkError
from ..registry import PLATFORMS
from ..sim import Network, ResourceMonitor, RngRegistry, Scheduler
from .base import ExecutionCache, PlatformNode

DEFAULT_CONTRACTS = (
    "kvstore",
    "smallbank",
    "donothing",
    "ioheavy",
    "cpuheavy",
    "versionkv",
    "etherid",
    "doubler",
    "wavespresale",
)


@dataclass
class Cluster:
    """A running testnet plus its simulation plumbing."""

    platform: str
    scheduler: Scheduler
    network: Network
    rng: RngRegistry
    nodes: list[PlatformNode]
    monitor: ResourceMonitor | None = None
    #: Always-on chain safety auditor (fork/digest/monotonicity checks).
    auditor: ChainAuditor | None = None
    #: Lifecycle stage tracer (``trace_stages`` knob; None when off).
    tracer: StageTracer | None = None

    def node_ids(self) -> list[str]:
        return [node.node_id for node in self.nodes]

    def run_until(self, deadline: float) -> None:
        self.scheduler.run_until(deadline)

    def alive_nodes(self) -> list[PlatformNode]:
        return [node for node in self.nodes if not node.crashed]

    def crash_named(self, node_ids: Iterable[str]) -> list[str]:
        """Crash an explicit set of nodes (every CrashFault's victims)."""
        wanted = set(node_ids)
        victims = [node for node in self.nodes if node.node_id in wanted]
        for node in victims:
            node.crash()
        return [node.node_id for node in victims]

    def recover_nodes(
        self, node_ids: Iterable[str], mode: str = "warm"
    ) -> list[str]:
        """Restart crashed nodes; each begins chain catch-up and rejoins
        consensus when synced (see PlatformNode.recover)."""
        wanted = set(node_ids)
        recovered = []
        for node in self.nodes:
            if node.node_id in wanted and node.crashed:
                node.recover(mode)
                recovered.append(node.node_id)
        return recovered

    def recovery_times(self) -> dict[str, float]:
        """Latest completed recovery cycle per node (empty when none)."""
        return {
            node.node_id: node.recovery_times[-1]
            for node in self.nodes
            if node.recovery_times
        }

    def sync_traffic(self) -> dict[str, int]:
        """Cluster-total block-sync counters (crash-recovery traffic)."""
        return {
            "requests": sum(n.sync_requests_sent for n in self.nodes),
            "blocks": sum(n.sync_blocks_received for n in self.nodes),
            "bytes": sum(n.sync_bytes_received for n in self.nodes),
        }

    def partition_halves(self) -> tuple[list[str], list[str]]:
        """Split the testnet in half (the Figure 10 attack)."""
        ids = self.node_ids()
        half = len(ids) // 2
        first, second = ids[:half], ids[half:]
        self.network.partition([first, second])
        return first, second

    def heal(self) -> None:
        self.network.heal()

    def committed_tx_count(self) -> int:
        """Committed transactions as seen by the first live node."""
        alive = self.alive_nodes()
        return alive[0].committed_tx_count if alive else 0

    def chain_height(self) -> int:
        alive = self.alive_nodes()
        return alive[0].chain().height if alive else 0

    def global_block_stats(self) -> tuple[int, int]:
        """(total distinct blocks anywhere, blocks on the main branch).

        The paper's Figure 10 metric is global: blocks abandoned after
        a partition heals survive only in the stores of the nodes that
        produced them, so the union across nodes is required.
        """
        all_hashes: set[bytes] = set()
        for node in self.nodes:
            chain = node.chain()
            for block in chain._blocks.values():  # noqa: SLF001 - metric probe
                if block.height > 0:
                    all_hashes.add(block.hash)
        main = max(
            (node.chain() for node in self.nodes), key=lambda c: c.height
        )
        return len(all_hashes), main.main_branch_blocks

    def stale_executions(self) -> int:
        """Executed blocks that a later reorg replaced, across nodes.

        A block is executed once it reaches the platform's confirmation
        depth; if the final main branch carries a *different* block at
        that height, every state change a client acted on there was
        unwound — the double-spend window the confirmation-depth
        ablation quantifies.
        """
        reference = max(
            (node.chain() for node in self.nodes), key=lambda c: c.height
        )
        stale = 0
        for node in self.nodes:
            for height, executed_hash in node.executed_block_hashes.items():
                final = reference.block_by_height(height)
                if final is not None and final.hash != executed_hash:
                    stale += 1
        return stale

    def close(self) -> None:
        for node in self.nodes:
            node.close()


def build_cluster(
    platform: str,
    n_nodes: int,
    seed: int = 42,
    config_overrides: dict | None = None,
    with_monitor: bool = False,
    trace_stages: bool = True,
) -> Cluster:
    """Build and start an N-node testnet of ``platform``.

    ``config_overrides`` is a JSON-shaped knob dict (scenario-file
    ``overrides``) applied to the platform's registered default config
    via :func:`repro.config.apply_overrides`. Every node deploys the
    :data:`DEFAULT_CONTRACTS`.
    """
    if n_nodes < 1:
        raise BenchmarkError("cluster needs at least one node")
    scheduler = Scheduler()
    rng = RngRegistry(seed)
    network = Network(scheduler, rng)
    ids = [f"server-{i}" for i in range(n_nodes)]
    spec = PLATFORMS.get(platform)
    config = spec.make_config(config_overrides)
    nodes: list[PlatformNode] = [
        spec.factory(node_id, scheduler, network, rng, config, ids)
        for node_id in ids
    ]

    # One shared execution-memoization cache per cluster: the first
    # replica to execute a block records its write-set, the rest
    # replay it (see repro.platforms.base.ExecutionCache). It knows
    # the replica count, so a commit record retires on its last
    # install. Gated by the platform-config knob so scenarios can A/B it.
    if config.execution_cache:
        cache = ExecutionCache(n_nodes)
        for node in nodes:
            node.attach_execution_cache(cache)

    # Always-on safety auditor: every node's finalized blocks feed the
    # fork/digest/monotonicity checks (ISSUE: adversarial fault axis).
    auditor = ChainAuditor(network)
    for node in nodes:
        node.attach_auditor(auditor)

    # Lifecycle stage tracer (repro.core.trace): one shared recorder
    # stamps admit/propose/decide/execute/commit for every transaction
    # through protocol-neutral hooks. Recording never charges CPU or
    # schedules events, so the timeline is identical with it off.
    tracer = None
    if trace_stages:
        tracer = StageTracer()
        for node in nodes:
            node.attach_tracer(tracer)

    for node in nodes:
        node.set_peers(ids)
        for contract_name in DEFAULT_CONTRACTS:
            node.deploy(contract_name)
    for node in nodes:
        node.start()

    monitor = None
    if with_monitor:
        monitor = ResourceMonitor(scheduler, network, nodes, cores=8)
        monitor.start()
    return Cluster(
        platform=platform,
        scheduler=scheduler,
        network=network,
        rng=rng,
        nodes=nodes,
        monitor=monitor,
        auditor=auditor,
        tracer=tracer,
    )
