"""The layer table: which entry points belong to which simulator layer.

Layers are the repo's own modules. ``ENTRY_POINTS`` lists, per layer,
the dotted names the tracer wraps — the calls *into* that layer. A
trailing ``.*`` means every public function the class itself defines.
``MODULE_LAYERS`` maps a callback's defining module to its layer, for
the root span opened around every scheduler callback.

A name that no longer resolves is skipped and reported in
``trace.missing_entry_points``; renaming an entry point degrades
per-layer detail and never breaks the end-to-end metrics.
"""

from __future__ import annotations

_CONSENSUS_CLASSES = (
    "repro.consensus.pbft.PBFT",
    "repro.consensus.pow.ProofOfWork",
    "repro.consensus.poa.ProofOfAuthority",
    "repro.consensus.tendermint.Tendermint",
)
_CONSENSUS_METHODS = ("on_message", "on_new_pending_tx", "start", "restart")

_PLATFORM_STATES = (
    "repro.platforms.base.JournaledState",
    "repro.platforms.parity.ParityState",
)
_WORKLOAD_CLASSES = (
    "repro.workloads.ycsb.YCSBWorkload",
    "repro.workloads.smallbank.SmallbankWorkload",
)

ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "sim.events": (
        "repro.sim.events.Scheduler.schedule",
        "repro.sim.events.Scheduler.schedule_at",
        "repro.sim.events.Scheduler.push_many",
        "repro.sim.events.Scheduler.run_until",
    ),
    "sim.network": (
        "repro.sim.network.Network.send",
        "repro.sim.network.Network.broadcast",
    ),
    "sim.node": (
        "repro.sim.node.SimNode.deliver",
        "repro.sim.node.SimNode.set_timer",
    ),
    "consensus": tuple(
        f"{cls}.{method}"
        for cls in _CONSENSUS_CLASSES
        for method in _CONSENSUS_METHODS
    ),
    "chain": (
        "repro.chain.transaction.Transaction.create",
        "repro.chain.transaction.Transaction.encode",
        "repro.chain.transaction.Transaction.size_bytes",
        "repro.chain.block.Block.build",
        "repro.chain.block.Block.size_bytes",
        "repro.chain.block.BlockHeader.block_hash",
        "repro.chain.mempool.Mempool.add",
        "repro.chain.mempool.Mempool.peek_batch",
        "repro.chain.mempool.Mempool.remove",
        "repro.chain.blockchain.Blockchain.add_block",
    ),
    "crypto.hashing": (
        "repro.crypto.hashing.hash_items",
        "repro.crypto.hashing.sha256",
    ),
    "crypto.trie": ("repro.crypto.trie.StateTrie.*",),
    "crypto.bucket_tree": ("repro.crypto.bucket_tree.BucketTree.*",),
    "platforms": (
        "repro.platforms.base.PlatformNode.handle_message",
        "repro.platforms.base.PlatformNode.assemble_block",
        "repro.platforms.base.PlatformNode.deliver_block",
        "repro.platforms.base.PlatformNode.recover",
        "repro.platforms.base.PlatformNode.bootstrap_put",
        "repro.platforms.base.PlatformNode.bootstrap_commit",
        "repro.platforms.parity.ParityNode.handle_message",
        "repro.platforms.parity.ParityNode.recover",
        "repro.platforms.erisdb.ErisDBNode.handle_message",
        "repro.platforms.base.ExecutionCache.lookup",
        "repro.platforms.base.ExecutionCache.store",
    ) + tuple(
        f"{cls}.{method}"
        for cls in _PLATFORM_STATES
        for method in ("get", "put", "delete")
    ) + (
        "repro.platforms.base.JournaledState.commit_block",
        "repro.platforms.base.JournaledState.apply_write_set",
    ),
    "contracts": ("repro.contracts.base.Contract.invoke",),
    # The client path: driver clients are coroutines resumed inline by
    # the sim.futures trampoline from RPCClient.handle_message, so the
    # connector, RPC endpoint and trampoline all count as the driver.
    "core.driver": (
        "repro.core.connector.RPCClient.handle_message",
        "repro.core.connector.RPCClient.request",
        "repro.core.connector.SimChainConnector.send_transaction",
        "repro.core.connector.SimChainConnector.get_latest_block",
        "repro.core.connector.SimChainConnector.get_block_transactions",
        "repro.core.connector.SimChainConnector.query",
        "repro.core.connector.SimChainConnector.subscribe_new_blocks",
        "repro.core.connector.SimChainConnector.fail_over",
    ),
    "workloads": tuple(
        f"{cls}.next_transaction" for cls in _WORKLOAD_CLASSES
    ) + (
        "repro.core.workload.ArrivalGenerator.__next__",
        "repro.core.workload.ArrivalGenerator.take",
    ),
    "core.stats": (
        "repro.core.stats.StatsCollector.record_submission",
        "repro.core.stats.StatsCollector.record_rejection",
        "repro.core.stats.StatsCollector.record_confirmation",
        "repro.core.stats.StatsCollector.record_queue_length",
        "repro.core.stats.StatsCollector.summary",
        "repro.core.stats.merge_collectors",
    ),
    "core.trace": (
        "repro.core.trace.StageTracer.record",
        "repro.core.trace.StageTracer.record_block",
        "repro.core.trace.StageTracer.record_submit",
        "repro.core.trace.StageTracer.record_admit",
        "repro.core.trace.StageTracer.record_propose",
        "repro.core.trace.StageTracer.record_decide",
        "repro.core.trace.StageTracer.record_execute",
        "repro.core.trace.StageTracer.record_commit",
        "repro.core.trace.StageTracer.record_notify",
        "repro.core.trace.StageTracer.queue_depths",
        "repro.core.trace.StageTracer.breakdown",
    ),
    "core.audit": (
        "repro.core.audit.ChainAuditor.record_commit",
        "repro.core.audit.ChainAuditor.report",
    ),
}

#: Time inside the traced run that no entry point or callback claims
#: (result assembly after the event loop, fault-injection callbacks).
OTHER = "other"

LAYERS: tuple[str, ...] = tuple(ENTRY_POINTS) + (OTHER,)

#: Defining-module prefix -> layer, longest prefix wins. The *defining*
#: module (``fn.__module__``), not the instance's class: a
#: ``SimNode._process_next`` bound to a ``HyperledgerNode`` is node-queue
#: time, and crosses into ``platforms`` at ``handle_message``.
MODULE_LAYERS: dict[str, str] = {
    "repro.sim.events": "sim.events",
    "repro.sim.network": "sim.network",
    "repro.sim.node": "sim.node",
    "repro.sim.futures": "core.driver",
    "repro.consensus": "consensus",
    "repro.chain": "chain",
    "repro.crypto.hashing": "crypto.hashing",
    "repro.crypto.trie": "crypto.trie",
    "repro.crypto.bucket_tree": "crypto.bucket_tree",
    "repro.platforms": "platforms",
    "repro.contracts": "contracts",
    "repro.core.driver": "core.driver",
    "repro.core.connector": "core.driver",
    "repro.workloads": "workloads",
    "repro.core.workload": "workloads",
    "repro.core.stats": "core.stats",
    "repro.core.trace": "core.trace",
    "repro.core.audit": "core.audit",
}


def layer_of_module(module: str) -> str:
    """Layer owning ``module`` (longest ``MODULE_LAYERS`` prefix)."""
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return OTHER
