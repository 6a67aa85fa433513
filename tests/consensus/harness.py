"""Minimal ConsensusHost used to test protocols in isolation.

This is deliberately thinner than the real platform nodes: no contract
execution, no storage engines — just a chain, a mempool, and message
routing, so protocol behaviour can be asserted without platform noise.
"""

from __future__ import annotations

from repro.chain import Block, Blockchain, Mempool, Transaction
from repro.crypto import EMPTY_HASH
from repro.sim import Network, RngRegistry, Scheduler, SimNode


class HarnessNode(SimNode):
    """SimNode + ConsensusHost for protocol unit tests."""

    def __init__(self, node_id, scheduler, network, rng_registry, inbox_capacity=None):
        super().__init__(node_id, scheduler, network, inbox_capacity=inbox_capacity)
        self._rng = rng_registry.stream(node_id)
        self._chain = Blockchain()
        self.mempool = Mempool()
        self.protocol = None
        self.committed_blocks = []

    # -- ConsensusHost ---------------------------------------------------
    @property
    def now(self):
        return self.scheduler.now

    def send_to(self, recipient, kind, payload, size_bytes):
        self.send(recipient, kind, payload, size_bytes)

    def broadcast_to_peers(self, kind, payload, size_bytes):
        if self.crashed:
            return
        self.network.broadcast(
            self.node_id, self.peer_ids(), kind, payload, size_bytes
        )

    def peer_ids(self):
        return [n for n in self.network.node_ids() if n != self.node_id]

    def rng(self):
        return self._rng

    def chain(self):
        return self._chain

    def pending_count(self):
        return len(self.mempool)

    def oldest_request_age(self):
        return self.mempool.oldest_pending_age(self.now)

    def assemble_block(self, parent, consensus_meta, max_txs):
        txs = self.mempool.peek_batch(max_txs if max_txs is not None else 10_000)
        return Block.build(
            height=parent.height + 1,
            parent_hash=parent.hash,
            transactions=txs,
            state_root=EMPTY_HASH,
            proposer=self.node_id,
            timestamp=self.now,
            consensus_meta=consensus_meta,
        )

    def deliver_block(self, block, execute=True):
        was_new = not self._chain.contains(block.hash)
        changed = self._chain.add_block(block)
        if was_new and self._chain.contains(block.hash):
            self.mempool.remove(tx.tx_id for tx in block.transactions)
            self.committed_blocks.append(block)
        return changed

    # -- SimNode ----------------------------------------------------------
    def handle_message(self, message):
        if message.corrupted:
            return  # signature check fails
        if self.protocol is not None and message.kind in self.protocol.message_kinds:
            self.protocol.on_message(message.kind, message.payload, message.sender)

    def submit_tx(self, tx):
        if self.mempool.add(tx, self.now) and self.protocol is not None:
            self.protocol.on_new_pending_tx()

    def crash(self):
        super().crash()
        if self.protocol is not None:
            self.protocol.stop()


def build_cluster(n, protocol_factory, seed=42, inbox_capacity=None):
    """N HarnessNodes wired to one network, protocols attached."""
    scheduler = Scheduler()
    registry = RngRegistry(seed)
    network = Network(scheduler, registry)
    nodes = [
        HarnessNode(f"n{i}", scheduler, network, registry, inbox_capacity)
        for i in range(n)
    ]
    for node in nodes:
        node.protocol = protocol_factory(node, [x.node_id for x in nodes])
        node.protocol.start()
    return scheduler, network, nodes


def queued_timers(node):
    """``(when, fn, args)`` of every timer of ``node`` still queued and
    armed in its current crash epoch. Timers are never cancelled, so a
    test finds them on the scheduler's queues."""
    sched = node.scheduler
    queued = [(when, fn, args) for when, _, fn, args in sched._queue]
    queued += [(sched.now, fn, args) for _, fn, args in sched._runq]
    return [
        (when, args[1], args[2]) for when, fn, args in queued
        if fn == node._fire_timer and args[0] == node._epoch
    ]


def make_tx(i, contract="kv", function="write"):
    return Transaction.create(f"client-{i % 4}", contract, function, (i,), nonce=i)


def submit_everywhere(nodes, txs):
    for tx in txs:
        for node in nodes:
            node.submit_tx(tx)
