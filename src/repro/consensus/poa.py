"""Proof-of-Authority consensus (Parity's Aura).

A fixed authority set takes turns: wall-clock time is divided into
``step_duration`` slots and slot ``s`` belongs to authority
``s % len(authorities)`` (Section 3.1.1: "a set of authorities are
pre-determined and each authority is assigned a fixed time slot within
which it can generate blocks").

The paper's key Parity finding is that consensus is *not* the
bottleneck — server-side transaction signing is. That stage lives in
the platform (see ``platforms/parity.py``); here the protocol simply
drains whatever the signing stage has managed to admit, which is what
pins Parity's throughput at a constant rate regardless of load and node
count (Figures 5, 7, 8).

Forks: during a network partition every side keeps its slot schedule,
so both sides extend the chain and the shorter branch is discarded on
heal — Parity forks in Figure 10 just like Ethereum.
"""

from __future__ import annotations

from typing import Any

from ..chain.block import Block
from ..config import PoAConfig
from ..registry import register_consensus
from .base import ConsensusHost, ConsensusProtocol
from .gossip import AncestorFetcher

BLOCK_MSG = "poa/block"


@register_consensus("poa")
class ProofOfAuthority(ConsensusProtocol):
    """One authority's view of the Aura rotation."""

    message_kinds = (BLOCK_MSG,) + AncestorFetcher.message_kinds
    proposal_kinds = (BLOCK_MSG,)
    block_kinds = (BLOCK_MSG,)

    def __init__(
        self,
        host: ConsensusHost,
        config: PoAConfig,
        authorities: list[str],
    ) -> None:
        super().__init__(host)
        self.config = config
        self.fetcher = AncestorFetcher(host)
        self.authorities = list(authorities)
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        self._schedule_next_step()

    def stop(self) -> None:
        self._running = False

    def slot_owner(self, step: int) -> str:
        return self.authorities[step % len(self.authorities)]

    def current_step(self) -> int:
        return int(self.host.now / self.config.step_duration)

    def _schedule_next_step(self) -> None:
        if not self._running:
            return
        step = self.current_step() + 1
        fire_at = step * self.config.step_duration - self.host.now
        self.host.set_timer(fire_at, self._on_step, step)

    def _on_step(self, step: int) -> None:
        if not self._running:
            return
        if self.slot_owner(step) == self.host.node_id:
            self._seal_block(step)
        self._schedule_next_step()

    def _seal_block(self, step: int) -> None:
        parent = self.host.chain().tip
        block = self.host.assemble_block(
            parent,
            consensus_meta={"step": str(step), "sealer": self.host.node_id},
            max_txs=self.config.max_txs_per_block,
        )
        self.host.consume_cpu(self.config.seal_cost_s)
        self.host.deliver_block(block)
        self.host.broadcast_to_peers(BLOCK_MSG, block, block.size_bytes())

    # ------------------------------------------------------------------
    def on_message(self, kind: str, payload: Any, sender: str) -> None:
        if self.fetcher.on_message(kind, payload, sender):
            return
        if kind != BLOCK_MSG:
            return
        block: Block = payload
        if not self._valid_seal(block) or not self.proposal_intact(block):
            return
        self.host.deliver_block(block)
        self.fetcher.maybe_fetch(block, sender)

    def _valid_seal(self, block: Block) -> bool:
        """The sealer must own the slot it claims."""
        step_str = block.header.meta("step")
        sealer = block.header.meta("sealer")
        if not step_str or not sealer:
            return False
        return self.slot_owner(int(step_str)) == sealer

    def confirmed_height(self) -> int:
        return max(0, self.host.chain().height - self.config.confirmation_depth)
