"""Proof-of-Work consensus (Ethereum's Ethash, abstracted).

Mining is a memoryless search, so each miner's time-to-solution is an
exponential random variable whose mean is ``difficulty x n_miners``
(with homogeneous hashpower, the *network* then finds one block per
``difficulty`` seconds on average). The protocol reproduces the PoW
behaviours the paper measures:

* probabilistic block intervals (latency variance, Figure 17),
* natural and partition-induced forks with longest-chain resolution
  (Figure 10),
* difficulty retargeting, including the paper's observation that the
  difficulty must grow faster than the node count to keep large
  networks from diverging (Section 4.1.2, Figure 8),
* full-CPU mining (Figure 16's CPU-bound profile).
"""

from __future__ import annotations

from typing import Any

from ..chain.block import Block
from ..config import PoWConfig
from ..registry import register_consensus
from .base import ConsensusHost, ConsensusProtocol
from .gossip import AncestorFetcher

BLOCK_MSG = "pow/block"


@register_consensus("pow")
class ProofOfWork(ConsensusProtocol):
    """One miner's view of the PoW protocol."""

    message_kinds = (BLOCK_MSG,) + AncestorFetcher.message_kinds
    block_kinds = (BLOCK_MSG,)

    def __init__(self, host: ConsensusHost, config: PoWConfig) -> None:
        super().__init__(host)
        self.config = config
        self.fetcher = AncestorFetcher(host)
        #: Names the current search; _restart_mining and stop() bump it,
        #: so a solution timer armed for an abandoned search is ignored.
        self._mining_serial = 0
        self._mining_started_at: float | None = None
        self._current_parent_hash: bytes | None = None
        self._running = False
        # Difficulty expressed as the network-wide mean seconds/block.
        self.difficulty_interval = config.base_block_interval

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self._running = True
        n_nodes = len(self.host.peer_ids()) + 1
        self.difficulty_interval = self.config.network_interval(n_nodes)
        self._restart_mining()

    def stop(self) -> None:
        self._running = False
        self._account_mining_cpu()
        self._mining_serial += 1

    def restart(self, height: int, view_hint: int = 0) -> None:
        """Resume mining on the synced tip after crash recovery.

        Difficulty is a chain property, not process state: the tip
        block's header carries the interval the network had converged
        to, so a recovered miner adopts it instead of resetting to the
        cold-start baseline (which would briefly over-produce blocks).
        """
        self._running = True
        tip_difficulty = self.host.chain().tip.header.meta("difficulty", "")
        if tip_difficulty:
            self.difficulty_interval = float(tip_difficulty)
        else:
            n_nodes = len(self.host.peer_ids()) + 1
            self.difficulty_interval = self.config.network_interval(n_nodes)
        self._restart_mining()

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------
    def _expected_solo_interval(self) -> float:
        """Mean solve time for this miner alone."""
        n_miners = len(self.host.peer_ids()) + 1
        return self.difficulty_interval * n_miners

    def _restart_mining(self) -> None:
        if not self._running:
            return
        self._account_mining_cpu()
        self._mining_serial = serial = self._mining_serial + 1
        delay = self.host.rng().expovariate(1.0 / self._expected_solo_interval())
        self._mining_started_at = self.host.now
        self._current_parent_hash = self.host.chain().tip.hash
        self.host.set_timer(delay, self._found_block, serial)

    def _account_mining_cpu(self) -> None:
        """Mining burns all cores for the whole search window."""
        if self._mining_started_at is not None:
            elapsed = self.host.now - self._mining_started_at
            self.host.consume_cpu(elapsed * self.config.mining_cores)
            self._mining_started_at = None

    def _found_block(self, serial: int) -> None:
        if serial != self._mining_serial:
            return  # the search was restarted or stopped since
        self._account_mining_cpu()
        parent = self.host.chain().tip
        # A solution only counts against the tip we were mining on.
        if self._current_parent_hash != parent.hash:
            self._restart_mining()
            return
        block = self.host.assemble_block(
            parent,
            consensus_meta={
                "difficulty": f"{self.difficulty_interval:.4f}",
                "nonce": str(self.host.rng().getrandbits(64)),
            },
            max_txs=self.config.max_txs_per_block,
        )
        self._retarget(parent, block)
        self.host.deliver_block(block)
        self.host.broadcast_to_peers(BLOCK_MSG, block, block.size_bytes())
        self._restart_mining()

    def _retarget(self, parent: Block, block: Block) -> None:
        """Homeostatic difficulty adjustment toward the target interval."""
        n_nodes = len(self.host.peer_ids()) + 1
        target = self.config.network_interval(n_nodes)
        observed = block.header.timestamp - parent.header.timestamp
        if observed < target:
            self.difficulty_interval *= 1.0 + self.config.retarget_step
        else:
            self.difficulty_interval = max(
                target, self.difficulty_interval * (1.0 - self.config.retarget_step)
            )

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def on_message(self, kind: str, payload: Any, sender: str) -> None:
        if self.fetcher.on_message(kind, payload, sender):
            if self.host.chain().tip.hash != self._current_parent_hash:
                self._restart_mining()
            return
        if kind != BLOCK_MSG:
            return
        block: Block = payload
        reorganized = self.host.deliver_block(block)
        self.fetcher.maybe_fetch(block, sender)
        if reorganized:
            # Tip moved: abandon the stale search immediately.
            self._restart_mining()

    def confirmed_height(self) -> int:
        """Highest height the paper's client driver would treat as final."""
        return max(0, self.host.chain().height - self.config.confirmation_depth)
