"""Consensus protocol interface.

A protocol instance runs inside one platform node. It never touches the
network or chain directly — everything goes through the
:class:`ConsensusHost`, which the platform node implements. That keeps
the protocols independently testable against fake hosts and lets the
four platforms share one protocol implementation each with different
tuning.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Protocol

from ..chain.block import Block
from ..chain.blockchain import Blockchain


class ConsensusHost(Protocol):
    """Services a platform node offers to its consensus protocol."""

    node_id: str

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        ...

    def set_timer(self, delay: float, fn: Any, *args: Any) -> None:
        """Schedule ``fn(*args)`` after ``delay`` seconds. There is no
        cancelling it: a callback that may be overtaken checks on firing
        whether it still matters (a serial passed in ``args`` is the
        usual way). A timer armed before the node crashed never fires."""
        ...

    def set_timer_at(self, when: float, fn: Any, *args: Any) -> None:
        """:meth:`set_timer` at the absolute simulated time ``when`` —
        for a deadline that must be hit to the exact float."""
        ...

    def send_to(
        self, recipient: str, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Send one message to one peer over the simulated network."""
        ...

    def broadcast_to_peers(
        self, kind: str, payload: Any, size_bytes: int
    ) -> None:
        """Send one message to every peer (not to ourselves)."""
        ...

    def peer_ids(self) -> list[str]:
        """Node ids of every other node in the deployment."""
        ...

    def rng(self) -> random.Random:
        """This node's deterministic random stream (mining races)."""
        ...

    def consume_cpu(self, seconds: float) -> None:
        """Occupy the node's CPU — backpressures message processing."""
        ...

    def chain(self) -> Blockchain:
        """The node's local copy of the blockchain."""
        ...

    def pending_count(self) -> int:
        """Transactions waiting in the local mempool."""
        ...

    def oldest_request_age(self) -> float:
        """Seconds the oldest pending transaction has waited (drives
        Fabric v0.6's request-timeout watchdog)."""
        ...

    def assemble_block(
        self, parent: Block, consensus_meta: dict[str, Any], max_txs: int | None
    ) -> Block:
        """Batch pending transactions into a candidate block on top of
        ``parent``; ``consensus_meta`` is stamped into the header."""
        ...

    def deliver_block(self, block: Block, execute: bool = True) -> bool:
        """Append a decided block to the local chain (and execute it at
        confirmation); returns whether the main branch changed."""
        ...


#: Header meta key a forged proposal carries. ``garbage:*`` variants are
#: locally detectable (a digest that fails verification) and honest
#: nodes reject them via :meth:`ConsensusProtocol.proposal_intact`;
#: ``equivocate:*`` variants are well-formed conflicting proposals a
#: hash check cannot catch — only the cross-replica safety auditor can.
BYZ_META_KEY = "byz"


class ConsensusProtocol(ABC):
    """Base class for PoW, PoA, PBFT, and Tendermint."""

    #: Message kinds this protocol consumes (the node routes on these).
    message_kinds: tuple[str, ...] = ()
    #: Kinds whose payload is a proposed :class:`Block` — the targets of
    #: equivocation and digest corruption (adversary hook API).
    proposal_kinds: tuple[str, ...] = ()
    #: Kinds whose payload is a :class:`Block` the receiving node
    #: verifies transaction by transaction (the platform prices them per
    #: transaction). Not ``proposal_kinds``: a PoW block is verified on
    #: receipt but is no target of the proposal forgeries.
    block_kinds: tuple[str, ...] = ()
    #: Kinds carrying votes as ``{"digest": Hash, ...}`` dicts — the
    #: targets of vote withholding and digest rewriting.
    vote_kinds: tuple[str, ...] = ()

    def __init__(self, host: ConsensusHost) -> None:
        self.host = host

    def forge_proposal(self, kind: str, payload: Any, variant: str) -> Block | None:
        """A conflicting-but-plausible double of a proposal payload.

        The default handles the common shape — ``payload`` is the
        proposed :class:`Block` — by rebuilding it with an extra header
        meta key, which changes the hash while preserving every field a
        protocol validates (height, parent, round/step/sealer meta).
        Returns ``None`` when the payload is not forgeable.
        """
        if kind not in self.proposal_kinds or not isinstance(payload, Block):
            return None
        meta = dict(payload.header.consensus_meta)
        meta[BYZ_META_KEY] = variant
        return Block.build(
            height=payload.height,
            parent_hash=payload.header.parent_hash,
            transactions=payload.transactions,
            state_root=payload.header.state_root,
            proposer=payload.header.proposer,
            timestamp=payload.header.timestamp,
            consensus_meta=meta,
        )

    def proposal_intact(self, block: Block) -> bool:
        """Digest verification an honest replica performs on a proposal:
        a block whose advertised digest fails the content check (the
        ``garbage`` forgeries) is rejected; an equivocated block is
        internally consistent and passes."""
        return not block.header.meta(BYZ_META_KEY, "").startswith("garbage")

    @abstractmethod
    def start(self) -> None:
        """Begin participating (arm timers, start mining, ...)."""

    @abstractmethod
    def on_message(self, kind: str, payload: Any, sender: str) -> None:
        """Handle one consensus message routed by the platform node."""

    def on_new_pending_tx(self) -> None:
        """Hook: a transaction entered the local mempool."""

    def stop(self) -> None:
        """Stop participating (crash injection support)."""

    def restart(self, height: int, view_hint: int = 0) -> None:
        """Rejoin consensus after crash recovery at ``height``.

        Called by the platform node once block sync has caught the
        local chain up to the live tip. ``height`` is the synced chain
        height; ``view_hint`` is the highest view/round number learned
        from sync peers (meaningful for view-based protocols — PBFT
        adopts it so the rejoining replica does not trigger spurious
        view changes from a stale view). The default is sufficient for
        protocols whose position derives from time or chain state
        alone: it simply re-arms via :meth:`start`.
        """
        self.start()

    def sync_hint(self) -> int:
        """The view/round number a sync peer reports to a recovering
        node (fed back as ``view_hint`` to :meth:`restart`). Protocols
        without a view concept return 0."""
        return 0
