"""ErisDB platform (Monax / eris-db analogue) — the fourth backend.

The paper lists ErisDB as "under development" as a BLOCKBENCH backend
(Section 3.2) and surveys it in Table 2: Tendermint BFT consensus, the
EVM execution engine, an account-based data model. This module
completes the integration:

* **consensus** — :class:`~repro.consensus.tendermint.Tendermint`
  (round-based BFT with immediate finality);
* **data model** — account state in a Patricia-Merkle trie kept in
  memory (the IAVL-tree analogue), with per-height snapshots so
  historical queries work like Ethereum's;
* **execution** — the EVM cost profile (ErisDB runs Solidity contracts
  in an EVM, so execution is priced like Ethereum's, not like
  Hyperledger's native chaincode);
* **application interface** — the standard RPC set *plus* the
  publish/subscribe interface the paper singles out: "ErisDB provides
  a publish/subscribe interface that could simplify the implementation
  of [getLatestBlock]" (Section 3.2). Clients may subscribe once and
  receive a push event per executed block instead of polling.
"""

from __future__ import annotations

from ..chain import Block
from ..config import ErisDBConfig, erisdb_config
from ..consensus.tendermint import Tendermint
from ..registry import register_platform
from ..sim import Message, Network, RngRegistry, Scheduler
from .base import PlatformNode
from .triestate import TrieState

RPC_SUBSCRIBE = "rpc/subscribe"
RPC_UNSUBSCRIBE = "rpc/unsubscribe"
RPC_EVENT = "rpc/event"


@register_platform(
    "erisdb",
    default_config=erisdb_config,
    description="ErisDB: Tendermint BFT with a pub/sub block feed",
)
class ErisDBNode(PlatformNode):
    """eris-db validator: Tendermint + EVM + pub/sub block events."""

    supports_subscription = True
    config: ErisDBConfig

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        rng_registry: RngRegistry,
        config: ErisDBConfig,
        all_ids: list[str],
    ) -> None:
        super().__init__(node_id, scheduler, network, rng_registry, config, all_ids)
        #: subscriber client id -> subscription id (one sub per client).
        self._subscribers: dict[str, int] = {}
        self.events_published = 0

    def _new_state(self) -> TrieState:
        return TrieState()

    def _new_protocol(self, all_ids: list[str]) -> Tendermint:
        return Tendermint(self, self.config.tendermint, all_ids)

    # ------------------------------------------------------------------
    # Publish/subscribe (the Section 3.2 interface)
    # ------------------------------------------------------------------
    def handle_message(self, message: Message) -> None:
        if message.kind == RPC_SUBSCRIBE and not message.corrupted:
            self._on_subscribe(message)
        elif message.kind == RPC_UNSUBSCRIBE and not message.corrupted:
            self._on_unsubscribe(message)
        else:
            super().handle_message(message)

    #: Spacing between replayed events. The event feed is a stream (one
    #: TCP connection), so replayed blocks must arrive in height order;
    #: pacing them beyond the network's jitter window models that FIFO
    #: property on top of the jittering message layer.
    REPLAY_SPACING_S = 0.001

    def _on_subscribe(self, message: Message) -> None:
        sub_id = message.payload["req_id"]
        from_height = message.payload.get("from_height", 0)
        self._subscribers[message.sender] = sub_id
        # Replay blocks the subscriber missed, so subscribing is
        # race-free with respect to commits that landed just before.
        confirmed = min(self.confirmed_height(), self.executed_height)
        for i, block in enumerate(
            self._chain.blocks_in_range(from_height, confirmed)
        ):
            self.set_timer(
                i * self.REPLAY_SPACING_S,
                self._push_event,
                message.sender,
                sub_id,
                block,
            )

    def _on_unsubscribe(self, message: Message) -> None:
        """Stop publishing to the sender: without this, a client that
        dropped its local callback would keep receiving (and paying
        network delivery for) one event per executed block forever."""
        sub_id = message.payload.get("sub_id")
        if self._subscribers.get(message.sender) == sub_id:
            del self._subscribers[message.sender]

    def _execute_block(self, block: Block) -> None:
        super()._execute_block(block)
        for client, sub_id in self._subscribers.items():
            self._push_event(client, sub_id, block)

    def _push_event(self, client: str, sub_id: int, block: Block) -> None:
        summary = {
            "height": block.height,
            "timestamp": block.header.timestamp,
            "tx_ids": block.tx_ids,
        }
        self.events_published += 1
        self.send(
            client,
            RPC_EVENT,
            {"sub_id": sub_id, "block": summary},
            64 + 40 * len(summary["tx_ids"]),
        )
