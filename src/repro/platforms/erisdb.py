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
from ..consensus.tendermint import PROPOSAL, Tendermint
from ..registry import register_platform
from ..sim import Message, Network, RngRegistry, Scheduler
from .base import PlatformNode
from .ethereum import EthereumState

RPC_SUBSCRIBE = "rpc/subscribe"
RPC_UNSUBSCRIBE = "rpc/unsubscribe"
RPC_EVENT = "rpc/event"


class ErisDBState(EthereumState):
    """Account trie held in memory — ErisDB's IAVL-tree analogue.

    Same structure and snapshot semantics as the Ethereum state, but
    never backed by the LSM store: eris-db v0.x kept its merkle state
    in memory and persisted through Tendermint's block store. The
    journaled overlay and batched per-block trie flush are inherited
    from :class:`EthereumState`, so Tendermint commits pay one shared
    path rewrite per block too.
    """

    def __init__(self) -> None:
        super().__init__(storage_dir=None)


class ErisDBNode(PlatformNode):
    """eris-db validator: Tendermint + EVM + pub/sub block events."""

    supports_subscription = True

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        rng_registry: RngRegistry,
        config: ErisDBConfig | None = None,
        validators: list[str] | None = None,
    ) -> None:
        config = config or erisdb_config()
        super().__init__(
            node_id, scheduler, network, rng_registry, config, ErisDBState()
        )
        self.eris_config = config
        self.attach_protocol(
            Tendermint(self, config.tendermint, validators or [node_id])
        )
        #: subscriber client id -> subscription id (one sub per client).
        self._subscribers: dict[str, int] = {}
        self.events_published = 0

    def start(self) -> None:
        self.protocol.start()

    def _fresh_state(self) -> ErisDBState:
        """Empty in-memory trie for cold recovery."""
        return ErisDBState()

    # ------------------------------------------------------------------
    # Message costs: a Tendermint proposal carries a block and pays
    # per-transaction verification, like a PBFT pre-prepare.
    # ------------------------------------------------------------------
    def message_cost(self, message: Message) -> float:
        if message.kind == PROPOSAL:
            block: Block = message.payload
            costs = self.config.execution
            return costs.consensus_msg_cost_s + costs.verify_cost_s * len(
                block.transactions
            )
        return super().message_cost(message)

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


@register_platform(
    "erisdb",
    default_config=erisdb_config,
    description="ErisDB: Tendermint BFT with a pub/sub block feed",
)
def build_erisdb_node(
    node_id: str,
    scheduler: Scheduler,
    network: Network,
    rng: RngRegistry,
    config: ErisDBConfig,
    all_ids: list[str],
    storage_dir=None,
) -> ErisDBNode:
    """Node factory used by ``build_cluster`` (see ``repro.registry``)."""
    return ErisDBNode(node_id, scheduler, network, rng, config, validators=all_ids)
