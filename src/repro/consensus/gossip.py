"""Ancestor fetch for chain-based gossip protocols (PoW and PoA).

When a node receives a block whose parent it does not know — typical
right after a partition heals, when each side extended its own branch —
it asks the sender for the missing ancestors. The sender walks parent
pointers back from the requested hash and ships the blocks oldest-first
so the receiver's orphan pool connects in one pass. If the oldest block
shipped still does not connect, the receiver simply asks again from the
new frontier, terminating at the common ancestor.
"""

from __future__ import annotations

from typing import Any

from ..chain.block import Block
from .base import ConsensusHost

FETCH_REQ = "gossip/fetch-req"
FETCH_RESP = "gossip/fetch-resp"

#: How many ancestors one fetch round returns.
FETCH_BATCH = 32


class AncestorFetcher:
    """Shared fetch logic; protocols delegate their fetch messages here."""

    message_kinds = (FETCH_REQ, FETCH_RESP)

    def __init__(self, host: ConsensusHost) -> None:
        self.host = host

    def maybe_fetch(self, block: Block, sender: str) -> None:
        """Request ancestors if ``block`` failed to connect."""
        chain = self.host.chain()
        if chain.contains(block.hash):
            return
        if chain.contains(block.header.parent_hash):
            return
        self.host.send_to(
            sender,
            FETCH_REQ,
            {"from_hash": block.header.parent_hash, "count": FETCH_BATCH},
            96,
        )

    def on_message(self, kind: str, payload: Any, sender: str) -> bool:
        """Handle a fetch message; returns True if it was consumed."""
        if kind == FETCH_REQ:
            self._on_fetch_req(payload, sender)
            return True
        if kind == FETCH_RESP:
            self._on_fetch_resp(payload, sender)
            return True
        return False

    def _on_fetch_req(self, payload: dict, sender: str) -> None:
        chain = self.host.chain()
        cursor = chain.block_by_hash(payload["from_hash"])
        blocks: list[Block] = []
        while cursor is not None and cursor.height > 0 and len(blocks) < payload["count"]:
            blocks.append(cursor)
            cursor = chain.block_by_hash(cursor.header.parent_hash)
        if not blocks:
            return
        blocks.reverse()  # oldest first so they connect in order
        size = sum(b.size_bytes() for b in blocks)
        self.host.send_to(sender, FETCH_RESP, blocks, size)

    def _on_fetch_resp(self, blocks: list[Block], sender: str) -> None:
        if not blocks:
            return
        for block in blocks:
            self.host.deliver_block(block)
        oldest = blocks[0]
        chain = self.host.chain()
        if not chain.contains(oldest.hash):
            # Still disconnected: keep walking back from the new frontier.
            self.host.send_to(
                sender,
                FETCH_REQ,
                {"from_hash": oldest.header.parent_hash, "count": FETCH_BATCH},
                96,
            )
