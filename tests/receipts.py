"""A reference reader of one replica's receipts, by transaction id.

A run reads a block's outcome as the columns of its
:class:`~repro.chain.BlockReceipts` record and never asks for one
transaction's receipt. Tests that compare outcomes transaction by
transaction read them here, with the lookup rule of a per-transaction
receipt store: the latest-filed block holding the transaction, and its
last copy should that block hold it twice.
"""

from __future__ import annotations

from typing import NamedTuple


class ReceiptRow(NamedTuple):
    """One transaction's outcome, read from its block's columns."""

    tx_id: str
    block_height: int
    success: bool
    gas_used: int
    error: str


def receipt_of(executed, tx_id: str) -> ReceiptRow | None:
    """``tx_id``'s outcome in ``executed`` (a replica's
    :class:`~repro.platforms.base.ExecutedReceipts`), or None when the
    replica filed no block holding it."""
    held = executed.index.get(tx_id)
    if held is None:
        return None
    held = held if type(held) is tuple else (held,)
    blocks = executed.blocks
    # One candidate (the common case) or the latest filing of many.
    for block_hash in held if len(held) < 2 else reversed(blocks):
        if block_hash in held and block_hash in blocks:
            record = blocks[block_hash]
            tx_ids = record.tx_ids
            for i in range(len(tx_ids) - 1, -1, -1):
                if tx_ids[i] == tx_id:
                    return ReceiptRow(
                        tx_id,
                        record.height,
                        record.success[i] == 1,
                        record.gas_used[i],
                        record.errors.get(i, ""),
                    )
    return None
