"""Chain substrate: transactions, blocks, fork-aware chain, mempool."""

from .block import GENESIS_PARENT, Block, BlockHeader, genesis_block
from .blockchain import Blockchain
from .mempool import Mempool
from .transaction import Receipt, Transaction

__all__ = [
    "GENESIS_PARENT",
    "Block",
    "BlockHeader",
    "genesis_block",
    "Blockchain",
    "Mempool",
    "Receipt",
    "Transaction",
]
