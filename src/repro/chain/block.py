"""Blocks and block headers.

The header carries the two Merkle commitments described in the paper's
data-model layer (Figure 1): the transaction root (classic Merkle tree)
and the state root (Patricia-Merkle or Bucket-Merkle depending on the
platform), plus consensus metadata — PoW difficulty/nonce, PoA slot, or
PBFT view — in a protocol-agnostic ``consensus_meta`` mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..crypto.hashing import EMPTY_HASH, Hash, hash_items, short_hex
from ..crypto.merkle import merkle_root
from .transaction import Transaction

GENESIS_PARENT = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header; identity is the hash of its fields."""

    height: int
    parent_hash: Hash
    tx_root: Hash
    state_root: Hash
    proposer: str
    timestamp: float
    consensus_meta: tuple[tuple[str, str], ...] = ()

    def block_hash(self) -> Hash:
        """Cryptographic identity: the hash over every header field.

        Computed once: the header is frozen, and every replica asks for
        it many times per block.
        """
        try:
            return self._block_hash
        except AttributeError:
            digest = hash_items(
                self.height.to_bytes(8, "big"),
                self.parent_hash,
                self.tx_root,
                self.state_root,
                self.proposer.encode(),
                repr(self.timestamp).encode(),
                repr(self.consensus_meta).encode(),
            )
            object.__setattr__(self, "_block_hash", digest)
            return digest

    def meta(self, key: str, default: str = "") -> str:
        """Read one consensus_meta entry (PoW nonce, PBFT view, ...)."""
        for k, v in self.consensus_meta:
            if k == key:
                return v
        return default


@dataclass
class Block:
    """A header plus its transaction body."""

    header: BlockHeader
    transactions: list[Transaction] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        height: int,
        parent_hash: Hash,
        transactions: list[Transaction],
        state_root: Hash,
        proposer: str,
        timestamp: float,
        consensus_meta: dict[str, Any] | None = None,
    ) -> "Block":
        """Assemble a block: computes the transaction Merkle root and
        freezes the consensus metadata into the header."""
        meta = tuple(sorted((k, str(v)) for k, v in (consensus_meta or {}).items()))
        header = BlockHeader(
            height=height,
            parent_hash=parent_hash,
            tx_root=merkle_root([tx.encode() for tx in transactions]),
            state_root=state_root,
            proposer=proposer,
            timestamp=timestamp,
            consensus_meta=meta,
        )
        return cls(header=header, transactions=list(transactions))

    @property
    def hash(self) -> Hash:
        """The header hash (block identity)."""
        return self.header.block_hash()

    @property
    def height(self) -> int:
        """Convenience accessor for the header height."""
        return self.header.height

    @property
    def tx_ids(self) -> tuple[str, ...]:
        """The body's transaction ids, built once: every replica hands
        this tuple to its mempool, the tracer and its clients."""
        try:
            return self._tx_ids
        except AttributeError:
            ids = self._tx_ids = tuple([tx.tx_id for tx in self.transactions])
            return ids

    def size_bytes(self) -> int:
        """Wire size estimate: fixed header cost plus transaction bodies.
        Computed once — a block's body is never edited after it is built."""
        try:
            return self._size_bytes
        except AttributeError:
            size = 320 + sum(tx.size_bytes() for tx in self.transactions)
            self._size_bytes = size
            return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Block h={self.height} {short_hex(self.hash)} "
            f"txs={len(self.transactions)} by={self.header.proposer}>"
        )


def genesis_block(chain_id: str = "repro") -> Block:
    """Deterministic genesis for a named chain."""
    header = BlockHeader(
        height=0,
        parent_hash=GENESIS_PARENT,
        tx_root=EMPTY_HASH,
        state_root=EMPTY_HASH,
        proposer=f"genesis:{chain_id}",
        timestamp=0.0,
    )
    return Block(header=header, transactions=[])
