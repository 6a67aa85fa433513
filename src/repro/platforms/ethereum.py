"""Ethereum platform (geth v1.4.18 analogue).

Composition per the paper: PoW consensus (difficulty tuned for ~2.5 s
blocks at 8 nodes), account state in a Patricia-Merkle trie over a
LevelDB-preset LSM store with an LRU node cache, the EVM execution cost
profile, and limited transaction gossip — the paper observed that geth
servers "do not always broadcast transactions to each other (they keep
mining on their own transaction pool)" (Section 4.1.2), which we model
with a bounded gossip fan-out.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..chain import Transaction
from ..config import EthereumConfig, ethereum_config
from ..consensus.pow import ProofOfWork
from ..crypto.hashing import sha256
from ..crypto.trie import NodeStore
from ..registry import register_platform
from ..util.lru import LRUCache
from .base import PlatformNode
from .triestate import TrieState

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.lsm.db import LSMStore

#: geth's state-cache sizing (entries, not bytes, for simplicity).
NODE_CACHE_ENTRIES = 120_000

#: How many peers a geth node forwards a pending transaction to.
TX_GOSSIP_FANOUT = 3


class _CachedNodeStore:
    """LRU read cache in front of a persistent node store."""

    def __init__(self, backing: NodeStore, capacity: int = NODE_CACHE_ENTRIES) -> None:
        self._backing = backing
        self.cache: LRUCache[bytes, bytes] = LRUCache(capacity)

    def get(self, key: bytes) -> bytes | None:
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        value = self._backing.get(key)
        if value is not None:
            self.cache.put(key, value)
        return value

    def put(self, key: bytes, value: bytes) -> None:
        self._backing.put(key, value)
        self.cache.put(key, value)


class EthereumState(TrieState):
    """Patricia-Merkle trie over LevelDB (or memory for macro runs)."""

    def __init__(self, storage_dir: str | Path | None = None) -> None:
        self._store: LSMStore | None = None
        store = None
        if storage_dir is not None:
            # Only disk-backed runs load the LSM engine.
            from ..storage.lsm.db import LSMStore, leveldb_config

            self._store = LSMStore(Path(storage_dir), leveldb_config())
            # The trie keeps no cache of its own, so every logical node
            # read reaches _CachedNodeStore, which *models* geth's state
            # cache; its misses reach the LSM read counters that feed
            # the IOHeavy figures.
            store = _CachedNodeStore(self._store)
        super().__init__(store)

    def disk_usage_bytes(self) -> int:
        return self._store.disk_usage_bytes() if self._store is not None else 0

    def close(self) -> None:
        if self._store is not None:
            self._store.close()


@register_platform(
    "ethereum",
    default_config=ethereum_config,
    description="geth v1.4.18: PoW, Patricia-Merkle trie, EVM costs",
)
class EthereumNode(PlatformNode):
    """geth-style full node: PoW miner + trie state + EVM cost model."""

    config: EthereumConfig

    def _new_state(self) -> EthereumState:
        return EthereumState()

    def _new_protocol(self, all_ids: list[str]) -> ProofOfWork:
        return ProofOfWork(self, self.config.pow)

    def _gossip_targets(self, tx: Transaction) -> list[str]:
        """geth forwards a pending transaction to a few static peers."""
        if len(self.peers) <= TX_GOSSIP_FANOUT:
            return self.peers
        # Deterministic per-transaction peer choice (static peering).
        seed = int.from_bytes(sha256(tx.tx_id.encode())[:4], "big")
        start = seed % len(self.peers)
        return [
            self.peers[(start + i) % len(self.peers)] for i in range(TX_GOSSIP_FANOUT)
        ]
