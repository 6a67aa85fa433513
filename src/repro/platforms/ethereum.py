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
from ..crypto.hashing import Hash, sha256
from ..crypto.trie import NodeStore, StateTrie
from ..registry import register_platform
from ..sim import Network, RngRegistry, Scheduler
from ..util.lru import LRUCache
from .base import TX_GOSSIP, JournaledState, PlatformNode

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


class EthereumState(JournaledState):
    """Patricia-Merkle trie over LevelDB (or memory for macro runs).

    Intra-block writes buffer in the journaled overlay
    (:class:`~repro.platforms.base.JournaledState`); ``commit_block``
    flushes the net write-set through the trie's batched ``update`` so
    shared path segments are rewritten once per block, not once per
    logical put.
    """

    def __init__(self, storage_dir: str | Path | None = None) -> None:
        super().__init__()
        self._store: LSMStore | None = None
        if storage_dir is not None:
            # Only disk-backed runs load the LSM engine.
            from ..storage.lsm.db import LSMStore, leveldb_config

            self._store = LSMStore(Path(storage_dir), leveldb_config())
            # The trie keeps no cache of its own, so every logical node
            # read reaches _CachedNodeStore, which *models* geth's state
            # cache; its misses reach the LSM read counters that feed
            # the IOHeavy figures.
            self.trie = StateTrie(_CachedNodeStore(self._store))
        else:
            self.trie = StateTrie()
        self._snapshots: dict[int, int] = {}
        self._sealed_root = self.trie.root_hash()

    def _backing_get(self, key: bytes) -> bytes | None:
        return self.trie.get(key)

    def _flush(self, items, journal: bool = False):
        return self.trie.update(items, journal)

    def _install(self, items, record) -> None:
        self.trie.adopt(*record)

    def _seal(self, height: int) -> Hash:
        self._snapshots[height] = self.trie.snapshot()
        return self.trie.root_hash()

    def get_at(self, height: int, key: bytes) -> bytes | None:
        snapshot = self._snapshots.get(height)
        if snapshot is None:
            # Before the first commit at/after `height`: walk back.
            candidates = [h for h in self._snapshots if h <= height]
            if not candidates:
                return None
            snapshot = self._snapshots[max(candidates)]
        return self.trie.get_at(snapshot, key)

    def disk_usage_bytes(self) -> int:
        return self._store.disk_usage_bytes() if self._store is not None else 0

    def close(self) -> None:
        if self._store is not None:
            self._store.close()


class EthereumNode(PlatformNode):
    """geth-style full node: PoW miner + trie state + EVM cost model."""

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        rng_registry: RngRegistry,
        config: EthereumConfig | None = None,
        storage_dir: str | Path | None = None,
    ) -> None:
        config = config or ethereum_config()
        super().__init__(
            node_id,
            scheduler,
            network,
            rng_registry,
            config,
            EthereumState(storage_dir),
        )
        self.eth_config = config
        self._storage_dir = storage_dir
        self._recovery_epoch = 0
        self.attach_protocol(ProofOfWork(self, config.pow))

    def start(self) -> None:
        self.protocol.start()

    def _fresh_state(self) -> EthereumState:
        """Empty trie for cold recovery. Disk-backed nodes get a fresh
        LSM directory — the wiped store's files are gone, and reusing
        the old path would collide with the closed store's artifacts."""
        path = self._storage_dir
        if path is not None:
            self._recovery_epoch += 1
            path = Path(path) / f"recovery-{self._recovery_epoch}"
        return EthereumState(path)

    def _on_send_tx(self, message) -> None:
        """geth admission: pool locally, gossip to a few static peers."""
        request = message.payload
        tx: Transaction = request["tx"]
        if self._dup_reply(message, tx):
            return
        accepted = self.mempool.add(tx, self.now)
        if accepted:
            fanout = self._gossip_targets(tx)
            for peer in fanout:
                self.network.send(self.node_id, peer, TX_GOSSIP, tx, tx.size_bytes())
            if self.protocol is not None:
                self.protocol.on_new_pending_tx()
        else:
            self.rejected_submissions += 1
        self._reply(message, {"accepted": accepted, "tx_id": tx.tx_id})

    def _gossip_targets(self, tx: Transaction) -> list[str]:
        if len(self.peers) <= TX_GOSSIP_FANOUT:
            return list(self.peers)
        # Deterministic per-transaction peer choice (static peering).
        seed = int.from_bytes(sha256(tx.tx_id.encode())[:4], "big")
        start = seed % len(self.peers)
        return [
            self.peers[(start + i) % len(self.peers)] for i in range(TX_GOSSIP_FANOUT)
        ]


@register_platform(
    "ethereum",
    default_config=ethereum_config,
    description="geth v1.4.18: PoW, Patricia-Merkle trie, EVM costs",
)
def build_ethereum_node(
    node_id: str,
    scheduler: Scheduler,
    network: Network,
    rng: RngRegistry,
    config: EthereumConfig,
    all_ids: list[str],
    storage_dir: Path | None,
) -> EthereumNode:
    """Node factory used by ``build_cluster`` (see ``repro.registry``)."""
    return EthereumNode(node_id, scheduler, network, rng, config, storage_dir)
