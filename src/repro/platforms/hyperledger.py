"""Hyperledger Fabric platform (v0.6.0-preview analogue).

Composition per the paper: PBFT consensus with batch size 500, chain
state in a Bucket-Merkle tree persisted through a RocksDB-preset LSM
store, and chaincode executed natively (the Docker execution model —
"the smart contract is compiled and runs directly on the native
machine", Section 4.2.1), which is why its execution cost factor is the
smallest of the three platforms.

The node inherits the bounded inbox from its config: transaction
gossip, PBFT control traffic, and client RPCs all share that channel,
so a saturating load starves consensus of prepares and commits — the
paper's >16-node collapse (Section 4.1.2).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from ..config import HyperledgerConfig, hyperledger_config
from ..consensus.pbft import PBFT
from ..crypto.bucket_tree import BucketTree
from ..crypto.hashing import Hash
from ..registry import register_platform
from .base import JournaledState, PlatformNode

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.lsm.db import LSMStore

#: Fabric v0.6's default bucket-tree size class.
N_BUCKETS = 1024


class HyperledgerState(JournaledState):
    """Bucket-Merkle tree over RocksDB (or memory for macro runs).

    No historical state queries: "the system does not have APIs to
    query historical states" (Section 3.4.2) — ``get_at`` raises, and
    the analytics workload must use the VersionKVStore chaincode
    instead, exactly as in the paper.

    Intra-block writes buffer in the journaled overlay; the commit
    flushes the net write-set through the bucket tree (marking each
    dirty bucket once) and the LSM store in one sorted pass — Fabric's
    own per-block state-delta write batch.
    """

    def __init__(self, storage_dir: str | Path | None = None) -> None:
        super().__init__()
        self.tree = BucketTree(n_buckets=N_BUCKETS)
        self._store: LSMStore | None = None
        if storage_dir is not None:
            # Only disk-backed runs load the LSM engine.
            from ..storage.lsm.db import LSMStore, rocksdb_config

            self._store = LSMStore(Path(storage_dir), rocksdb_config())
        self._sealed_root = self.tree.root_hash()

    def _backing_get(self, key: bytes) -> bytes | None:
        if self._store is not None:
            return self._store.get(key)
        return self.tree.get(key)

    def _flush(self, items, journal: bool = False):
        # The record: where each item went and what the flush refreshed
        # — digests and the buckets themselves, which installers share.
        record = (self.tree.update(items), self.tree.flush())
        self._write_store(items)
        return record

    def _install(self, items, record) -> None:
        self.tree.install(items, *record)
        self._write_store(items)

    def _write_store(self, items) -> None:
        if self._store is not None:
            for key, value in items:
                if value is None:
                    self._store.delete(key)
                else:
                    self._store.put(key, value)

    def _seal(self, height: int) -> Hash:
        return self.tree.root_hash()

    def disk_usage_bytes(self) -> int:
        return self._store.disk_usage_bytes() if self._store is not None else 0

    def close(self) -> None:
        if self._store is not None:
            self._store.close()


@register_platform(
    "hyperledger",
    default_config=hyperledger_config,
    description="Hyperledger Fabric v0.6: PBFT over a bucket-Merkle tree",
)
class HyperledgerNode(PlatformNode):
    """Fabric v0.6 validating peer."""

    config: HyperledgerConfig

    def _new_state(self) -> HyperledgerState:
        return HyperledgerState()

    def _new_protocol(self, all_ids: list[str]) -> PBFT:
        return PBFT(self, self.config.pbft, replicas=all_ids)
