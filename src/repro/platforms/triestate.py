"""Account state in a Patricia-Merkle trie: Ethereum, Parity and ErisDB.

Intra-block writes buffer in the journaled overlay
(:class:`~repro.platforms.base.JournaledState`); ``commit_block``
flushes the net write-set through the trie's batched ``update`` so
shared path segments are rewritten once per block, not once per
logical put. Every committed height keeps a trie snapshot, so
historical reads (``get_at``) work on all three platforms.
"""

from __future__ import annotations

from ..crypto.hashing import Hash
from ..crypto.trie import NodeStore, StateTrie
from .base import JournaledState


class TrieState(JournaledState):
    """Patricia-Merkle trie over ``store`` (in memory when None).

    ErisDB uses it as it is — eris-db v0.x kept its merkle state (the
    IAVL-tree analogue) in memory and persisted through Tendermint's
    block store; Ethereum adds an LSM store and Parity a memory cap.
    """

    def __init__(self, store: NodeStore | None = None) -> None:
        super().__init__()
        self.trie = StateTrie(store)
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
