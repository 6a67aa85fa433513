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
from ..crypto.trie import DictNodeStore, NodeStore, StateTrie
from .base import ExecutionCache, JournaledState


class TrieState(JournaledState):
    """Patricia-Merkle trie over ``store`` (in memory when None).

    ErisDB uses it as it is — eris-db v0.x kept its merkle state (the
    IAVL-tree analogue) in memory and persisted through Tendermint's
    block store; Ethereum adds an LSM store and Parity a memory cap.

    Replicas share trie nodes, not copies. Attached to a cluster's
    execution cache, a state that owns its in-memory store (``store``
    None) writes to the cluster's one store, ``trie_nodes``, instead:
    nodes are content-addressed, and installing a commit record written
    there costs no store write, so such a record carries a node count
    and no node list. Each replica keeps its own trie, roots, snapshots
    and counters, and reads only from its own roots. A store whose
    accounting is part of the model (Parity's cap, an LSM store) stays
    the replica's own, and its records list the nodes saved.
    """

    def __init__(self, store: NodeStore | None = None) -> None:
        self.trie = StateTrie(store)
        super().__init__(self.trie.root_hash())
        self._snapshots: dict[int, int] = {}
        #: Whether the node store is this state's own in-memory one,
        #: hence, once attached, the cluster's shared one.
        self._in_memory = store is None

    def attach_execution_cache(self, cache: ExecutionCache) -> None:
        super().attach_execution_cache(cache)
        if self._in_memory:
            if cache.trie_nodes is None:
                cache.trie_nodes = DictNodeStore()
            self.trie.trie.store = cache.trie_nodes

    def _backing_get(self, key: bytes) -> bytes | None:
        return self.trie.get(key)

    def _flush(self, items, journal: bool = False):
        return self.trie.update(items, journal, shared=self._in_memory)

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
