"""Bucket-Merkle tree, the Hyperledger Fabric v0.6 state tree.

Section 3.1.2: "Hyperledger implements Bucket-Merkle tree which uses a
hash function to group states into a list of buckets from which a
Merkle tree is built." Compared to the Patricia trie this is a flat
structure — one hash bucket per state group and a fixed-shape binary
tree above — so a write updates exactly one bucket digest plus
``log2(n_buckets)`` interior digests, and storage stays close to the
raw key-value payload. That is why Hyperledger's disk usage in
Figure 12c is an order of magnitude below Ethereum/Parity's.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from ..errors import StorageError
from .hashing import EMPTY_HASH, Hash, hash_items, sha256

#: ``hash_items``' encoding of the leading ``b"bucket"`` tag.
_BUCKET_PREFIX = (6).to_bytes(4, "big") + b"bucket"


class BucketTree:
    """Fixed-bucket Merkle accumulator over a key-value state.

    >>> tree = BucketTree(n_buckets=16)
    >>> r0 = tree.root_hash()
    >>> tree.put(b"k", b"v")
    >>> tree.root_hash() != r0
    True
    >>> tree.delete(b"k")
    >>> tree.root_hash() == r0
    True
    """

    def __init__(self, n_buckets: int = 1024) -> None:
        if n_buckets < 1:
            raise StorageError("bucket tree needs at least one bucket")
        self.n_buckets = n_buckets
        self._buckets: list[dict[bytes, bytes]] = [{} for _ in range(n_buckets)]
        # Leaf level padded to a power of two so the tree shape is static.
        leaf_count = 1
        while leaf_count < n_buckets:
            leaf_count *= 2
        self._leaf_count = leaf_count
        self._levels: list[list[Hash]] = []
        level = [EMPTY_HASH] * leaf_count
        self._levels.append(level)
        while len(level) > 1:
            level = [
                hash_items(b"bnode", level[i], level[i + 1])
                for i in range(0, len(level), 2)
            ]
            self._levels.append(level)
        self._dirty: set[int] = set()
        self.key_count = 0

    # ------------------------------------------------------------------
    # Key-value operations
    # ------------------------------------------------------------------
    def _bucket_index(self, key: bytes) -> int:
        return int.from_bytes(sha256(b"bucket:" + key)[:8], "big") % self.n_buckets

    def get(self, key: bytes) -> bytes | None:
        return self._buckets[self._bucket_index(key)].get(key)

    def put(self, key: bytes, value: bytes) -> None:
        index = self._bucket_index(key)
        bucket = self._buckets[index]
        if key not in bucket:
            self.key_count += 1
        bucket[key] = value
        self._dirty.add(index)

    def delete(self, key: bytes) -> None:
        index = self._bucket_index(key)
        bucket = self._buckets[index]
        if key in bucket:
            del bucket[key]
            self.key_count -= 1
            self._dirty.add(index)

    def update(self, items: Iterable[tuple[bytes, bytes | None]]) -> None:
        """Apply a net write-set in one pass (``value=None`` deletes).

        Buckets are only marked dirty here; the Merkle work happens at
        the next :meth:`root_hash`, which recomputes each dirty leaf
        and every shared interior node exactly once for the whole batch
        — the bucket-tree analogue of the trie's batched update.
        """
        for key, value in items:
            if value is None:
                self.delete(key)
            else:
                self.put(key, value)

    def items(self) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs, bucket order then key order."""
        out: list[tuple[bytes, bytes]] = []
        for bucket in self._buckets:
            out.extend(sorted(bucket.items()))
        return out

    # ------------------------------------------------------------------
    # Merkle maintenance
    # ------------------------------------------------------------------
    def _bucket_digest(self, index: int) -> Hash:
        bucket = self._buckets[index]
        if not bucket:
            return EMPTY_HASH
        # hash_items(b"bucket", k1, v1, k2, v2, ...) fed straight to the
        # hasher: no intermediate list of parts, no argument tuple.
        hasher = hashlib.sha256(_BUCKET_PREFIX)
        update = hasher.update
        for key in sorted(bucket):
            value = bucket[key]
            update(len(key).to_bytes(4, "big"))
            update(key)
            update(len(value).to_bytes(4, "big"))
            update(value)
        return hasher.digest()

    def root_hash(self) -> Hash:
        """Flush dirty buckets and return the current root digest (a
        lookup when nothing is dirty, e.g. after :meth:`install`)."""
        if self._dirty:
            self.flush()
        return self._levels[-1][0]

    def flush(self, recorded: Sequence[Hash] | None = None) -> tuple[Hash, ...]:
        """Refresh every digest above a dirty bucket; returns them as
        one flat tuple in (level, ascending index) order.

        Propagates level by level: every dirty leaf digest is computed
        once, then each *distinct* dirty parent at each interior level
        is hashed once — K dirty buckets under a shared ancestor cost
        one ancestor rehash for the whole batch instead of K (the
        digests themselves are unchanged, so the root stays
        byte-identical to per-bucket recomputation). With ``recorded``
        the same walk stores recorded digests instead (:meth:`install`).
        """
        fresh: list[Hash] = []
        walked = 0
        dirty = sorted(self._dirty)
        for depth, level in enumerate(self._levels):
            if recorded is not None:
                digests = recorded[walked : walked + len(dirty)]
            elif depth == 0:
                digests = [self._bucket_digest(index) for index in dirty]
            else:
                below = self._levels[depth - 1]
                digests = [
                    hash_items(b"bnode", below[index * 2], below[index * 2 + 1])
                    for index in dirty
                ]
            for index, digest in zip(dirty, digests):
                level[index] = digest
            fresh += digests
            walked += len(dirty)
            dirty = sorted({index // 2 for index in dirty})
        if recorded is not None and walked != len(recorded):
            # The buckets stay dirty: the next flush re-hashes them.
            raise StorageError(
                f"bucket-tree commit record holds {len(recorded)} digests, "
                f"the write-set dirtied {walked} nodes"
            )
        self._dirty.clear()
        return tuple(fresh)

    def install(
        self, items: Iterable[tuple[bytes, bytes | None]], digests: Sequence[Hash]
    ) -> None:
        """:meth:`update` and flush without hashing: ``digests`` is what
        :meth:`flush` returned on a tree that held the same buckets and
        had just applied the same ``items``, so the walk visits the same
        nodes in the same order. The record must be consumed exactly:
        one digest short or long raises, never a silently stale digest.
        """
        self.update(items)
        self.flush(digests)
