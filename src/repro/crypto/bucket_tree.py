"""Bucket-Merkle tree, the Hyperledger Fabric v0.6 state tree.

Section 3.1.2: "Hyperledger implements Bucket-Merkle tree which uses a
hash function to group states into a list of buckets from which a
Merkle tree is built." Compared to the Patricia trie this is a flat
structure — one hash bucket per state group and a fixed-shape binary
tree above — so a write updates exactly one bucket digest plus
``log2(n_buckets)`` interior digests, and storage stays close to the
raw key-value payload. That is why Hyperledger's disk usage in
Figure 12c is an order of magnitude below Ethereum/Parity's.

Buckets are copy-on-write: a tree copies a bucket the first time a
commit writes to it, and a flush hands the refreshed buckets out in its
record, never to be written again. Replicas that install one record
therefore hold the same bucket objects — one copy of the state per
cluster, not one per replica.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from ..errors import StorageError
from .hashing import EMPTY_HASH, Hash, sha256

#: ``hash_items``' 4-byte length prefixes as a table (longer parts fall
#: back to ``to_bytes``) and its fixed framing: of a bucket up to the
#: first key, of an interior node up to the left (32-byte) child.
_LEN4 = tuple(n.to_bytes(4, "big") for n in range(256))
_BUCKET_PREFIX = _LEN4[6] + b"bucket"
_NODE_PREFIX = _LEN4[5] + b"bnode" + _LEN4[32]

#: One write per item: ``(key, value)`` with ``value=None`` a delete.
Items = Sequence[tuple[bytes, "bytes | None"]]
#: Per level, leaves first: ascending node indexes and their digests.
LevelRecord = tuple[tuple[tuple[int, ...], tuple[Hash, ...]], ...]
#: What one flush refreshed: its levels, the leaf buckets themselves (in
#: leaf-index order, shared from then on) and the key count after it.
FlushRecord = tuple[LevelRecord, tuple[dict[bytes, bytes], ...], int]


def _node_digest(left: Hash, right: Hash) -> Hash:
    """``hash_items(b"bnode", left, right)`` as one pre-framed buffer."""
    return sha256(_NODE_PREFIX + left + _LEN4[32] + right)


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
        # One empty dict in every slot: a bucket is copied before its
        # first write, so none of them is ever written in place.
        self._buckets: list[dict[bytes, bytes]] = [{}] * n_buckets
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
                _node_digest(level[i], level[i + 1])
                for i in range(0, len(level), 2)
            ]
            self._levels.append(level)
        #: Buckets written since the last flush — this tree's own
        #: copies, the only ones it writes in place.
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
        self.update(((key, value),))

    def delete(self, key: bytes) -> None:
        self.update(((key, None),))

    def update(self, items: Items) -> tuple[int, ...]:
        """Apply a net write-set in one pass (``value=None`` deletes);
        returns each item's bucket index, for :meth:`install`.

        Buckets are only marked dirty here; the Merkle work happens at
        the next :meth:`root_hash`, which recomputes each dirty leaf
        and every shared interior node exactly once for the whole batch
        — the bucket-tree analogue of the trie's batched update. A
        bucket's first write since the last flush copies it (another
        tree, or a commit record, may hold it); later ones write the
        copy. A delete of an absent key copies nothing.
        """
        positions = tuple([self._bucket_index(key) for key, _ in items])
        buckets, dirty = self._buckets, self._dirty
        count = self.key_count
        for (key, value), index in zip(items, positions):
            bucket = buckets[index]
            if value is None and key not in bucket:
                continue
            if index not in dirty:
                bucket = buckets[index] = bucket.copy()
                dirty.add(index)
            if value is None:
                del bucket[key]
                count -= 1
            else:
                if key not in bucket:
                    count += 1
                bucket[key] = value
        self.key_count = count
        return positions

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
        # hash_items(b"bucket", k1, v1, k2, v2, ...) as one buffer.
        parts = [_BUCKET_PREFIX]
        for key in sorted(bucket):
            value = bucket[key]
            n, m = len(key), len(value)
            parts += (
                _LEN4[n] if n < 256 else n.to_bytes(4, "big"), key,
                _LEN4[m] if m < 256 else m.to_bytes(4, "big"), value,
            )
        return hashlib.sha256(b"".join(parts)).digest()

    def root_hash(self) -> Hash:
        """Flush dirty buckets and return the current root digest (a
        lookup when nothing is dirty, e.g. after :meth:`install`)."""
        if self._dirty:
            self.flush()
        return self._levels[-1][0]

    def flush(self) -> FlushRecord:
        """Refresh every digest above a dirty bucket; returns what it
        refreshed (no levels and no buckets when nothing was dirty).

        Propagates level by level: every dirty leaf digest is computed
        once, then each *distinct* dirty parent at each interior level
        is hashed once — K dirty buckets under a shared ancestor cost
        one ancestor rehash for the whole batch instead of K (the
        digests themselves are unchanged, so the root stays
        byte-identical to per-bucket recomputation). The refreshed
        buckets go out in the record and are not written again: the
        next write to one copies it.
        """
        if not self._dirty:
            return (), (), self.key_count
        record = []
        indexes = sorted(self._dirty)
        buckets = tuple([self._buckets[index] for index in indexes])
        below: list[Hash] | None = None
        for level in self._levels:
            if below is None:
                digests = [self._bucket_digest(index) for index in indexes]
            else:
                digests = [
                    _node_digest(below[index * 2], below[index * 2 + 1])
                    for index in indexes
                ]
            for index, digest in zip(indexes, digests):
                level[index] = digest
            record.append((tuple(indexes), tuple(digests)))
            below = level
            indexes = sorted({index // 2 for index in indexes})
        self._dirty.clear()
        return tuple(record), buckets, self.key_count

    def install(
        self, items: Items, positions: Sequence[int], record: FlushRecord
    ) -> None:
        """:meth:`update` and :meth:`flush` without hashing, sorting or
        writing a bucket: ``positions`` and ``record`` are what the two
        returned on a tree that held the same buckets and applied the
        same ``items``, so this swaps in the record's bucket objects and
        digests — O(refreshed buckets), shared with that tree.

        The fit is checked first, without writing: one position per
        item, and the refreshed leaves must be exactly the buckets the
        items touch here (a delete of an absent key touches none). A
        record that does not fit is refused with the items written
        through :meth:`update` and their buckets dirty: the next flush
        re-hashes them, never a silently stale digest.
        """
        levels, buckets, key_count = record
        leaves = levels[0][0] if levels else ()
        current = self._buckets
        fits = len(positions) == len(items) and self._dirty | {
            index
            for (key, value), index in zip(items, positions)
            if value is not None or key in current[index]
        } == set(leaves)
        if not fits:
            self.update(items)
            raise StorageError(
                f"bucket-tree commit record places {len(positions)} items "
                f"and refreshes {len(leaves)} buckets; the write-set holds "
                f"{len(items)} and dirtied {len(self._dirty)}"
            )
        for index, bucket in zip(leaves, buckets):
            current[index] = bucket
        for level, (indexes, digests) in zip(self._levels, levels):
            for index, digest in zip(indexes, digests):
                level[index] = digest
        self.key_count = key_count
        self._dirty.clear()
