"""Patricia-Merkle trie, the Ethereum/Parity state tree.

The paper (Section 3.1.2): "Ethereum and Parity employ Patricia-Merkle
tree that supports efficient update and search operations." States live
in a disk-based key-value store; the trie's nodes are content-addressed
(keyed by their hash), so every logical write rewrites the path from
leaf to root. That node-expansion write amplification is exactly what
produces the order-of-magnitude disk-usage gap against Hyperledger in
the IOHeavy experiment (Figure 12c) — so we implement it for real, with
nodes persisted through an abstract node store.

Writes are copy-on-write: ``update`` returns a *new* root hash and
leaves old nodes in place, which is also how the real MPT retains
historical state roots (used by ``getBalance(account, block)`` in the
analytics workload). An update short-circuits where a subtree is
unchanged (same value written twice), returning the existing hash
instead of re-encoding and re-hashing the whole leaf-to-root path —
exactly what a real MPT does, since identical content hashes to the
identical node.

A node *is* its stored bytes; nothing is decoded into objects. Paths
are nibble ``bytes`` (one byte, 0..15, per nibble), and the three node
kinds are stored as::

    leaf       00 | len | path | value
    extension  01 | len | path | child hash (32 bytes)
    branch     02 | child mask | present child hashes | 00
    branch     02 | child mask | present child hashes | 01 | value

A branch's mask is two big-endian bytes with bit ``n`` set when child
``n`` is present; the present children follow in ascending nibble
order, so child ``n`` starts at ``3 + 32 * popcount(mask & (2**n - 1))``.
That is the stored layout only. A node is named by the SHA-256 of its
canonical (hashed) layout, in which a branch keeps all 16 slots::

    branch     02 | 16 child hashes (32 zero bytes when empty) | 00
    branch     02 | 16 child hashes | 01 | value

Leaves and extensions are stored as they are hashed. Stored compact,
hashed and charged canonical: every byte count the model charges
(``bytes_written``, Parity's capped memory, the LSM store's disk) is
the canonical size (:func:`canonical_size`), so the compact form moves
no root, save order or figure; :func:`canonical_node` and
:func:`stored_node` convert a node for a store that keeps canonical
bytes. A read walks the stored blobs (slicing only the one child hash
it follows, found by mask and popcount) and never expands a branch; a
write builds both layouts from a branch's children list, addressed by
index ranges and a nibble depth rather than re-sliced paths.
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import sha256 as _sha256
from struct import Struct
from typing import Iterable, Iterator, Protocol

from ..errors import CorruptionError
from .hashing import Hash, sha256

#: A key as nibbles: one byte (0..15) per nibble, high nibble first.
Nibbles = bytes

_LEAF = 0
_EXTENSION = 1
_BRANCH = 2

#: ``tag | len`` headers, one per path length.
_LEAF_HEAD = tuple(bytes((_LEAF, n)) for n in range(256))
_EXTENSION_HEAD = tuple(bytes((_EXTENSION, n)) for n in range(256))
_NIBBLE = tuple(bytes((n,)) for n in range(17))

_EMPTY_CHILD = b"\x00" * 32
_BRANCH_TAG = bytes((_BRANCH,))
#: Offset of a canonical branch's value flag; its value (if any) follows.
_FLAG = 1 + 16 * 32
#: Offset of a stored branch's first child hash (after tag and mask).
_CHILDREN = 3
_NO_VALUE = b"\x00"
_HAS_VALUE = b"\x01"
#: Per nibble ``n``: the mask bits below ``n``, whose popcount is the
#: index of child ``n`` among a branch's present children.
_BELOW = tuple((1 << n) - 1 for n in range(16))
#: Per child count ``k``: the ``k`` hashes at an offset, as a tuple.
_UNPACK_CHILDREN = tuple(Struct("32s" * k).unpack_from for k in range(17))
#: Per 8-bit half of a mask: that half's 8 canonical slots from its
#: present children (absent slots packed as 32 zero bytes).
_PACK_SLOTS = tuple(
    Struct("".join("32s" if half >> n & 1 else "32x" for n in range(8))).pack
    for half in range(256)
)

_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_NIBBLE_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


class NodeStore(Protocol):
    """Minimal persistence interface the trie needs."""

    def get(self, key: bytes) -> bytes | None: ...

    def put(self, key: bytes, value: bytes) -> None: ...


#: A commit record (see :meth:`StateTrie.update`): post root, the saved
#: ``(digest, stored blob)`` pairs or only their count, store, bytes.
CommitRecord = tuple[
    Hash | None, int | tuple[tuple[Hash, bytes], ...], NodeStore, int
]


class DictNodeStore:
    """In-memory node store. Nodes are content-addressed (one digest,
    one blob), so one store can hold the nodes of every replica of a
    cluster (see :class:`~repro.platforms.triestate.TrieState`). It
    keeps each node's stored form as the trie hands it over."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._data[key] = value


def to_nibbles(key: bytes) -> Nibbles:
    """Split a byte key into 4-bit nibbles (two per byte, high first)."""
    return key.hex().encode().translate(_HEX_TO_NIBBLE)


def from_nibbles(nibbles: Iterable[int]) -> bytes:
    """Inverse of :func:`to_nibbles` for even-length nibble runs."""
    run = bytes(nibbles)
    if len(run) % 2:
        raise CorruptionError("odd nibble run cannot map back to bytes")
    return bytes.fromhex(run.translate(_NIBBLE_TO_HEX).decode())


def _common_prefix_len(a: bytes, a_at: int, b: bytes, b_at: int) -> int:
    """Length of the common prefix of ``a[a_at:]`` and ``b[b_at:]``."""
    n = min(len(a) - a_at, len(b) - b_at)
    diff = int.from_bytes(a[a_at : a_at + n], "big") ^ int.from_bytes(
        b[b_at : b_at + n], "big"
    )
    return n - (diff.bit_length() + 7) // 8


def _branch(
    mask: int, children: list[Hash], value: bytes | None
) -> tuple[bytes, bytes]:
    """A branch's stored and canonical forms: ``children`` are its
    present child hashes in ascending nibble order, ``mask`` their bits."""
    tail = _NO_VALUE if value is None else _HAS_VALUE + value
    low = mask & 0xFF
    split = low.bit_count()
    return (
        _BRANCH_TAG + mask.to_bytes(2, "big") + b"".join(children) + tail,
        b"".join((
            _BRANCH_TAG,
            _PACK_SLOTS[low](*children[:split]),
            _PACK_SLOTS[mask >> 8](*children[split:]),
            tail,
        )),
    )


def _stored_children(blob: bytes) -> tuple[int, list[Hash], int]:
    """A stored branch's mask, present children and value-flag offset."""
    mask = blob[1] << 8 | blob[2]
    count = mask.bit_count()
    children = list(_UNPACK_CHILDREN[count](blob, _CHILDREN))
    return mask, children, _CHILDREN + 32 * count


def canonical_node(blob: bytes) -> bytes:
    """The canonical bytes of a stored node: what its digest hashes and
    what a store that models real storage keeps."""
    if blob[0] != _BRANCH:
        return blob
    mask, children, flag = _stored_children(blob)
    return _branch(mask, children, blob[flag + 1 :] if blob[flag] else None)[1]


def stored_node(blob: bytes) -> bytes:
    """Inverse of :func:`canonical_node`: the stored form of a node
    given in canonical bytes."""
    if blob[0] != _BRANCH:
        return blob
    mask = 0
    children = []
    for nibble in range(16):
        child = blob[1 + 32 * nibble : 33 + 32 * nibble]
        if child != _EMPTY_CHILD:
            mask |= 1 << nibble
            children.append(child)
    return _BRANCH_TAG + mask.to_bytes(2, "big") + b"".join(children) + blob[_FLAG:]


def canonical_size(blob: bytes) -> int:
    """``len(canonical_node(blob))``, without building it: the bytes a
    stored node is charged as."""
    if blob[0] != _BRANCH:
        return len(blob)
    # 16 slots in place of the 2-byte mask and the present children.
    return len(blob) + 16 * 32 - 2 - 32 * (blob[1] << 8 | blob[2]).bit_count()


def _split(
    paths: list[Nibbles], values: list[bytes], lo: int, hi: int, depth: int
) -> tuple[bytes | None, list[tuple[int, int, int]]]:
    """A branch's view of the sorted, distinct puts ``lo:hi``, which
    share their first ``depth`` nibbles: the value of the one put that
    ends there (it sorts first), and ``(nibble, lo, hi)`` per child in
    ascending nibble order."""
    value = None
    if len(paths[lo]) == depth:
        value = values[lo]
        lo += 1
    groups = []
    while lo < hi:
        path = paths[lo]
        nibble = path[depth]
        end = lo + 1
        if end < hi and paths[end][depth] == nibble:
            # The first path past this child's: the prefix, nibble + 1
            # (16 sorts after every nibble).
            end = bisect_left(paths, path[:depth] + _NIBBLE[nibble + 1], end, hi)
        groups.append((nibble, lo, end))
        lo = end
    return value, groups


class PatriciaTrie:
    """Functional Merkle-Patricia trie over a node store.

    >>> trie = PatriciaTrie(DictNodeStore())
    >>> root1 = trie.put(None, b"dog", b"puppy")
    >>> root2 = trie.put(root1, b"doge", b"coin")
    >>> trie.get(root2, b"dog")
    b'puppy'
    >>> trie.get(root1, b"doge") is None   # old root unaffected
    True
    """

    def __init__(self, store: NodeStore) -> None:
        self.store = store
        self.node_writes = 0
        self.node_reads = 0
        self.bytes_written = 0
        #: While a list, ``_save`` appends each ``(digest, stored blob)``.
        self.journal: list[tuple[Hash, bytes]] | None = None

    # ------------------------------------------------------------------
    # Node persistence
    # ------------------------------------------------------------------
    def _save(self, blob: bytes, canonical: bytes | None = None) -> Hash:
        """Store ``blob`` under the digest of its canonical form (given
        for a branch; a leaf or an extension is its own)."""
        if canonical is None:
            canonical = blob
        # hashlib called directly: the wrapper costs a Python frame per
        # saved node, and every write saves the whole leaf-to-root path.
        digest = _sha256(canonical).digest()
        self.store.put(digest, blob)
        self.node_writes += 1
        self.bytes_written += len(canonical) + 32
        if self.journal is not None:
            self.journal.append((digest, blob))
        return digest

    def _load(self, digest: Hash) -> bytes:
        self.node_reads += 1
        blob = self.store.get(digest)
        if blob is None:
            raise CorruptionError(f"missing trie node {digest.hex()[:12]}")
        return blob

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, root: Hash | None, key: bytes) -> bytes | None:
        """Value for ``key`` under ``root``, or None when absent."""
        if root is None:
            return None
        path = to_nibbles(key)
        end = len(path)
        depth = 0
        node = root
        load = self._load
        while True:
            blob = load(node)
            tag = blob[0]
            if tag == _BRANCH:
                mask = blob[1] << 8 | blob[2]
                if depth == end:
                    at = _CHILDREN + 32 * mask.bit_count()
                    return blob[at + 1 :] if blob[at] else None
                nibble = path[depth]
                if not mask >> nibble & 1:
                    return None
                at = _CHILDREN + 32 * (mask & _BELOW[nibble]).bit_count()
                node = blob[at : at + 32]
                depth += 1
            elif tag == _LEAF:
                n = blob[1]
                if end - depth == n and path.endswith(blob[2 : 2 + n]):
                    return blob[2 + n :]
                return None
            elif tag == _EXTENSION:
                n = blob[1]
                if not path.startswith(blob[2 : 2 + n], depth):
                    return None
                depth += n
                node = blob[2 + n :]
            else:
                raise CorruptionError(f"unknown trie node tag {tag}")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, root: Hash | None, key: bytes, value: bytes) -> Hash:
        """Insert/overwrite ``key``; returns the new root hash. A
        one-item :meth:`update`."""
        return self.update(root, ((key, value),))

    def delete(self, root: Hash | None, key: bytes) -> Hash | None:
        """Remove ``key``; returns the new root (None for an empty
        trie). A one-item :meth:`update`."""
        return self.update(root, ((key, None),))

    def update(
        self, root: Hash | None, items: Iterable[tuple[bytes, bytes | None]]
    ) -> Hash | None:
        """Apply a whole write-set in one pass; returns the new root.

        ``items`` are ``(key, value)`` pairs applied last-write-wins
        (``value=None`` deletes the key). Deletes go first, one at a
        time in key order; then the puts merge into the tree in one
        sorted pass, so each shared path segment is encoded and hashed
        **once** for the batch instead of once per write (K writes
        under a common prefix collapse into a single path rewrite). The
        root of a Patricia trie is canonical for the final key-to-value
        map, so the order of the batch never changes it.
        """
        # The puts as two parallel lists, sorted by path, with no tuple
        # per put: a large batch (a genesis) is held once while it builds.
        net = dict(items)
        paths: list[Nibbles] = []
        values: list[bytes] = []
        for key in sorted(net):
            value = net[key]
            path = to_nibbles(key)
            if value is not None:
                paths.append(path)
                values.append(value)
            elif root is not None:
                root = self._delete(root, path, 0)
        del net
        if not paths:
            return root
        if root is None:
            return self._build(paths, values, 0, len(paths), 0)
        return self._merge(root, paths, values, 0, len(paths), 0)

    def _build(
        self, paths: list[Nibbles], values: list[bytes], lo: int, hi: int,
        depth: int,
    ) -> Hash:
        """A new subtree for the sorted, distinct puts ``lo:hi``, whose
        first ``depth`` nibbles are already consumed."""
        if hi - lo == 1:
            path = paths[lo]
            return self._save(
                _LEAF_HEAD[len(path) - depth] + path[depth:] + values[lo]
            )
        # Sorted paths: the common prefix of all puts is the common
        # prefix of the first and last.
        first = paths[lo]
        common = _common_prefix_len(first, depth, paths[hi - 1], depth)
        if not common:
            return self._build_branch(paths, values, lo, hi, depth)
        branch = self._build_branch(paths, values, lo, hi, depth + common)
        return self._save(
            _EXTENSION_HEAD[common] + first[depth : depth + common] + branch
        )

    def _build_branch(
        self, paths: list[Nibbles], values: list[bytes], lo: int, hi: int,
        depth: int,
    ) -> Hash:
        value, groups = _split(paths, values, lo, hi, depth)
        mask = 0
        children = []
        for nibble, start, stop in groups:
            mask |= 1 << nibble
            children.append(self._build(paths, values, start, stop, depth + 1))
        return self._save(*_branch(mask, children, value))

    def _merge(
        self, node_hash: Hash, paths: list[Nibbles], values: list[bytes],
        lo: int, hi: int, depth: int,
    ) -> Hash:
        """Merge the sorted, distinct puts ``lo:hi`` into an existing
        subtree."""
        blob = self._load(node_hash)
        tag = blob[0]
        if tag == _LEAF:
            n = blob[1]
            first = paths[lo]
            if hi - lo == 1 and len(first) - depth == n and first.endswith(
                blob[2 : 2 + n]
            ):
                if values[lo] == blob[2 + n :]:
                    return node_hash  # unchanged subtree: no rewrite
                return self._save(blob[: 2 + n] + values[lo])
            leaf_path = first[:depth] + blob[2 : 2 + n]
            at = bisect_left(paths, leaf_path, lo, hi)
            if at < hi and paths[at] == leaf_path:
                return self._build(paths, values, lo, hi, depth)  # value replaced
            merged_paths, merged_values = paths[lo:hi], values[lo:hi]
            merged_paths.insert(at - lo, leaf_path)
            merged_values.insert(at - lo, blob[2 + n :])
            return self._build(
                merged_paths, merged_values, 0, len(merged_paths), depth
            )
        if tag == _EXTENSION:
            n = blob[1]
            return self._merge_extension(
                blob[2 : 2 + n], blob[2 + n :], paths, values, lo, hi, depth,
                node_hash,
            )
        # _stored_children, inlined: this is the hot write path.
        mask = blob[1] << 8 | blob[2]
        count = mask.bit_count()
        children = list(_UNPACK_CHILDREN[count](blob, _CHILDREN))
        flag = _CHILDREN + 32 * count
        old_value = blob[flag + 1 :] if blob[flag] else None
        value, groups = _split(paths, values, lo, hi, depth)
        if value is None:
            value = old_value
        edited = value != old_value
        for nibble, start, stop in groups:
            index = (mask & _BELOW[nibble]).bit_count()
            if mask >> nibble & 1:
                child = children[index]
                new_child = self._merge(
                    child, paths, values, start, stop, depth + 1
                )
                if new_child != child:
                    children[index] = new_child
                    edited = True
            else:
                children.insert(
                    index, self._build(paths, values, start, stop, depth + 1)
                )
                mask |= 1 << nibble
                edited = True
        if not edited:
            return node_hash  # every write was a same-value overwrite
        return self._save(*_branch(mask, children, value))

    def _merge_extension(
        self,
        ext_path: Nibbles,
        ext_child: Hash,
        paths: list[Nibbles],
        values: list[bytes],
        lo: int,
        hi: int,
        depth: int,
        node_hash: Hash | None = None,
    ) -> Hash:
        """Merge puts into an extension segment over ``ext_child``.

        ``node_hash`` is the stored hash of that extension when the
        node exists (enables the unchanged short-circuit); None when
        the segment is the virtual remainder of a longer extension that
        is being split.
        """
        n = len(ext_path)
        # Sorted puts: the one sharing the least with the segment is
        # the first or the last.
        divergence = min(
            _common_prefix_len(ext_path, 0, paths[lo], depth),
            _common_prefix_len(ext_path, 0, paths[hi - 1], depth),
        )
        if divergence == n:
            # Every put lives under the extension: one recursive merge.
            new_child = self._merge(
                ext_child, paths, values, lo, hi, depth + n
            )
            if new_child == ext_child and node_hash is not None:
                return node_hash  # unchanged subtree: no path rewrite
            return self._save(_EXTENSION_HEAD[n] + ext_path + new_child)
        # Split at the first nibble where some put leaves the segment;
        # the segment's own child slot is filled first.
        at = depth + divergence
        value, groups = _split(paths, values, lo, hi, at)
        ext_nibble = ext_path[divergence]
        ext_rest = ext_path[divergence + 1 :]
        for nibble, start, stop in groups:
            if nibble == ext_nibble:
                ext_slot = (
                    self._merge_extension(
                        ext_rest, ext_child, paths, values, start, stop, at + 1
                    )
                    if ext_rest
                    else self._merge(
                        ext_child, paths, values, start, stop, at + 1
                    )
                )
                break
        else:
            ext_slot = (
                self._save(_EXTENSION_HEAD[len(ext_rest)] + ext_rest + ext_child)
                if ext_rest
                else ext_child
            )
        mask = 1 << ext_nibble
        children = []
        for nibble, start, stop in groups:
            if nibble != ext_nibble:
                mask |= 1 << nibble
                children.append(
                    self._build(paths, values, start, stop, at + 1)
                )
        children.insert((mask & _BELOW[ext_nibble]).bit_count(), ext_slot)
        branch = self._save(*_branch(mask, children, value))
        if divergence:
            return self._save(
                _EXTENSION_HEAD[divergence] + ext_path[:divergence] + branch
            )
        return branch

    # ------------------------------------------------------------------
    # Delete path
    # ------------------------------------------------------------------
    def _delete(self, node_hash: Hash, path: Nibbles, depth: int) -> Hash | None:
        blob = self._load(node_hash)
        tag = blob[0]
        if tag == _LEAF:
            n = blob[1]
            if len(path) - depth == n and path.endswith(blob[2 : 2 + n]):
                return None
            return node_hash
        if tag == _EXTENSION:
            n = blob[1]
            ext_path = blob[2 : 2 + n]
            if not path.startswith(ext_path, depth):
                return node_hash
            child = blob[2 + n :]
            new_child = self._delete(child, path, depth + n)
            if new_child is None:
                return None
            if new_child == child:
                return node_hash
            return self._prefixed(ext_path, new_child)
        mask, children, flag = _stored_children(blob)
        value = blob[flag + 1 :] if blob[flag] else None
        if depth == len(path):
            if value is None:
                return node_hash  # key absent
            value = None
        else:
            nibble = path[depth]
            if not mask >> nibble & 1:
                return node_hash  # key absent
            index = (mask & _BELOW[nibble]).bit_count()
            child = children[index]
            new_child = self._delete(child, path, depth + 1)
            if new_child == child:
                return node_hash
            if new_child is None:
                del children[index]
                mask ^= 1 << nibble
            else:
                children[index] = new_child
        if not children:
            return None if value is None else self._save(_LEAF_HEAD[0] + value)
        if value is None and len(children) == 1:
            return self._prefixed(_NIBBLE[mask.bit_length() - 1], children[0])
        return self._save(*_branch(mask, children, value))

    def _prefixed(self, prefix: Nibbles, child_hash: Hash) -> Hash:
        """``prefix`` in front of a subtree: absorbed by a leaf or an
        extension child, or a new extension over a branch."""
        child = self._load(child_hash)
        tag = child[0]
        if tag == _BRANCH:
            return self._save(_EXTENSION_HEAD[len(prefix)] + prefix + child_hash)
        head = _LEAF_HEAD if tag == _LEAF else _EXTENSION_HEAD
        return self._save(head[len(prefix) + child[1]] + prefix + child[2:])

    # ------------------------------------------------------------------
    # Iteration (used by analytics and tests)
    # ------------------------------------------------------------------
    def items(self, root: Hash | None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs under ``root`` in nibble order."""
        if root is None:
            return
        yield from self._walk(root, b"")

    def _walk(self, node_hash: Hash, prefix: Nibbles) -> Iterator[tuple[bytes, bytes]]:
        blob = self._load(node_hash)
        tag = blob[0]
        if tag == _BRANCH:
            mask = blob[1] << 8 | blob[2]
            at = _CHILDREN + 32 * mask.bit_count()
            if blob[at]:
                yield from_nibbles(prefix), blob[at + 1 :]
            at = _CHILDREN
            for nibble in range(16):
                if mask >> nibble & 1:
                    yield from self._walk(
                        blob[at : at + 32], prefix + _NIBBLE[nibble]
                    )
                    at += 32
            return
        n = blob[1]
        if tag == _LEAF:
            yield from_nibbles(prefix + blob[2 : 2 + n]), blob[2 + n :]
        else:
            yield from self._walk(blob[2 + n :], prefix + blob[2 : 2 + n])


class StateTrie:
    """Mutable facade tracking the current root and per-block history.

    Platforms commit one root per block; ``snapshot()`` records it so
    historical queries (``getBalance(account, block)``) can re-read any
    past state — the mechanism behind the analytics workload.
    """

    def __init__(self, store: NodeStore | None = None) -> None:
        self.trie = PatriciaTrie(store if store is not None else DictNodeStore())
        self.root: Hash | None = None
        self.history: list[Hash | None] = []

    def get(self, key: bytes) -> bytes | None:
        return self.trie.get(self.root, key)

    def get_at(self, snapshot_index: int, key: bytes) -> bytes | None:
        """Read ``key`` as of snapshot ``snapshot_index`` (block height)."""
        return self.trie.get(self.history[snapshot_index], key)

    def put(self, key: bytes, value: bytes) -> None:
        self.root = self.trie.put(self.root, key, value)

    def delete(self, key: bytes) -> None:
        self.root = self.trie.delete(self.root, key)

    def update(
        self,
        items: Iterable[tuple[bytes, bytes | None]],
        journal: bool = False,
        shared: bool = False,
    ) -> CommitRecord | None:
        """Apply a net write-set in one batched pass (None = delete).
        With ``journal``, returns the commit record :meth:`adopt` takes:
        ``(post_root, saves, store, bytes)`` — the store the update
        saved to, the ``bytes_written`` it counted, and as ``saves``
        every ``(digest, stored blob)`` saved, in save order. With
        ``shared`` too (every adopter's trie writes to this one's
        store, so the nodes will be there already), ``saves`` is only
        their count: a record names its nodes only for a reader that
        needs them."""
        trie = self.trie
        if not journal:
            self.root = trie.update(self.root, items)
            return None
        writes, counted = trie.node_writes, trie.bytes_written
        trie.journal = None if shared else []
        try:
            self.root = trie.update(self.root, items)
            return (
                self.root,
                trie.node_writes - writes if shared else tuple(trie.journal),
                trie.store,
                trie.bytes_written - counted,
            )
        finally:
            trie.journal = None

    def adopt(
        self,
        root: Hash | None,
        saves: int | tuple[tuple[Hash, bytes], ...],
        store: NodeStore,
        nbytes: int,
    ) -> None:
        """Install the record of an update another trie ran on the same
        root with the same write-set, with no traversal, encoding or
        hashing; the counters move as a local :meth:`update` would move
        them. Into the store the record names, the nodes are already
        there (content-addressed: one digest, one blob), so it makes no
        store write at all. An update saves the same nodes in the same
        order whoever runs it, so into another store this makes exactly
        its puts, in order — which a record that only counts its nodes
        cannot, and refuses."""
        trie = self.trie
        if store is trie.store:
            trie.node_writes += saves if isinstance(saves, int) else len(saves)
            trie.bytes_written += nbytes
        elif isinstance(saves, int):
            raise CorruptionError(
                "a commit record that counts its nodes installs only into "
                "the store it names"
            )
        else:
            put = trie.store.put
            for digest, blob in saves:
                put(digest, blob)
                trie.node_writes += 1
                trie.bytes_written += canonical_size(blob) + 32
        self.root = root

    def snapshot(self) -> int:
        """Record the current root; returns its snapshot index."""
        self.history.append(self.root)
        return len(self.history) - 1

    def root_hash(self) -> Hash:
        return self.root if self.root is not None else sha256(b"empty-trie")

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.trie.items(self.root)
