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
kinds are::

    leaf       00 | len | path | value
    extension  01 | len | path | child hash (32 bytes)
    branch     02 | 16 child hashes (32 zero bytes when empty) | 00
    branch     02 | 16 child hashes | 01 | value

A read walks the blobs (slicing only the one child hash it follows);
a write builds blobs straight from a sorted write-set, addressed by
index ranges and a nibble depth rather than re-sliced paths.
"""

from __future__ import annotations

from bisect import bisect_left
from hashlib import sha256 as _sha256
from typing import Iterable, Iterator, Protocol

from ..errors import CorruptionError
from .hashing import Hash, sha256

#: A key as nibbles: one byte (0..15) per nibble, high nibble first.
Nibbles = bytes
#: Sorted, distinct ``(path, value)`` puts, addressed by index ranges.
_Puts = list[tuple[Nibbles, bytes]]

_LEAF = 0
_EXTENSION = 1
_BRANCH = 2

#: ``tag | len`` headers, one per path length.
_LEAF_HEAD = tuple(bytes((_LEAF, n)) for n in range(256))
_EXTENSION_HEAD = tuple(bytes((_EXTENSION, n)) for n in range(256))
_NIBBLE = tuple(bytes((n,)) for n in range(17))

_EMPTY_CHILD = b"\x00" * 32
_BRANCH_TAG = bytes((_BRANCH,))
#: Offset of a branch's value flag; its value (if any) follows.
_FLAG = 1 + 16 * 32
_NO_VALUE = b"\x00"
_HAS_VALUE = b"\x01"

_HEX_TO_NIBBLE = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))
_NIBBLE_TO_HEX = bytes.maketrans(bytes(range(16)), b"0123456789abcdef")


class NodeStore(Protocol):
    """Minimal persistence interface the trie needs."""

    def get(self, key: bytes) -> bytes | None: ...

    def put(self, key: bytes, value: bytes) -> None: ...


class DictNodeStore:
    """In-memory node store. Nodes are content-addressed (one digest,
    one blob), so one store can hold the nodes of every replica of a
    cluster (see :class:`~repro.platforms.triestate.TrieState`)."""

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


def _branch(children: list[bytes], value: bytes | None) -> bytes:
    tail = _NO_VALUE if value is None else _HAS_VALUE + value
    return _BRANCH_TAG + b"".join(children) + tail


def _split(
    items: _Puts, lo: int, hi: int, depth: int
) -> tuple[bytes | None, list[tuple[int, int, int]]]:
    """A branch's view of the sorted, distinct ``items[lo:hi]``, which
    share their first ``depth`` nibbles: the value of the one item that
    ends there (it sorts first), and ``(nibble, lo, hi)`` per child in
    ascending nibble order."""
    value = None
    if len(items[lo][0]) == depth:
        value = items[lo][1]
        lo += 1
    groups = []
    while lo < hi:
        path = items[lo][0]
        nibble = path[depth]
        end = lo + 1
        if end < hi and items[end][0][depth] == nibble:
            # The first path past this child's: the prefix, nibble + 1
            # (16 sorts after every nibble).
            end = bisect_left(
                items, (path[:depth] + _NIBBLE[nibble + 1],), end, hi
            )
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
        #: While a list, ``_save`` appends each ``(digest, blob)`` to it.
        self.journal: list[tuple[Hash, bytes]] | None = None

    # ------------------------------------------------------------------
    # Node persistence
    # ------------------------------------------------------------------
    def _save(self, blob: bytes) -> Hash:
        # hashlib called directly: the wrapper costs a Python frame per
        # saved node, and every write saves the whole leaf-to-root path.
        digest = _sha256(blob).digest()
        self.store.put(digest, blob)
        self.node_writes += 1
        self.bytes_written += len(blob) + 32
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
                if depth == end:
                    return blob[_FLAG + 1 :] if blob[_FLAG] else None
                at = 1 + 32 * path[depth]
                node = blob[at : at + 32]
                if node == _EMPTY_CHILD:
                    return None
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
        puts: _Puts = []
        for key, value in sorted(dict(items).items()):
            path = to_nibbles(key)
            if value is not None:
                puts.append((path, value))
            elif root is not None:
                root = self._delete(root, path, 0)
        if not puts:
            return root
        if root is None:
            return self._build(puts, 0, len(puts), 0)
        return self._merge(root, puts, 0, len(puts), 0)

    def _build(self, items: _Puts, lo: int, hi: int, depth: int) -> Hash:
        """A new subtree for the sorted, distinct ``items[lo:hi]``, whose
        first ``depth`` nibbles are already consumed."""
        if hi - lo == 1:
            path, value = items[lo]
            return self._save(_LEAF_HEAD[len(path) - depth] + path[depth:] + value)
        # Sorted paths: the common prefix of all items is the common
        # prefix of the first and last.
        first = items[lo][0]
        common = _common_prefix_len(first, depth, items[hi - 1][0], depth)
        if not common:
            return self._build_branch(items, lo, hi, depth)
        branch = self._build_branch(items, lo, hi, depth + common)
        return self._save(
            _EXTENSION_HEAD[common] + first[depth : depth + common] + branch
        )

    def _build_branch(self, items: _Puts, lo: int, hi: int, depth: int) -> Hash:
        value, groups = _split(items, lo, hi, depth)
        children = [_EMPTY_CHILD] * 16
        for nibble, start, stop in groups:
            children[nibble] = self._build(items, start, stop, depth + 1)
        return self._save(_branch(children, value))

    def _merge(
        self, node_hash: Hash, items: _Puts, lo: int, hi: int, depth: int
    ) -> Hash:
        """Merge sorted, distinct put items into an existing subtree."""
        blob = self._load(node_hash)
        tag = blob[0]
        if tag == _LEAF:
            n = blob[1]
            first, value = items[lo]
            if hi - lo == 1 and len(first) - depth == n and first.endswith(
                blob[2 : 2 + n]
            ):
                if value == blob[2 + n :]:
                    return node_hash  # unchanged subtree: no rewrite
                return self._save(blob[: 2 + n] + value)
            leaf_path = first[:depth] + blob[2 : 2 + n]
            at = bisect_left(items, (leaf_path,), lo, hi)
            if at < hi and items[at][0] == leaf_path:
                return self._build(items, lo, hi, depth)  # value replaced
            merged = items[lo:hi]
            merged.insert(at - lo, (leaf_path, blob[2 + n :]))
            return self._build(merged, 0, len(merged), depth)
        if tag == _EXTENSION:
            n = blob[1]
            return self._merge_extension(
                blob[2 : 2 + n], blob[2 + n :], items, lo, hi, depth, node_hash
            )
        old_value = blob[_FLAG + 1 :] if blob[_FLAG] else None
        value, groups = _split(items, lo, hi, depth)
        if value is None:
            value = old_value
        edited = None
        for nibble, start, stop in groups:
            at = 1 + 32 * nibble
            child = blob[at : at + 32]
            new_child = (
                self._build(items, start, stop, depth + 1)
                if child == _EMPTY_CHILD
                else self._merge(child, items, start, stop, depth + 1)
            )
            if new_child != child:
                if edited is None:
                    edited = bytearray(blob)
                edited[at : at + 32] = new_child
        if value != old_value:
            if edited is None:
                edited = bytearray(blob)
            edited[_FLAG:] = _HAS_VALUE + value
        elif edited is None:
            return node_hash  # every write was a same-value overwrite
        return self._save(bytes(edited))

    def _merge_extension(
        self,
        ext_path: Nibbles,
        ext_child: Hash,
        items: _Puts,
        lo: int,
        hi: int,
        depth: int,
        node_hash: Hash | None = None,
    ) -> Hash:
        """Merge items into an extension segment over ``ext_child``.

        ``node_hash`` is the stored hash of that extension when the
        node exists (enables the unchanged short-circuit); None when
        the segment is the virtual remainder of a longer extension that
        is being split.
        """
        n = len(ext_path)
        # Sorted items: the one sharing the least with the segment is
        # the first or the last.
        divergence = min(
            _common_prefix_len(ext_path, 0, items[lo][0], depth),
            _common_prefix_len(ext_path, 0, items[hi - 1][0], depth),
        )
        if divergence == n:
            # Every item lives under the extension: one recursive merge.
            new_child = self._merge(ext_child, items, lo, hi, depth + n)
            if new_child == ext_child and node_hash is not None:
                return node_hash  # unchanged subtree: no path rewrite
            return self._save(_EXTENSION_HEAD[n] + ext_path + new_child)
        # Split at the first nibble where some item leaves the segment;
        # the segment's own child slot is filled first.
        at = depth + divergence
        value, groups = _split(items, lo, hi, at)
        children = [_EMPTY_CHILD] * 16
        ext_nibble = ext_path[divergence]
        ext_rest = ext_path[divergence + 1 :]
        for nibble, start, stop in groups:
            if nibble == ext_nibble:
                children[nibble] = (
                    self._merge_extension(
                        ext_rest, ext_child, items, start, stop, at + 1
                    )
                    if ext_rest
                    else self._merge(ext_child, items, start, stop, at + 1)
                )
                break
        else:
            children[ext_nibble] = (
                self._save(_EXTENSION_HEAD[len(ext_rest)] + ext_rest + ext_child)
                if ext_rest
                else ext_child
            )
        for nibble, start, stop in groups:
            if nibble != ext_nibble:
                children[nibble] = self._build(items, start, stop, at + 1)
        branch = self._save(_branch(children, value))
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
        children = [blob[at : at + 32] for at in range(1, _FLAG, 32)]
        value = blob[_FLAG + 1 :] if blob[_FLAG] else None
        if depth == len(path):
            if value is None:
                return node_hash  # key absent
            value = None
        else:
            nibble = path[depth]
            child = children[nibble]
            if child == _EMPTY_CHILD:
                return node_hash  # key absent
            new_child = self._delete(child, path, depth + 1)
            if new_child == child:
                return node_hash
            children[nibble] = new_child or _EMPTY_CHILD
        live = [i for i, c in enumerate(children) if c != _EMPTY_CHILD]
        if not live:
            return None if value is None else self._save(_LEAF_HEAD[0] + value)
        if value is None and len(live) == 1:
            index = live[0]
            return self._prefixed(_NIBBLE[index], children[index])
        return self._save(_branch(children, value))

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
            if blob[_FLAG]:
                yield from_nibbles(prefix), blob[_FLAG + 1 :]
            for nibble in range(16):
                at = 1 + 32 * nibble
                child = blob[at : at + 32]
                if child != _EMPTY_CHILD:
                    yield from self._walk(child, prefix + _NIBBLE[nibble])
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
        self, items: Iterable[tuple[bytes, bytes | None]], journal: bool = False
    ) -> tuple[Hash | None, tuple[tuple[Hash, bytes], ...], NodeStore, int] | None:
        """Apply a net write-set in one batched pass (None = delete).
        With ``journal``, returns the commit record :meth:`adopt` takes:
        ``(post_root, ((digest, blob), ...), store, bytes)`` — every node
        saved, in save order, the store they were saved to, and the
        ``bytes_written`` the update counted."""
        trie = self.trie
        trie.journal = [] if journal else None
        counted = trie.bytes_written
        try:
            self.root = trie.update(self.root, items)
            if not journal:
                return None
            return (
                self.root,
                tuple(trie.journal),
                trie.store,
                trie.bytes_written - counted,
            )
        finally:
            trie.journal = None

    def adopt(
        self,
        root: Hash | None,
        saves: tuple[tuple[Hash, bytes], ...],
        store: NodeStore,
        nbytes: int,
    ) -> None:
        """Install the record of an update another trie ran on the same
        root with the same write-set, with no traversal, encoding or
        hashing; the counters move as a local :meth:`update` would move
        them. An update saves the same nodes in the same order whoever
        runs it, so into another store this makes exactly its puts, in
        order. Into the store the record names, the nodes are already
        there (content-addressed: one digest, one blob), so it makes no
        store write at all."""
        trie = self.trie
        if store is trie.store:
            trie.node_writes += len(saves)
            trie.bytes_written += nbytes
        else:
            put = trie.store.put
            for digest, blob in saves:
                put(digest, blob)
                trie.node_writes += 1
                trie.bytes_written += len(blob) + 32
        self.root = root

    def snapshot(self) -> int:
        """Record the current root; returns its snapshot index."""
        self.history.append(self.root)
        return len(self.history) - 1

    def root_hash(self) -> Hash:
        return self.root if self.root is not None else sha256(b"empty-trie")

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return self.trie.items(self.root)
