"""Patricia-Merkle trie, the Ethereum/Parity state tree.

The paper (Section 3.1.2): "Ethereum and Parity employ Patricia-Merkle
tree that supports efficient update and search operations." States live
in a disk-based key-value store; the trie's nodes are content-addressed
(keyed by their hash), so every logical write rewrites the path from
leaf to root. That node-expansion write amplification is exactly what
produces the order-of-magnitude disk-usage gap against Hyperledger in
the IOHeavy experiment (Figure 12c) — so we implement it for real, with
nodes persisted through an abstract node store.

Writes are copy-on-write: ``put`` returns a *new* root hash and leaves
old nodes in place, which is also how the real MPT retains historical
state roots (used by ``getBalance(account, block)`` in the analytics
workload).

Two fast paths (PR 2) keep the write amplification honest without
paying it twice:

* a decoded-node LRU sits in front of the store, so the hot upper
  levels of the tree skip both the store read and the blob decode —
  content addressing makes the cache trivially coherent;
* the put path short-circuits when a subtree is unchanged (same value
  written twice), returning the existing hash instead of re-encoding
  and re-hashing the whole leaf-to-root path — exactly what a real MPT
  does, since identical content hashes to the identical node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol

from hashlib import sha256 as _sha256

from ..errors import CorruptionError
from ..util.lru import LRUCache
from .hashing import Hash, sha256

#: Decoded-node LRU sizing: roughly the working set of a few hundred
#: thousand accounts' upper tree levels, while leaves churn through.
NODE_CACHE_ENTRIES = 16_384

Nibbles = tuple[int, ...]

_LEAF = 0
_EXTENSION = 1
_BRANCH = 2


class NodeStore(Protocol):
    """Minimal persistence interface the trie needs."""

    def get(self, key: bytes) -> bytes | None: ...

    def put(self, key: bytes, value: bytes) -> None: ...


class DictNodeStore:
    """In-memory node store; also usable as a write-through cache."""

    def __init__(self) -> None:
        self._data: dict[bytes, bytes] = {}

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)


#: Per-byte nibble pairs, precomputed once (to_nibbles runs per get/put).
_BYTE_NIBBLES: tuple[tuple[int, int], ...] = tuple(
    (b >> 4, b & 0x0F) for b in range(256)
)


def to_nibbles(key: bytes) -> Nibbles:
    """Split a byte key into 4-bit nibbles (two per byte, high first)."""
    out: list[int] = []
    extend = out.extend
    pairs = _BYTE_NIBBLES
    for byte in key:
        extend(pairs[byte])
    return tuple(out)


def from_nibbles(nibbles: Nibbles) -> bytes:
    """Inverse of :func:`to_nibbles` for even-length nibble runs."""
    if len(nibbles) % 2:
        raise CorruptionError("odd nibble run cannot map back to bytes")
    return bytes(
        (nibbles[i] << 4) | nibbles[i + 1] for i in range(0, len(nibbles), 2)
    )


def _common_prefix_len(a: Nibbles, b: Nibbles) -> int:
    n = min(len(a), len(b))
    for i in range(n):
        if a[i] != b[i]:
            return i
    return n


@dataclass(frozen=True)
class _Leaf:
    path: Nibbles
    value: bytes


@dataclass(frozen=True)
class _Extension:
    path: Nibbles
    child: Hash


@dataclass(frozen=True)
class _Branch:
    children: tuple[Hash | None, ...]  # exactly 16 entries
    value: bytes | None


_Node = _Leaf | _Extension | _Branch

_EMPTY_CHILD = b"\x00" * 32


_BRANCH_PREFIX = bytes([_BRANCH])


def _encode_node(node: _Node) -> bytes:
    if isinstance(node, _Leaf):
        return bytes((_LEAF, len(node.path))) + bytes(node.path) + node.value
    if isinstance(node, _Extension):
        return (
            bytes((_EXTENSION, len(node.path))) + bytes(node.path) + node.child
        )
    body = b"".join(
        [c if c is not None else _EMPTY_CHILD for c in node.children]
    )
    if node.value is not None:
        return _BRANCH_PREFIX + body + b"\x01" + node.value
    return _BRANCH_PREFIX + body + b"\x00"


def _decode_node(blob: bytes) -> _Node:
    if not blob:
        raise CorruptionError("empty trie node blob")
    tag = blob[0]
    if tag == _LEAF:
        path_len = blob[1]
        path = tuple(blob[2 : 2 + path_len])
        return _Leaf(path=path, value=blob[2 + path_len :])
    if tag == _EXTENSION:
        path_len = blob[1]
        path = tuple(blob[2 : 2 + path_len])
        child = blob[2 + path_len :]
        if len(child) != 32:
            raise CorruptionError("extension child must be a 32-byte hash")
        return _Extension(path=path, child=child)
    if tag == _BRANCH:
        offset = 1
        children: list[Hash | None] = []
        for _ in range(16):
            raw = blob[offset : offset + 32]
            children.append(None if raw == _EMPTY_CHILD else raw)
            offset += 32
        flag = blob[offset]
        value = blob[offset + 1 :] if flag == 1 else None
        return _Branch(children=tuple(children), value=value)
    raise CorruptionError(f"unknown trie node tag {tag}")


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

    def __init__(
        self, store: NodeStore, node_cache_entries: int = NODE_CACHE_ENTRIES
    ) -> None:
        self.store = store
        self.node_writes = 0
        self.node_reads = 0
        self.bytes_written = 0
        #: Decoded nodes keyed by digest. Content-addressed storage
        #: means an entry can never go stale — a digest always names
        #: the same node bytes. Pass ``node_cache_entries=0`` to
        #: disable, e.g. when the store's own read counters *model*
        #: a platform cache and must see every logical read.
        self._node_cache: LRUCache[bytes, _Node] | None = (
            LRUCache(node_cache_entries) if node_cache_entries > 0 else None
        )
        #: While a list, ``_save`` appends each ``(digest, blob)`` to it.
        self.journal: list[tuple[Hash, bytes]] | None = None

    # ------------------------------------------------------------------
    # Node persistence
    # ------------------------------------------------------------------
    def _save(self, node: _Node) -> Hash:
        blob = _encode_node(node)
        # hashlib called directly: the wrapper costs a Python frame per
        # saved node, and every put saves the whole leaf-to-root path.
        digest = _sha256(blob).digest()
        self.store.put(digest, blob)
        self.node_writes += 1
        self.bytes_written += len(blob) + 32
        if self.journal is not None:
            self.journal.append((digest, blob))
        if self._node_cache is not None:
            self._node_cache.put(digest, node)
        return digest

    def _load(self, digest: Hash) -> _Node:
        self.node_reads += 1
        cache = self._node_cache
        if cache is not None:
            node = cache.get(digest)
            if node is not None:
                return node
        blob = self.store.get(digest)
        if blob is None:
            raise CorruptionError(f"missing trie node {digest.hex()[:12]}")
        node = _decode_node(blob)
        if cache is not None:
            cache.put(digest, node)
        return node

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def get(self, root: Hash | None, key: bytes) -> bytes | None:
        """Value for ``key`` under ``root``, or None when absent."""
        if root is None:
            return None
        return self._get(root, to_nibbles(key))

    def _get(self, node_hash: Hash, path: Nibbles) -> bytes | None:
        node = self._load(node_hash)
        if isinstance(node, _Leaf):
            return node.value if node.path == path else None
        if isinstance(node, _Extension):
            prefix_len = len(node.path)
            if path[:prefix_len] != node.path:
                return None
            return self._get(node.child, path[prefix_len:])
        if not path:
            return node.value
        child = node.children[path[0]]
        if child is None:
            return None
        return self._get(child, path[1:])

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def put(self, root: Hash | None, key: bytes, value: bytes) -> Hash:
        """Insert/overwrite ``key``; returns the new root hash."""
        if root is None:
            return self._save(_Leaf(path=to_nibbles(key), value=value))
        return self._put(root, to_nibbles(key), value)

    def _put(self, node_hash: Hash, path: Nibbles, value: bytes) -> Hash:
        node = self._load(node_hash)
        if isinstance(node, _Leaf):
            return self._put_into_leaf(node, node_hash, path, value)
        if isinstance(node, _Extension):
            return self._put_into_extension(node, node_hash, path, value)
        return self._put_into_branch(node, node_hash, path, value)

    def _put_into_leaf(
        self, node: _Leaf, node_hash: Hash, path: Nibbles, value: bytes
    ) -> Hash:
        if node.path == path:
            if node.value == value:
                # Identical content hashes to the identical node: skip
                # the re-encode/re-hash and let the whole path above
                # reuse its existing nodes.
                return node_hash
            return self._save(_Leaf(path=path, value=value))
        common = _common_prefix_len(node.path, path)
        branch_children: list[Hash | None] = [None] * 16
        branch_value: bytes | None = None
        for leaf_path, leaf_value in ((node.path, node.value), (path, value)):
            rest = leaf_path[common:]
            if not rest:
                branch_value = leaf_value
            else:
                branch_children[rest[0]] = self._save(
                    _Leaf(path=rest[1:], value=leaf_value)
                )
        branch_hash = self._save(
            _Branch(children=tuple(branch_children), value=branch_value)
        )
        if common:
            return self._save(_Extension(path=path[:common], child=branch_hash))
        return branch_hash

    def _put_into_extension(
        self, node: _Extension, node_hash: Hash, path: Nibbles, value: bytes
    ) -> Hash:
        common = _common_prefix_len(node.path, path)
        if common == len(node.path):
            new_child = self._put(node.child, path[common:], value)
            if new_child == node.child:
                return node_hash  # unchanged subtree: no path rewrite
            return self._save(_Extension(path=node.path, child=new_child))
        # Split the extension at the divergence point.
        branch_children: list[Hash | None] = [None] * 16
        branch_value: bytes | None = None
        ext_rest = node.path[common:]
        if len(ext_rest) == 1:
            branch_children[ext_rest[0]] = node.child
        else:
            branch_children[ext_rest[0]] = self._save(
                _Extension(path=ext_rest[1:], child=node.child)
            )
        key_rest = path[common:]
        if not key_rest:
            branch_value = value
        else:
            branch_children[key_rest[0]] = self._save(
                _Leaf(path=key_rest[1:], value=value)
            )
        branch_hash = self._save(
            _Branch(children=tuple(branch_children), value=branch_value)
        )
        if common:
            return self._save(_Extension(path=path[:common], child=branch_hash))
        return branch_hash

    def _put_into_branch(
        self, node: _Branch, node_hash: Hash, path: Nibbles, value: bytes
    ) -> Hash:
        if not path:
            if node.value == value:
                return node_hash
            return self._save(_Branch(children=node.children, value=value))
        index = path[0]
        child = node.children[index]
        if child is None:
            new_child = self._save(_Leaf(path=path[1:], value=value))
        else:
            new_child = self._put(child, path[1:], value)
            if new_child == child:
                return node_hash  # unchanged subtree: no path rewrite
        children = list(node.children)
        children[index] = new_child
        return self._save(_Branch(children=tuple(children), value=node.value))

    # ------------------------------------------------------------------
    # Batched write path (PR 5)
    # ------------------------------------------------------------------
    def update(
        self, root: Hash | None, items: Iterable[tuple[bytes, bytes | None]]
    ) -> Hash | None:
        """Apply a whole write-set in one pass; returns the new root.

        ``items`` are ``(key, value)`` pairs applied last-write-wins
        (``value=None`` deletes the key). The root of a Patricia trie
        is canonical for the final key-to-value map, so this produces a
        hash byte-identical to applying the same net writes through
        :meth:`put`/:meth:`delete` one at a time — but each shared path
        segment is encoded and hashed **once** for the batch instead of
        once per write, which is where the block-commit fast path's
        speedup comes from (K writes under a common prefix collapse
        into a single path rewrite).
        """
        net: dict[bytes, bytes | None] = {}
        for key, value in items:
            net[key] = value
        for key in sorted(k for k, v in net.items() if v is None):
            if root is None:
                break
            root = self._delete(root, to_nibbles(key))
        puts = sorted(
            (to_nibbles(key), value)
            for key, value in net.items()
            if value is not None
        )
        if not puts:
            return root
        if root is None:
            return self._build(puts)
        return self._batch_put(root, puts)

    def _build(self, items: list[tuple[Nibbles, bytes]]) -> Hash:
        """Construct a subtree from scratch for sorted, distinct items."""
        if len(items) == 1:
            path, value = items[0]
            return self._save(_Leaf(path=path, value=value))
        # Sorted paths: the common prefix of all items is the common
        # prefix of the first and last.
        common = _common_prefix_len(items[0][0], items[-1][0])
        if common:
            prefix = items[0][0][:common]
            stripped = [(path[common:], value) for path, value in items]
            branch_hash = self._build_branch(stripped)
            return self._save(_Extension(path=prefix, child=branch_hash))
        return self._build_branch(items)

    def _build_branch(self, items: list[tuple[Nibbles, bytes]]) -> Hash:
        """Branch node over items whose common prefix is already consumed."""
        branch_value: bytes | None = None
        groups: dict[int, list[tuple[Nibbles, bytes]]] = {}
        for path, value in items:
            if not path:
                branch_value = value
            else:
                groups.setdefault(path[0], []).append((path[1:], value))
        children: list[Hash | None] = [None] * 16
        for nibble, group in groups.items():
            children[nibble] = self._build(group)
        return self._save(
            _Branch(children=tuple(children), value=branch_value)
        )

    def _batch_put(
        self, node_hash: Hash, items: list[tuple[Nibbles, bytes]]
    ) -> Hash:
        """Merge sorted, distinct put items into an existing subtree."""
        node = self._load(node_hash)
        if isinstance(node, _Leaf):
            if len(items) == 1 and items[0][0] == node.path:
                path, value = items[0]
                if value == node.value:
                    return node_hash  # unchanged subtree: no rewrite
                return self._save(_Leaf(path=path, value=value))
            if not any(path == node.path for path, _ in items):
                items = sorted(items + [(node.path, node.value)])
            return self._build(items)
        if isinstance(node, _Extension):
            return self._batch_into_extension(
                node.path, node.child, items, node_hash=node_hash
            )
        # Branch node.
        branch_value = node.value
        groups: dict[int, list[tuple[Nibbles, bytes]]] = {}
        for path, value in items:
            if not path:
                branch_value = value
            else:
                groups.setdefault(path[0], []).append((path[1:], value))
        children = list(node.children)
        changed = branch_value != node.value
        for nibble, group in groups.items():
            child = children[nibble]
            new_child = (
                self._batch_put(child, group)
                if child is not None
                else self._build(group)
            )
            if new_child != child:
                children[nibble] = new_child
                changed = True
        if not changed:
            return node_hash  # every write was a same-value overwrite
        return self._save(
            _Branch(children=tuple(children), value=branch_value)
        )

    def _batch_into_extension(
        self,
        ext_path: Nibbles,
        ext_child: Hash,
        items: list[tuple[Nibbles, bytes]],
        node_hash: Hash | None = None,
    ) -> Hash:
        """Merge items into an extension segment over ``ext_child``.

        ``node_hash`` is the stored hash of ``Extension(ext_path,
        ext_child)`` when that node exists (enables the unchanged
        short-circuit); None when the segment is the virtual remainder
        of a longer extension that is being split.
        """
        prefix_len = len(ext_path)
        divergence = min(
            _common_prefix_len(ext_path, path) for path, _ in items
        )
        if divergence == prefix_len:
            # Every item lives under the extension: one recursive merge.
            new_child = self._batch_put(
                ext_child, [(path[prefix_len:], v) for path, v in items]
            )
            if new_child == ext_child and node_hash is not None:
                return node_hash  # unchanged subtree: no path rewrite
            return self._save(_Extension(path=ext_path, child=new_child))
        # Split at the first nibble where some item leaves the segment.
        branch_value: bytes | None = None
        groups: dict[int, list[tuple[Nibbles, bytes]]] = {}
        for path, value in items:
            rest = path[divergence:]
            if not rest:
                branch_value = value
            else:
                groups.setdefault(rest[0], []).append((rest[1:], value))
        children: list[Hash | None] = [None] * 16
        ext_nibble = ext_path[divergence]
        ext_rest = ext_path[divergence + 1 :]
        under_ext = groups.pop(ext_nibble, None)
        if under_ext is not None:
            if ext_rest:
                children[ext_nibble] = self._batch_into_extension(
                    ext_rest, ext_child, sorted(under_ext)
                )
            else:
                children[ext_nibble] = self._batch_put(
                    ext_child, sorted(under_ext)
                )
        elif ext_rest:
            children[ext_nibble] = self._save(
                _Extension(path=ext_rest, child=ext_child)
            )
        else:
            children[ext_nibble] = ext_child
        for nibble, group in groups.items():
            children[nibble] = self._build(sorted(group))
        branch_hash = self._save(
            _Branch(children=tuple(children), value=branch_value)
        )
        if divergence:
            return self._save(
                _Extension(path=ext_path[:divergence], child=branch_hash)
            )
        return branch_hash

    # ------------------------------------------------------------------
    # Delete path
    # ------------------------------------------------------------------
    def delete(self, root: Hash | None, key: bytes) -> Hash | None:
        """Remove ``key``; returns the new root (None for an empty trie)."""
        if root is None:
            return None
        return self._delete(root, to_nibbles(key))

    def _delete(self, node_hash: Hash, path: Nibbles) -> Hash | None:
        node = self._load(node_hash)
        if isinstance(node, _Leaf):
            return None if node.path == path else node_hash
        if isinstance(node, _Extension):
            prefix_len = len(node.path)
            if path[:prefix_len] != node.path:
                return node_hash
            new_child = self._delete(node.child, path[prefix_len:])
            if new_child is None:
                return None
            if new_child == node.child:
                return node_hash
            return self._merge_extension(node.path, new_child)
        return self._delete_from_branch(node, node_hash, path)

    def _delete_from_branch(
        self, node: _Branch, node_hash: Hash, path: Nibbles
    ) -> Hash | None:
        children = list(node.children)
        value = node.value
        if not path:
            if value is None:
                return node_hash  # key absent
            value = None
        else:
            child = children[path[0]]
            if child is None:
                return node_hash  # key absent
            new_child = self._delete(child, path[1:])
            if new_child == child:
                return node_hash
            children[path[0]] = new_child
        live = [(i, c) for i, c in enumerate(children) if c is not None]
        if value is None and not live:
            return None
        if value is not None and not live:
            return self._save(_Leaf(path=(), value=value))
        if value is None and len(live) == 1:
            index, child_hash = live[0]
            return self._collapse_single_child(index, child_hash)
        return self._save(_Branch(children=tuple(children), value=value))

    def _collapse_single_child(self, index: int, child_hash: Hash) -> Hash:
        child = self._load(child_hash)
        if isinstance(child, _Leaf):
            return self._save(_Leaf(path=(index,) + child.path, value=child.value))
        if isinstance(child, _Extension):
            return self._save(
                _Extension(path=(index,) + child.path, child=child.child)
            )
        return self._save(_Extension(path=(index,), child=child_hash))

    def _merge_extension(self, prefix: Nibbles, child_hash: Hash) -> Hash:
        child = self._load(child_hash)
        if isinstance(child, _Leaf):
            return self._save(_Leaf(path=prefix + child.path, value=child.value))
        if isinstance(child, _Extension):
            return self._save(
                _Extension(path=prefix + child.path, child=child.child)
            )
        return self._save(_Extension(path=prefix, child=child_hash))

    # ------------------------------------------------------------------
    # Iteration (used by analytics and tests)
    # ------------------------------------------------------------------
    def items(self, root: Hash | None) -> Iterator[tuple[bytes, bytes]]:
        """Yield (key, value) pairs under ``root`` in nibble order."""
        if root is None:
            return
        yield from self._walk(root, ())

    def _walk(self, node_hash: Hash, prefix: Nibbles) -> Iterator[tuple[bytes, bytes]]:
        node = self._load(node_hash)
        if isinstance(node, _Leaf):
            yield from_nibbles(prefix + node.path), node.value
            return
        if isinstance(node, _Extension):
            yield from self._walk(node.child, prefix + node.path)
            return
        if node.value is not None:
            yield from_nibbles(prefix), node.value
        for index, child in enumerate(node.children):
            if child is not None:
                yield from self._walk(child, prefix + (index,))


class StateTrie:
    """Mutable facade tracking the current root and per-block history.

    Platforms commit one root per block; ``snapshot()`` records it so
    historical queries (``getBalance(account, block)``) can re-read any
    past state — the mechanism behind the analytics workload.
    """

    def __init__(
        self,
        store: NodeStore | None = None,
        node_cache_entries: int = NODE_CACHE_ENTRIES,
    ) -> None:
        self.trie = PatriciaTrie(
            store if store is not None else DictNodeStore(),
            node_cache_entries=node_cache_entries,
        )
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
    ) -> tuple[Hash | None, tuple[tuple[Hash, bytes], ...]] | None:
        """Apply a net write-set in one batched pass (None = delete).
        With ``journal``, returns the commit record :meth:`adopt` takes:
        ``(post_root, ((digest, blob), ...))``, every node saved, in
        save order."""
        trie = self.trie
        trie.journal = [] if journal else None
        try:
            self.root = trie.update(self.root, items)
            return (self.root, tuple(trie.journal)) if journal else None
        finally:
            trie.journal = None

    def adopt(self, root: Hash | None, saves: Iterable[tuple[Hash, bytes]]) -> None:
        """Install the record of an update another trie ran on the same
        root with the same write-set. An update saves the same nodes in
        the same order whoever runs it, so these are exactly the store
        writes (and counts) a local :meth:`update` would make, with no
        traversal, encoding or hashing. The decoded-node cache is left
        alone (measured: no gain)."""
        trie = self.trie
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
