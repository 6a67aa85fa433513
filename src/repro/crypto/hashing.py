"""Hashing primitives shared by every chain data structure.

All block, transaction, and state-tree identities in this codebase are
SHA-256 digests of canonical, length-prefixed encodings. Length
prefixes matter: without them ``hash_items(b"ab", b"c")`` and
``hash_items(b"a", b"bc")`` would collide.
"""

from __future__ import annotations

import hashlib

Hash = bytes

#: Digest of the empty encoding; used as the "null" child pointer.
EMPTY_HASH: Hash = hashlib.sha256(b"").digest()


def sha256(data: bytes) -> Hash:
    """Plain SHA-256 digest."""
    return hashlib.sha256(data).digest()


def hash_items(*parts: bytes) -> Hash:
    """Hash a sequence of byte strings under a canonical encoding.

    Each part is prefixed with its 4-byte big-endian length, so the
    overall encoding is injective.
    """
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(len(part).to_bytes(4, "big"))
        hasher.update(part)
    return hasher.digest()


def short_hex(digest: Hash, length: int = 8) -> str:
    """Abbreviated hex rendering for logs and reprs."""
    return digest.hex()[:length]
