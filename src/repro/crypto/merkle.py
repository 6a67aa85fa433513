"""Classic binary Merkle root.

Used for block transaction lists ("the hash tree for transaction list
is a classic Merkle tree, as the list is not large", Section 3.1.2).
Odd levels duplicate the trailing node, Bitcoin-style.
"""

from __future__ import annotations

from .hashing import EMPTY_HASH, Hash, hash_items, sha256


def merkle_root(leaves: list[bytes]) -> Hash:
    """Root digest of the tree over ``leaves``, one level at a time."""
    if not leaves:
        return EMPTY_HASH
    level = [sha256(b"leaf:" + leaf) for leaf in leaves]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hash_items(b"node", level[i], level[i + 1])
            for i in range(0, len(level), 2)
        ]
    return level[0]
