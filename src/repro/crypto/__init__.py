"""Cryptographic substrate: hashing and Merkle structures."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bucket_tree": ("BucketTree",),
    "hashing": (
        "EMPTY_HASH",
        "Hash",
        "hash_items",
        "sha256",
        "short_hex",
    ),
    "merkle": ("merkle_root",),
    "trie": (
        "DictNodeStore",
        "PatriciaTrie",
        "StateTrie",
        "from_nibbles",
        "to_nibbles",
    ),
})
