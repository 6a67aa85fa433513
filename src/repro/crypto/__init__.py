"""Cryptographic substrate: hashing, signatures, and Merkle structures."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bucket_tree": ("BucketTree",),
    "hashing": (
        "EMPTY_HASH",
        "Hash",
        "hash_items",
        "hash_text",
        "hex_digest",
        "sha256",
        "short_hex",
    ),
    "merkle": ("merkle_root",),
    "signatures": (
        "SIGN_COST_S",
        "VERIFY_COST_S",
        "KeyPair",
        "KeyRegistry",
        "PublicKey",
        "Signature",
        "transaction_digest",
    ),
    "trie": (
        "DictNodeStore",
        "PatriciaTrie",
        "StateTrie",
        "from_nibbles",
        "to_nibbles",
    ),
})
