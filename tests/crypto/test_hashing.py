"""Unit tests for hashing helpers."""

from repro.crypto import EMPTY_HASH, hash_items, sha256, short_hex


def test_sha256_known_vector():
    assert (
        sha256(b"abc").hex()
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_hash_items_injective_on_boundaries():
    assert hash_items(b"ab", b"c") != hash_items(b"a", b"bc")


def test_hash_items_empty_parts_distinct():
    assert hash_items() != hash_items(b"")
    assert hash_items(b"") != hash_items(b"", b"")


def test_short_hex():
    digest = sha256(b"x")
    assert short_hex(digest, 6) == digest.hex()[:6]
    assert len(short_hex(digest)) == 8


def test_empty_hash_constant():
    assert EMPTY_HASH == sha256(b"")
