"""Unit and property tests for the classic Merkle root."""

from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import EMPTY_HASH, merkle_root

#: ``merkle_root`` over ``tx-0 .. tx-(n-1)``, captured from the tree
#: implementation it replaced. Every block's ``tx_root`` is one of these.
PINNED_ROOTS = {
    0: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    1: "96db96eaf104151d0bad9c233e5b3f80f4a79eb5a615842f4afb4b158d0c12f7",
    2: "d9d8dea710778ef9692f65c3bba8497e78eeb385832bb5d95e86d8750133ead8",
    3: "5f96f758473a070a8fd0ad578c350a46372dfcbd7ab25b937ccb9b1ad73d6d20",
    5: "846a6d11d29b6b0641de0c1259be5317b505d3a7f3e61fa4a3a1ae7d1610a598",
    8: "6be843b5b2df297cfb45330de2298678ee34906698c65efeeb5cd9081ee2f011",
}


def test_merkle_root_digests_are_pinned():
    for count, digest in PINNED_ROOTS.items():
        leaves = [f"tx-{i}".encode() for i in range(count)]
        assert merkle_root(leaves).hex() == digest, count


def test_empty_tree_root():
    assert merkle_root([]) == EMPTY_HASH


def test_single_leaf_root_depends_on_leaf():
    assert merkle_root([b"a"]) != merkle_root([b"b"])


def test_root_sensitive_to_order():
    assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])


def test_odd_leaf_count_supported():
    assert merkle_root([b"a", b"b", b"c"]) != merkle_root([b"a", b"b"])


def test_duplicate_last_leaf_differs_from_padding():
    # [a, b, c] pads c; tree over [a, b, c, c] must produce the same root
    # because padding duplicates the last node (Bitcoin-style).
    assert merkle_root([b"a", b"b", b"c"]) == merkle_root([b"a", b"b", b"c", b"c"])


@given(
    st.lists(st.binary(min_size=1, max_size=16), min_size=2, max_size=20),
    st.integers(min_value=0),
)
def test_property_root_changes_when_leaf_changes(leaves, position):
    position %= len(leaves)
    mutated = list(leaves)
    mutated[position] = mutated[position] + b"\x01"
    assert merkle_root(leaves) != merkle_root(mutated)
