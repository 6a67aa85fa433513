"""Property-based tests for the fork-aware blockchain store.

The store is the substrate under every consensus protocol and the
Figure 10 fork metric; its invariants must survive arbitrary block
arrival orders and arbitrary fork topologies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Block, Blockchain
from repro.crypto import EMPTY_HASH
from repro.errors import InvalidBlock


def make_tree(branching_choices):
    """Build a random block tree over a fresh chain.

    Each choice extends a (uniformly-chosen) existing block, producing
    arbitrary fork structures, and returns the blocks in creation order.
    """
    chain = Blockchain()
    blocks = [chain.tip]  # genesis
    built = []
    for i, choice in enumerate(branching_choices):
        parent = blocks[choice % len(blocks)]
        block = Block.build(
            height=parent.height + 1,
            parent_hash=parent.hash,
            transactions=[],
            state_root=EMPTY_HASH,
            proposer=f"n{i}",
            timestamp=float(i),
            consensus_meta={"i": str(i)},
        )
        blocks.append(block)
        built.append(block)
    return chain, built


tree_shapes = st.lists(st.integers(min_value=0, max_value=10_000), max_size=60)


@settings(max_examples=150, deadline=None)
@given(shape=tree_shapes, order_seed=st.randoms(use_true_random=False))
def test_arrival_order_does_not_change_census(shape, order_seed):
    """total/main-branch block counts are order-independent facts."""
    chain_a, blocks = make_tree(shape)
    for block in blocks:
        chain_a.add_block(block)

    chain_b = Blockchain()
    shuffled = list(blocks)
    order_seed.shuffle(shuffled)
    # Insert repeatedly: out-of-order children are orphans until their
    # parent lands, so a few passes deliver everything.
    for _ in range(len(shuffled) + 1):
        for block in shuffled:
            chain_b.add_block(block)

    assert chain_a.total_blocks == chain_b.total_blocks
    assert chain_a.height == chain_b.height
    assert chain_a.main_branch_blocks == chain_b.main_branch_blocks


@settings(max_examples=150, deadline=None)
@given(shape=tree_shapes)
def test_main_branch_is_a_connected_prefix(shape):
    chain, blocks = make_tree(shape)
    for block in blocks:
        chain.add_block(block)
    branch = [b for b in chain.main_branch() if b.height > 0]
    # Heights are 1..height with no gaps, each linking to its parent.
    assert [b.height for b in branch] == list(range(1, chain.height + 1))
    parent_hash = chain.block_by_height(0).hash
    for block in branch:
        assert block.header.parent_hash == parent_hash
        parent_hash = block.hash
    for block in branch:
        assert chain.on_main_branch(block.hash)


@settings(max_examples=150, deadline=None)
@given(shape=tree_shapes)
def test_census_identity(shape):
    """total = main + forks, and the ratio is main/total in [0, 1]."""
    chain, blocks = make_tree(shape)
    for block in blocks:
        chain.add_block(block)
    assert chain.total_blocks == chain.main_branch_blocks + chain.fork_blocks
    assert 0.0 <= chain.fork_ratio() <= 1.0
    if chain.fork_blocks == 0:
        assert chain.fork_ratio() == 1.0


@settings(max_examples=100, deadline=None)
@given(shape=tree_shapes)
def test_tip_is_a_longest_chain(shape):
    """No stored block sits strictly higher than the advertised tip."""
    chain, blocks = make_tree(shape)
    for block in blocks:
        chain.add_block(block)
    highest = max((b.height for b in blocks), default=0)
    assert chain.height == highest
    assert chain.tip.height == highest


@settings(max_examples=100, deadline=None)
@given(shape=tree_shapes, start=st.integers(0, 70), end=st.integers(0, 70))
def test_blocks_in_range_matches_main_branch(shape, start, end):
    chain, blocks = make_tree(shape)
    for block in blocks:
        chain.add_block(block)
    window = chain.blocks_in_range(start, end)
    expected = [
        b for b in chain.main_branch() if start < b.height <= end
    ]
    assert [b.hash for b in window] == [b.hash for b in expected]


@settings(max_examples=100, deadline=None)
@given(shape=tree_shapes)
def test_duplicate_insertion_is_idempotent(shape):
    chain, blocks = make_tree(shape)
    for block in blocks:
        chain.add_block(block)
    census = (chain.total_blocks, chain.height, chain.main_branch_blocks)
    for block in blocks:
        chain.add_block(block)
    assert (chain.total_blocks, chain.height, chain.main_branch_blocks) == census


class RebuildReference(Blockchain):
    """The main branch and a set of its hashes, both rebuilt from the
    whole branch after every change — O(height) per block, obviously
    right."""

    def __init__(self) -> None:
        super().__init__()
        self._main_set = set(self._main)

    def _maybe_reorg(self, block: Block) -> bool:
        if block.height <= self.height:
            return False
        suffix = []
        cursor = block
        while cursor is not None and cursor.hash not in self._main_set:
            suffix.append(cursor.hash)
            cursor = self._blocks.get(cursor.header.parent_hash)
        if cursor is None:
            raise InvalidBlock("branch does not connect to the main chain")
        del self._main[cursor.height + 1 :]
        self._main.extend(reversed(suffix))
        self._main_set = set(self._main)
        return True


@settings(max_examples=150, deadline=None)
@given(
    shape=tree_shapes,
    order_seed=st.randoms(use_true_random=False),
    in_order=st.booleans(),
)
def test_on_main_branch_tracks_the_branch_through_forks_and_extensions(
    shape, order_seed, in_order
):
    """Block by block — extensions of the tip, side branches, reorgs of
    any depth, orphans connecting later — ``on_main_branch``, answered
    from the branch at each block's height, agrees with the rebuilt
    reference's set for every block, fork blocks and orphans included,
    and the branch is the reference's."""
    chain, blocks = make_tree(shape)
    reference = RebuildReference()
    every = [chain.genesis, *blocks]
    if not in_order:
        blocks = list(blocks)
        order_seed.shuffle(blocks)
    for _ in range(2):  # a second pass re-offers every block: no-ops
        for block in blocks:
            assert chain.add_block(block) == reference.add_block(block)
            assert [chain.on_main_branch(b.hash) for b in every] == [
                b.hash in reference._main_set for b in every
            ]
            assert chain._main == reference._main
            assert sum(map(len, chain._orphans.values())) == sum(
                map(len, reference._orphans.values())
            )
