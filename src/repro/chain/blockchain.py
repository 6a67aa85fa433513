"""Fork-aware chain store.

Keeps *every* block ever received — including blocks on abandoned
branches — because the paper's security metric is exactly the gap
between total blocks produced and blocks that end up on the main branch
(Section 3.3: "we quantify security as the number of blocks in the
forks"). The main branch is selected by the longest-chain rule with
first-seen tie-breaking, which is what Ethereum's testnet effectively
does at the paper's scales; PBFT/PoA chains simply never fork.
"""

from __future__ import annotations

from typing import Iterator

from ..crypto.hashing import Hash
from ..errors import InvalidBlock
from .block import Block, genesis_block


class Blockchain:
    """Block DAG with main-branch tracking."""

    def __init__(self, chain_id: str = "repro") -> None:
        self.genesis = genesis_block(chain_id)
        genesis_hash = self.genesis.hash
        self._blocks: dict[Hash, Block] = {genesis_hash: self.genesis}
        self._main: list[Hash] = [genesis_hash]
        self._orphans: dict[Hash, list[Block]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def tip(self) -> Block:
        """Head of the main branch."""
        return self._blocks[self._main[-1]]

    @property
    def height(self) -> int:
        """Main-branch height (genesis = 0)."""
        return len(self._main) - 1

    def block_by_hash(self, block_hash: Hash) -> Block | None:
        """Any stored block (main branch or fork), or None."""
        return self._blocks.get(block_hash)

    def block_by_height(self, height: int) -> Block | None:
        """Main-branch block at ``height``."""
        if 0 <= height < len(self._main):
            return self._blocks[self._main[height]]
        return None

    def contains(self, block_hash: Hash) -> bool:
        """Whether the block is stored (on any branch)."""
        return block_hash in self._blocks

    def on_main_branch(self, block_hash: Hash) -> bool:
        """Whether the block is currently on the main branch: a stored
        block is when the branch holds its hash at its height."""
        block = self._blocks.get(block_hash)
        if block is None:
            return False
        height = block.header.height
        main = self._main
        return height < len(main) and main[height] == block_hash

    def blocks_in_range(self, start: int, end: int) -> list[Block]:
        """Main-branch blocks with start < height <= end (paper's (h, t])."""
        out = []
        for height in range(start + 1, end + 1):
            block = self.block_by_height(height)
            if block is not None:
                out.append(block)
        return out

    def main_branch(self) -> Iterator[Block]:
        """Genesis-to-tip iteration over the current main branch."""
        for block_hash in self._main:
            yield self._blocks[block_hash]

    # ------------------------------------------------------------------
    # Fork / security metrics (Figure 10)
    # ------------------------------------------------------------------
    @property
    def total_blocks(self) -> int:
        """All non-genesis blocks ever stored, forks included."""
        return len(self._blocks) - 1

    @property
    def main_branch_blocks(self) -> int:
        """Non-genesis blocks on the main branch."""
        return len(self._main) - 1

    @property
    def fork_blocks(self) -> int:
        """Blocks produced but not (currently) on the main branch."""
        return self.total_blocks - self.main_branch_blocks

    def fork_ratio(self) -> float:
        """main-branch blocks / total blocks — the paper's security ratio.

        Lower means more exposure to double spending / selfish mining.
        """
        if self.total_blocks == 0:
            return 1.0
        return self.main_branch_blocks / self.total_blocks

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_block(self, block: Block) -> bool:
        """Store ``block``; returns True if the main branch changed.

        Blocks whose parent is unknown are parked as orphans and
        connected automatically when the parent arrives (standard
        behaviour for gossip-based block propagation).
        """
        block_hash = block.hash
        if block_hash in self._blocks:
            return False
        parent_hash = block.header.parent_hash
        if parent_hash not in self._blocks:
            self._orphans.setdefault(parent_hash, []).append(block)
            return False
        parent = self._blocks[parent_hash]
        if block.height != parent.height + 1:
            raise InvalidBlock(
                f"block height {block.height} does not extend parent "
                f"height {parent.height}"
            )
        self._blocks[block_hash] = block
        reorganized = self._maybe_reorg(block)
        # Connect any orphans waiting on this block.
        for orphan in self._orphans.pop(block_hash, []):
            reorganized = self.add_block(orphan) or reorganized
        return reorganized

    def _maybe_reorg(self, block: Block) -> bool:
        """Adopt ``block``'s branch if it is strictly longer (first-seen ties)."""
        if block.height <= self.height:
            return False
        # Walk back to the fork point collecting the new suffix.
        suffix: list[Hash] = []
        cursor: Block | None = block
        while cursor is not None and not self.on_main_branch(cursor.hash):
            suffix.append(cursor.hash)
            cursor = self._blocks.get(cursor.header.parent_hash)
        if cursor is None:
            raise InvalidBlock("branch does not connect to the main chain")
        # Only the abandoned and the adopted suffix change (an extension
        # of the tip abandons nothing): O(reorg depth).
        del self._main[cursor.height + 1 :]
        suffix.reverse()
        self._main.extend(suffix)
        return True
