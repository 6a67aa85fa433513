"""Tendermint BFT (the protocol behind ErisDB / Monax).

The paper surveys ErisDB as a Tendermint-based permissioned platform
(Section 2, Table 2) and notes its integration into BLOCKBENCH was
"under development" (Section 3.2). This module completes that work:
a full round-based Tendermint implementation that the ErisDB platform
node drives.

Protocol sketch (Buchman's thesis / the tendermint-core 0.x line):

* Heights are decided one at a time. Within a height, consensus
  proceeds in **rounds**; the proposer of round ``r`` at height ``h``
  is ``validators[(h + r) % N]`` — rotation is built in, unlike PBFT
  where the leader only changes on a view change.
* A round has three steps: **propose** (proposer broadcasts a block),
  **prevote** (validators broadcast a vote for the proposal or ``nil``)
  and **precommit** (on a ``+2/3`` prevote quorum for one block,
  validators lock on it and precommit; on ``+2/3`` nil they precommit
  nil). A ``+2/3`` precommit quorum commits the block — finality is
  immediate, like PBFT and unlike PoW.
* **Locking** provides safety across rounds: once a validator
  precommits a block it stays locked on it, prevoting only that block
  in later rounds, until a ``+2/3`` prevote quorum for a *different*
  block (a newer proof-of-lock) releases it.
* Liveness comes from per-step timeouts that grow with the round
  number, so a crashed or partitioned proposer costs one round, not a
  view-change storm.

Message complexity is O(N^2) per decision (two all-to-all vote phases),
the same order as PBFT; what differs is the built-in rotation and the
absence of a separate view-change subprotocol — differences the
extension benchmarks surface.

Idle behaviour follows ErisDB's ``create_empty_blocks = false``: rounds
start only when there is work, so an idle network exchanges no
messages (and burns no simulated CPU).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..chain.block import Block
from ..config import TendermintConfig
from ..crypto.hashing import Hash
from ..registry import register_consensus
from .base import ConsensusHost, ConsensusProtocol

PROPOSAL = "tm/proposal"
PREVOTE = "tm/prevote"
PRECOMMIT = "tm/precommit"
SYNC_REQ = "tm/sync-req"
SYNC_RESP = "tm/sync-resp"

_VOTE_MSG_BYTES = 96

#: Proposals/votes this many heights ahead of ours are buffered rather
#: than dropped. Gossip keeps flowing while a validator is still
#: finishing the previous height; without the buffer a proposal that
#: lands one commit early would be lost and its round would stall for a
#: full timeout cycle (tendermint-core buffers these the same way).
FUTURE_HEIGHT_WINDOW = 2

#: Step names, in round order (used for assertions and reporting).
STEP_IDLE = "idle"
STEP_PROPOSE = "propose"
STEP_PREVOTE = "prevote"
STEP_PRECOMMIT = "precommit"


@dataclass
class _RoundState:
    """Vote bookkeeping for one (height, round)."""

    proposal: Block | None = None
    #: voter -> block hash (None = nil vote).
    prevotes: dict[str, Hash | None] = field(default_factory=dict)
    precommits: dict[str, Hash | None] = field(default_factory=dict)
    prevote_sent: bool = False
    precommit_sent: bool = False


def _count(votes: dict[str, Hash | None], digest: Hash | None) -> int:
    """Votes recorded for ``digest`` (None counts nil votes)."""
    return sum(1 for d in votes.values() if d == digest)


def _quorum_digest(votes: dict[str, Hash | None], quorum: int) -> Hash | None:
    """The non-nil digest holding a quorum of ``votes``, if any."""
    counts: dict[Hash, int] = {}
    for digest in votes.values():
        if digest is not None:
            counts[digest] = counts.get(digest, 0) + 1
    for digest, count in counts.items():
        if count >= quorum:
            return digest
    return None


@register_consensus("tendermint")
class Tendermint(ConsensusProtocol):
    """One validator's view of the Tendermint state machine."""

    message_kinds = (PROPOSAL, PREVOTE, PRECOMMIT, SYNC_REQ, SYNC_RESP)
    proposal_kinds = (PROPOSAL,)
    block_kinds = (PROPOSAL,)
    vote_kinds = (PREVOTE, PRECOMMIT)

    def __init__(
        self,
        host: ConsensusHost,
        config: TendermintConfig,
        validators: list[str],
    ) -> None:
        super().__init__(host)
        self.config = config
        self.validators = list(validators)
        #: Height currently being decided (= committed height + 1).
        self.height = 1
        self.round = 0
        self.step = STEP_IDLE
        #: Lock state (Tendermint's safety core).
        self.locked_block: Block | None = None
        self.locked_round = -1
        self._rounds: dict[tuple[int, int], _RoundState] = {}
        self._running = False
        #: Guards stale step timers: bumped on every step transition.
        self._step_serial = 0
        # Statistics surfaced in experiment reports.
        self.blocks_committed = 0
        self.rounds_started = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Validator count."""
        return len(self.validators)

    @property
    def f(self) -> int:
        """Crash/Byzantine faults tolerated: strictly less than N/3."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        """Strictly more than two thirds of the validator set."""
        return (2 * self.n) // 3 + 1

    def proposer_of(self, height: int, round_: int) -> str:
        """Deterministic proposer rotation: validators[(h + r) % N]."""
        return self.validators[(height + round_) % self.n]

    def is_proposer(self) -> bool:
        """Whether we propose for the current (height, round)."""
        return self.proposer_of(self.height, self.round) == self.host.node_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the work-polling tick loop."""
        self._running = True
        self.host.set_timer(self.config.tick_interval, self._tick)

    def stop(self) -> None:
        """Stop participating (crash injection)."""
        self._running = False

    def restart(self, height: int, view_hint: int = 0) -> None:
        """Rejoin after crash recovery at the synced chain height.

        Tendermint needs no view transfer: the proposer of each round
        derives from (height, round), so entering the next undecided
        height at round 0 is enough. Pre-crash lock and round state are
        process-local and died with the process.
        """
        self.height = max(self.height, height + 1)
        self.round = 0
        self.step = STEP_IDLE
        self._step_serial += 1
        self.locked_block = None
        self.locked_round = -1
        self._rounds = {
            key: state for key, state in self._rounds.items()
            if key[0] >= self.height
        }
        self.start()

    def on_new_pending_tx(self) -> None:
        """No-op: the tick loop batches work, like a real mempool reap.

        Proposing synchronously here would emit one block per arriving
        transaction; deferring to :meth:`_tick` (at ``tick_interval``
        cadence) batches whatever accumulated, mirroring Tendermint's
        timeout_commit/reap cycle.
        """

    # ------------------------------------------------------------------
    # Round machinery
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        if self.step == STEP_IDLE and self._has_work():
            self._enter_round(self.round)
        self.host.set_timer(self.config.tick_interval, self._tick)

    def _has_work(self) -> bool:
        return self.host.pending_count() > 0 or self.locked_block is not None

    def _round_state(self, height: int, round_: int) -> _RoundState:
        key = (height, round_)
        state = self._rounds.get(key)
        if state is None:
            state = _RoundState()
            self._rounds[key] = state
        return state

    def _enter_round(self, round_: int) -> None:
        """Start (height, round_): propose if it is our turn."""
        if not self._running:
            return
        self.round = round_
        self.step = STEP_PROPOSE
        self._step_serial += 1
        self.rounds_started += 1
        if self.is_proposer():
            self._propose()
        self._arm_step_timer(
            self.config.propose_timeout + round_ * self.config.round_timeout_delta,
            self._on_propose_timeout,
        )
        # The proposal (and even vote quorums) may have arrived while we
        # were still committing the previous height; act on the buffered
        # round state instead of waiting out the propose timeout.
        state = self._round_state(self.height, round_)
        if self.step == STEP_PROPOSE and state.proposal is not None:
            block = state.proposal
            if self.locked_block is not None and self.locked_block.hash != block.hash:
                self._cast_prevote(self.locked_block.hash)
            else:
                self._cast_prevote(block.hash)
        else:
            self._check_prevotes(self.height, round_)
            self._check_precommits(self.height, round_)

    def _arm_step_timer(self, delay: float, fn: Any) -> None:
        self.host.set_timer(delay, fn, self.height, self.round, self._step_serial)

    def _stale(self, height: int, round_: int, serial: int) -> bool:
        return (
            not self._running
            or height != self.height
            or round_ != self.round
            or serial != self._step_serial
        )

    # -- propose -----------------------------------------------------------
    def _propose(self) -> None:
        if self.locked_block is not None:
            # Re-propose the locked block (proof-of-lock re-proposal).
            block = self.locked_block
        else:
            parent = self.host.chain().tip
            if parent.height + 1 != self.height:
                return  # chain behind consensus state; wait for sync
            block = self.host.assemble_block(
                parent,
                consensus_meta={
                    "height": str(self.height),
                    "round": str(self.round),
                },
                max_txs=self.config.max_txs_per_block,
            )
            if not block.transactions:
                return
        state = self._round_state(self.height, self.round)
        state.proposal = block
        self.host.broadcast_to_peers(PROPOSAL, block, block.size_bytes())
        self._cast_prevote(block.hash)

    def _on_propose_timeout(self, height: int, round_: int, serial: int) -> None:
        if self._stale(height, round_, serial) or self.step != STEP_PROPOSE:
            return
        # No acceptable proposal arrived: prevote the lock, or nil.
        digest = self.locked_block.hash if self.locked_block is not None else None
        self._cast_prevote(digest)

    # -- prevote -----------------------------------------------------------
    def _cast_prevote(self, digest: Hash | None) -> None:
        state = self._round_state(self.height, self.round)
        if state.prevote_sent:
            return
        state.prevote_sent = True
        self.step = STEP_PREVOTE
        self._step_serial += 1
        vote = {"height": self.height, "round": self.round, "digest": digest}
        state.prevotes[self.host.node_id] = digest
        self.host.broadcast_to_peers(PREVOTE, vote, _VOTE_MSG_BYTES)
        self._arm_step_timer(
            self.config.prevote_timeout
            + self.round * self.config.round_timeout_delta,
            self._on_prevote_timeout,
        )
        self._check_prevotes(self.height, self.round)

    def _on_prevote_timeout(self, height: int, round_: int, serial: int) -> None:
        if self._stale(height, round_, serial) or self.step != STEP_PREVOTE:
            return
        # No +2/3 for one block within the step: precommit nil.
        self._cast_precommit(None)

    def _check_prevotes(self, height: int, round_: int) -> None:
        if height != self.height or round_ != self.round:
            return
        state = self._round_state(height, round_)
        digest = _quorum_digest(state.prevotes, self.quorum)
        if digest is not None:
            # Proof-of-lock: a +2/3 prevote quorum for one block.
            if state.proposal is not None and state.proposal.hash == digest:
                self.locked_block = state.proposal
                self.locked_round = round_
                if self.step in (STEP_PROPOSE, STEP_PREVOTE):
                    if not state.prevote_sent:
                        self._cast_prevote(digest)
                    self._cast_precommit(digest)
            elif (
                self.locked_block is not None
                and self.locked_block.hash != digest
                and round_ > self.locked_round
            ):
                # A newer proof-of-lock for a different block unlocks us.
                self.locked_block = None
                self.locked_round = -1
        elif (
            _count(state.prevotes, None) >= self.quorum
            and self.step in (STEP_PROPOSE, STEP_PREVOTE)
        ):
            self._cast_precommit(None)

    # -- precommit ----------------------------------------------------------
    def _cast_precommit(self, digest: Hash | None) -> None:
        state = self._round_state(self.height, self.round)
        if state.precommit_sent:
            return
        state.precommit_sent = True
        self.step = STEP_PRECOMMIT
        self._step_serial += 1
        vote = {"height": self.height, "round": self.round, "digest": digest}
        state.precommits[self.host.node_id] = digest
        self.host.broadcast_to_peers(PRECOMMIT, vote, _VOTE_MSG_BYTES)
        self._arm_step_timer(
            self.config.precommit_timeout
            + self.round * self.config.round_timeout_delta,
            self._on_precommit_timeout,
        )
        self._check_precommits(self.height, self.round)

    def _on_precommit_timeout(self, height: int, round_: int, serial: int) -> None:
        if self._stale(height, round_, serial) or self.step != STEP_PRECOMMIT:
            return
        if self._has_work():
            self._enter_round(self.round + 1)
        else:
            self.step = STEP_IDLE
            self._step_serial += 1

    def _check_precommits(self, height: int, round_: int) -> None:
        if height != self.height:
            return
        state = self._round_state(height, round_)
        digest = _quorum_digest(state.precommits, self.quorum)
        if digest is not None:
            if state.proposal is not None and state.proposal.hash == digest:
                self._commit(state.proposal)
            # else: quorum exists but we never saw the block; the sync
            # path (triggered by higher-height votes) will catch us up.
        elif (
            round_ == self.round
            and _count(state.precommits, None) >= self.quorum
            and self.step == STEP_PRECOMMIT
        ):
            # The round is dead for everyone: move on immediately.
            if self._has_work():
                self._enter_round(self.round + 1)
            else:
                self.step = STEP_IDLE
                self._step_serial += 1

    # -- commit ------------------------------------------------------------
    def _commit(self, block: Block) -> None:
        if block.height != self.height:
            return
        self.host.deliver_block(block)
        self.blocks_committed += 1
        self.height += 1
        self.round = 0
        self.step = STEP_IDLE
        self._step_serial += 1
        self.locked_block = None
        self.locked_round = -1
        self._rounds = {
            key: state for key, state in self._rounds.items() if key[0] >= self.height
        }
        if self._has_work():
            self.host.set_timer(self.config.commit_interval, self._next_height_tick)

    def _next_height_tick(self) -> None:
        if self._running and self.step == STEP_IDLE and self._has_work():
            self._enter_round(self.round)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, kind: str, payload: Any, sender: str) -> None:
        """Dispatch one Tendermint message to its step handler."""
        if not self._running:
            return
        if kind == PROPOSAL:
            self._on_proposal(payload, sender)
        elif kind == PREVOTE:
            self._on_vote(payload, sender, prevote=True)
        elif kind == PRECOMMIT:
            self._on_vote(payload, sender, prevote=False)
        elif kind == SYNC_REQ:
            self._on_sync_req(payload, sender)
        elif kind == SYNC_RESP:
            self._on_sync_resp(payload, sender)

    def _on_proposal(self, block: Block, sender: str) -> None:
        height = block.height
        if height < self.height:
            return  # stale proposal for a committed height
        if not self.proposal_intact(block):
            return  # digest fails verification (byzantine proposer)
        meta_round = int(block.header.meta("round", "0"))
        if sender != self.proposer_of(height, meta_round):
            return  # not from the legitimate proposer of that round
        if height > self.height:
            # Buffer near-future proposals; _enter_round picks them up
            # once the preceding commit lands.
            if height - self.height <= FUTURE_HEIGHT_WINDOW:
                self._round_state(height, meta_round).proposal = block
            self._request_sync(sender)
            return
        if meta_round < self.round:
            return
        state = self._round_state(height, meta_round)
        state.proposal = block
        if meta_round > self.round:
            # We lag behind the network's round; catch up to it.
            self._enter_round(meta_round)
        if self.step == STEP_PROPOSE and meta_round == self.round:
            if self.locked_block is not None and self.locked_block.hash != block.hash:
                self._cast_prevote(self.locked_block.hash)
            else:
                self._cast_prevote(block.hash)
        else:
            # The proposal may complete an already-seen quorum.
            self._check_prevotes(height, meta_round)
            self._check_precommits(height, meta_round)

    def _on_vote(self, payload: dict, sender: str, prevote: bool) -> None:
        height = payload["height"]
        round_ = payload["round"]
        if height < self.height:
            return
        if height > self.height:
            # Buffer near-future votes so a quorum that formed while we
            # were committing is visible the moment we enter the round.
            if height - self.height <= FUTURE_HEIGHT_WINDOW:
                state = self._round_state(height, round_)
                votes = state.prevotes if prevote else state.precommits
                votes[sender] = payload["digest"]
            self._request_sync(sender)
            return
        state = self._round_state(height, round_)
        votes = state.prevotes if prevote else state.precommits
        votes[sender] = payload["digest"]
        # Round catch-up: f+1 distinct voters in a newer round prove the
        # network moved on without us.
        if round_ > self.round:
            voters = set(state.prevotes) | set(state.precommits)
            if len(voters) >= self.f + 1:
                self._enter_round(round_)
        if prevote:
            self._check_prevotes(height, round_)
        else:
            self._check_precommits(height, round_)

    # ------------------------------------------------------------------
    # State sync (catch-up after partitions, crashes, drops)
    # ------------------------------------------------------------------
    def _request_sync(self, peer: str) -> None:
        self.host.send_to(
            peer,
            SYNC_REQ,
            {"from_height": self.host.chain().height},
            _VOTE_MSG_BYTES,
        )

    def _on_sync_req(self, payload: dict, sender: str) -> None:
        chain = self.host.chain()
        blocks = chain.blocks_in_range(payload["from_height"], chain.height)
        if not blocks:
            return
        size = sum(b.size_bytes() for b in blocks)
        self.host.send_to(sender, SYNC_RESP, blocks, size)

    def _on_sync_resp(self, blocks: list[Block], sender: str) -> None:
        for block in blocks:
            if block.height == self.height:
                self._commit(block)

    def confirmed_height(self) -> int:
        """Tendermint blocks are final on commit (no confirmation depth)."""
        return self.host.chain().height
