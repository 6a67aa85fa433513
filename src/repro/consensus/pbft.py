"""Practical Byzantine Fault Tolerance (Hyperledger Fabric v0.6's protocol).

Full three-phase PBFT: the view-``v`` leader batches pending
transactions into a block and broadcasts PRE-PREPARE; replicas validate
and broadcast PREPARE; once a quorum of prepares is seen they broadcast
COMMIT; a quorum of commits executes the batch. Liveness is guarded by
view changes with escalating timeouts.

Two deliberately faithful details drive the paper's headline results:

* **Quorum size is ``N - f`` with ``f = (N - 1) // 3``.** For the
  classic ``N = 3f + 1`` this equals ``2f + 1``; for other N it is the
  conservative quorum Fabric v0.6 effectively waited for. It is why a
  12-server network halts after 4 crashes (quorum 9 > 8 alive) while a
  16-server network keeps going (quorum 11 <= 12 alive) — Figure 9.

* **Consensus messages share the node's bounded inbox with the
  transaction gossip flood.** Under overload the network layer drops
  whatever overflows, prepares and commits included; quorums stall,
  view-change messages are themselves dropped, and replicas end up "in
  different views ... receiving conflicting view change messages"
  (Section 4.1.2) — the >16-node collapse of Figure 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..chain.block import Block
from ..config import PBFTConfig
from ..crypto.hashing import Hash
from ..registry import register_consensus
from .base import ConsensusHost, ConsensusProtocol

PRE_PREPARE = "pbft/pre-prepare"
PREPARE = "pbft/prepare"
COMMIT = "pbft/commit"
VIEW_CHANGE = "pbft/view-change"
NEW_VIEW = "pbft/new-view"
SYNC_REQ = "pbft/sync-req"
SYNC_RESP = "pbft/sync-resp"

_CONTROL_MSG_BYTES = 96


@dataclass
class _LogEntry:
    """Per-sequence bookkeeping for the three phases of a sequence not
    yet executed. Executing a sequence deletes its entry: a replica that
    is behind is served blocks from the chain, never from the log."""

    view: int
    block: Block | None = None
    digest: Hash | None = None
    prepares: set[str] = field(default_factory=set)
    commits: set[str] = field(default_factory=set)
    sent_commit: bool = False


@register_consensus("pbft")
class PBFT(ConsensusProtocol):
    """One replica's view of the PBFT protocol."""

    message_kinds = (
        PRE_PREPARE,
        PREPARE,
        COMMIT,
        VIEW_CHANGE,
        NEW_VIEW,
        SYNC_REQ,
        SYNC_RESP,
    )
    proposal_kinds = (PRE_PREPARE,)
    block_kinds = (PRE_PREPARE,)
    vote_kinds = (PREPARE, COMMIT)

    def __init__(
        self,
        host: ConsensusHost,
        config: PBFTConfig,
        replicas: list[str],
    ) -> None:
        super().__init__(host)
        self.config = config
        self.replicas = list(replicas)
        self.view = 0
        self.last_executed = 0
        #: Un-executed sequences only, all above ``last_executed``.
        self.log: dict[int, _LogEntry] = {}
        self.in_flight = False
        self._running = False
        self._view_change_votes: dict[int, set[str]] = {}
        self._view_changing = False
        self._pending_new_view: int | None = None
        #: One watchdog chases the deadline: armed while its timer is
        #: queued. stop() bumps the serial, which outdates that timer.
        self._progress_armed = False
        self._progress_serial = 0
        self._progress_deadline = 0.0
        # Statistics surfaced in experiment reports.
        self.view_changes_started = 0

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Replica count."""
        return len(self.replicas)

    @property
    def f(self) -> int:
        """Byzantine faults tolerated: strictly less than N/3."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        """Certificate size: N - f (see the module docstring for why
        this, and not 2f + 1, reproduces Figure 9)."""
        return self.n - self.f

    def leader_of(self, view: int) -> str:
        """Primary of ``view`` (round-robin over the replica list)."""
        return self.replicas[view % self.n]

    def is_leader(self) -> bool:
        """Whether this replica is the current view's primary."""
        return self.leader_of(self.view) == self.host.node_id

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the batching/watchdog tick loop."""
        self._running = True
        self.host.set_timer(self.config.batch_interval, self._batch_tick)

    def stop(self) -> None:
        """Stop participating (crash injection)."""
        self._running = False
        self._progress_serial += 1
        self._progress_armed = False

    def restart(self, height: int, view_hint: int = 0) -> None:
        """Rejoin after crash recovery: adopt the synced chain position
        and the current view learned from sync peers.

        Without the view hint a recovered replica would come back in
        view 0, reject the live primary's pre-prepares, and force the
        cluster through a cascade of view changes to drag it forward;
        with it the replica slots straight into the active view (the
        real protocol's NEW-VIEW/checkpoint transfer, simplified).

        The log starts empty: pre-crash phase state is gone with the
        process, and anything not yet executed will be re-proposed from
        the mempool.
        """
        self.last_executed = max(self.last_executed, height)
        if view_hint > self.view:
            self.view = view_hint
        self._view_changing = False
        self._pending_new_view = None
        self.in_flight = False
        self.log = {}
        self._view_change_votes = {
            view: votes
            for view, votes in self._view_change_votes.items()
            if view > self.view
        }
        self._progress_deadline = 0.0
        self.start()
        self._arm_progress_timer()

    def on_new_pending_tx(self) -> None:
        """Arm the no-progress watchdog; batching happens on the tick.
        The mempool has just grown, so there is work by construction."""
        if self._running:
            self._push_progress_deadline()

    # ------------------------------------------------------------------
    # Leader: batching and proposal
    # ------------------------------------------------------------------
    def _batch_tick(self) -> None:
        if not self._running:
            return
        self._check_request_timeout()
        self._try_propose()
        self.host.set_timer(self.config.batch_interval, self._batch_tick)

    def _check_request_timeout(self) -> None:
        """Fabric v0.6's request watchdog (see PBFTConfig.request_timeout)."""
        if self._view_changing:
            return
        age = self.host.oldest_request_age()
        if age > self.config.request_timeout:
            self._start_view_change(self.view + 1)

    def _try_propose(self) -> None:
        if (
            not self.is_leader()
            or self._view_changing
            or self.in_flight
            or self.host.pending_count() == 0
        ):
            return
        parent = self.host.chain().tip
        seq = self.last_executed + 1
        if parent.height + 1 != seq:
            return  # chain and log disagree; wait for sync
        block = self.host.assemble_block(
            parent,
            consensus_meta={"view": str(self.view), "seq": str(seq)},
            max_txs=self.config.batch_size,
        )
        if not block.transactions:
            return
        self.in_flight = True
        entry = self._entry(seq, self.view)
        entry.block = block
        entry.digest = block.hash
        self.host.broadcast_to_peers(PRE_PREPARE, block, block.size_bytes())
        self._record_prepare(seq, self.host.node_id, block.hash)
        self.host.broadcast_to_peers(
            PREPARE,
            {"view": self.view, "seq": seq, "digest": block.hash},
            _CONTROL_MSG_BYTES,
        )
        self._arm_progress_timer()

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def on_message(self, kind: str, payload: Any, sender: str) -> None:
        """Dispatch one PBFT message to its phase handler."""
        if not self._running:
            return
        if kind == PRE_PREPARE:
            self._on_pre_prepare(payload, sender)
        elif kind == PREPARE:
            self._on_prepare(payload, sender)
        elif kind == COMMIT:
            self._on_commit(payload, sender)
        elif kind == VIEW_CHANGE:
            self._on_view_change(payload, sender)
        elif kind == NEW_VIEW:
            self._on_new_view(payload, sender)
        elif kind == SYNC_REQ:
            self._on_sync_req(payload, sender)
        elif kind == SYNC_RESP:
            self._on_sync_resp(payload, sender)

    def _entry(self, seq: int, view: int) -> _LogEntry:
        entry = self.log.get(seq)
        if entry is None or entry.view != view:
            entry = _LogEntry(view=view)
            self.log[seq] = entry
        return entry

    def _on_pre_prepare(self, block: Block, sender: str) -> None:
        if sender != self.leader_of(self.view) or self._view_changing:
            return
        if not self.proposal_intact(block):
            return  # digest fails verification (byzantine leader)
        seq = block.height
        if seq <= self.last_executed:
            return  # already executed (a retransmission)
        if seq > self.last_executed + 1:
            self._request_sync(sender)
        entry = self._entry(seq, self.view)
        entry.block = block
        entry.digest = block.hash
        self._record_prepare(seq, self.host.node_id, block.hash)
        self.host.broadcast_to_peers(
            PREPARE,
            {"view": self.view, "seq": seq, "digest": block.hash},
            _CONTROL_MSG_BYTES,
        )
        self._arm_progress_timer()
        self._check_phase_transitions(seq)

    def _on_prepare(self, payload: dict, sender: str) -> None:
        if payload["view"] != self.view or payload["seq"] <= self.last_executed:
            return
        self._record_prepare(payload["seq"], sender, payload["digest"])
        self._check_phase_transitions(payload["seq"])

    def _record_prepare(self, seq: int, node: str, digest: Hash) -> None:
        entry = self._entry(seq, self.view)
        if entry.digest is not None and entry.digest != digest:
            return  # conflicting digest; ignore (byzantine or stale)
        entry.prepares.add(node)

    def _on_commit(self, payload: dict, sender: str) -> None:
        if payload["view"] != self.view or payload["seq"] <= self.last_executed:
            return
        entry = self._entry(payload["seq"], self.view)
        if entry.digest is not None and entry.digest != payload["digest"]:
            return
        entry.commits.add(sender)
        self._check_phase_transitions(payload["seq"])

    def _check_phase_transitions(self, seq: int) -> None:
        entry = self.log.get(seq)
        if entry is None or entry.view != self.view:
            return
        # Prepared: quorum of matching prepares and we know the block.
        if (
            entry.block is not None
            and not entry.sent_commit
            and len(entry.prepares) >= self.quorum
        ):
            entry.sent_commit = True
            entry.commits.add(self.host.node_id)
            self.host.broadcast_to_peers(
                COMMIT,
                {"view": self.view, "seq": seq, "digest": entry.digest},
                _CONTROL_MSG_BYTES,
            )
        # Committed: quorum of commits -> execute in order.
        if (
            entry.block is not None
            and entry.sent_commit
            and len(entry.commits) >= self.quorum
        ):
            self._execute_ready()

    def _execute_ready(self) -> None:
        """Execute consecutive committed sequences starting after last_executed."""
        while True:
            entry = self.log.get(self.last_executed + 1)
            if (
                entry is None
                or entry.block is None
                or not entry.sent_commit
                or len(entry.commits) < self.quorum
            ):
                return
            self.last_executed += 1
            del self.log[self.last_executed]
            self.host.deliver_block(entry.block)
            if self.leader_of(entry.view) == self.host.node_id:
                self.in_flight = False
            self._arm_progress_timer()
            self._try_propose()

    # ------------------------------------------------------------------
    # View changes
    # ------------------------------------------------------------------
    def _arm_progress_timer(self) -> None:
        """Push the no-progress deadline out while work is outstanding.

        One watchdog timer per replica chases the deadline: arming only
        moves ``_progress_deadline``, and a timer is set just when none
        is pending (none yet, fired, or outdated by stop()).
        """
        if self._running and self._has_work():
            self._push_progress_deadline()

    def _push_progress_deadline(self) -> None:
        self._progress_deadline = self.host.now + self.config.view_timeout
        if not self._progress_armed:
            self._progress_armed = True
            self.host.set_timer(
                self.config.view_timeout, self._progress_check,
                self._progress_serial,
            )

    def _progress_check(self, serial: int) -> None:
        if serial != self._progress_serial:
            return  # outdated by stop(); restart() armed a fresh one
        if self._progress_deadline > self.host.now:
            # Progress since this timer was set. Follow the deadline to
            # its exact instant: now + (deadline - now) can be another
            # float, and a view change's time flows into latencies.
            self.host.set_timer_at(
                self._progress_deadline, self._progress_check, serial
            )
            return
        self._progress_armed = False
        if not self._view_changing and self._has_work():
            self._start_view_change(self.view + 1)

    def _start_view_change(self, new_view: int) -> None:
        if not self._running:
            return
        self._view_changing = True
        self._pending_new_view = new_view
        self.view_changes_started += 1
        votes = self._view_change_votes.setdefault(new_view, set())
        votes.add(self.host.node_id)
        self.host.broadcast_to_peers(
            VIEW_CHANGE,
            {"new_view": new_view, "last_executed": self.last_executed},
            _CONTROL_MSG_BYTES,
        )
        self._maybe_lead_new_view(new_view)
        timeout = self.config.view_timeout + self.config.view_timeout_backoff * max(
            0, new_view - self.view - 1
        )
        self.host.set_timer(timeout, self._view_change_check, new_view)

    def _view_change_check(self, attempted_view: int) -> None:
        """Escalate if the view change we started never completed."""
        if not self._running:
            return
        if not (self._view_changing and self._pending_new_view == attempted_view):
            return
        if not self._has_work():
            # Nothing left to order (e.g. we caught up via sync while the
            # change was pending): liveness is moot, stand down.
            self._view_changing = False
            self._pending_new_view = None
            return
        self._start_view_change(attempted_view + 1)

    def _has_work(self) -> bool:
        return self.host.pending_count() > 0 or bool(self.log)

    def _on_view_change(self, payload: dict, sender: str) -> None:
        new_view = payload["new_view"]
        # A view-change vote doubles as a status report: if the voter is
        # behind our executed state, ship it the blocks it is missing
        # (PBFT's state-transfer, simplified).
        if payload["last_executed"] < self.last_executed:
            chain = self.host.chain()
            blocks = chain.blocks_in_range(payload["last_executed"], chain.height)
            if blocks:
                size = sum(b.size_bytes() for b in blocks)
                self.host.send_to(sender, SYNC_RESP, blocks, size)
        if new_view <= self.view:
            return
        votes = self._view_change_votes.setdefault(new_view, set())
        votes.add(sender)
        # A replica that sees f+1 view-change votes joins the change even
        # if its own timer has not fired (standard PBFT liveness rule).
        if len(votes) >= self.f + 1 and not (
            self._view_changing and (self._pending_new_view or 0) >= new_view
        ):
            self._start_view_change(new_view)
        self._maybe_lead_new_view(new_view)

    def _maybe_lead_new_view(self, new_view: int) -> None:
        votes = self._view_change_votes.get(new_view, set())
        if (
            self.leader_of(new_view) == self.host.node_id
            and len(votes) >= self.quorum
            and new_view > self.view
        ):
            self.host.broadcast_to_peers(
                NEW_VIEW,
                {"view": new_view, "last_executed": self.last_executed},
                _CONTROL_MSG_BYTES,
            )
            self._enter_view(new_view)

    def _on_new_view(self, payload: dict, sender: str) -> None:
        new_view = payload["view"]
        if new_view < self.view or sender != self.leader_of(new_view):
            return
        self._enter_view(new_view)

    def _enter_view(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        self.view = new_view
        self._view_changing = False
        self._pending_new_view = None
        self.in_flight = False
        # Drop un-executed entries from older views; their transactions
        # are still in the mempool and will be re-proposed.
        self.log = {
            seq: entry for seq, entry in self.log.items()
            if entry.view >= new_view
        }
        self._view_change_votes = {
            view: votes
            for view, votes in self._view_change_votes.items()
            if view > new_view
        }
        self._arm_progress_timer()
        self._try_propose()

    # ------------------------------------------------------------------
    # State sync (catch-up after drops, crashes, partitions)
    # ------------------------------------------------------------------
    def _request_sync(self, peer: str) -> None:
        self.host.send_to(
            peer,
            SYNC_REQ,
            {"from_height": self.host.chain().height},
            _CONTROL_MSG_BYTES,
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
            if block.height == self.last_executed + 1:
                self.host.deliver_block(block)
                self.last_executed = block.height
                self.log.pop(block.height, None)
        self._arm_progress_timer()

    def confirmed_height(self) -> int:
        """PBFT blocks are final on commit (no confirmation depth)."""
        return self.host.chain().height

    def sync_hint(self) -> int:
        """Report the current view so recovering replicas rejoin it."""
        return self.view
