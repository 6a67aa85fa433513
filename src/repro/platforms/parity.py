"""Parity platform (v1.6.0 analogue).

Composition per the paper: Proof-of-Authority (Aura) with a 1-second
``stepDuration``, the entire state held in memory (Section 3.1.2 /
4.2.2), and — the paper's key finding — a **server-side transaction
signing stage** that caps the whole network at a constant processing
rate regardless of offered load and node count (Sections 4.1.1, 4.2.3:
"the bottleneck in Parity is due to the server's transaction signing,
not due to consensus or transaction execution").

Mechanics:

* every submission must pass a per-node intake throttle (~80 tx/s, the
  "maximum client request rate" of Figure 6's analysis);
* accepted submissions are forwarded to the *signer* (the node holding
  the unlocked authority account) whose single-threaded signing loop
  serves one transaction per ``signing_cost_s``;
* the signing queue is bounded — overflow is rejected back to the
  client immediately. That is why Parity's measured latency stays flat
  while its client-side queue grows: the latency of *accepted*
  transactions is bounded by queue-capacity x signing-cost plus two
  confirmation blocks.
"""

from __future__ import annotations

from collections import deque

from ..chain import Transaction
from ..config import ParityConfig, parity_config
from ..consensus.poa import ProofOfAuthority
from ..errors import StorageError
from ..registry import register_platform
from ..sim import Message, Network, RngRegistry, Scheduler
from ..storage.kv import MemKVStore
from .base import PlatformNode
from .triestate import TrieState

SIGN_REQ = "parity/sign-req"


class ParityState(TrieState):
    """Patricia trie whose nodes live entirely in process memory.

    ``memory_cap_bytes`` reproduces the paper's Figure 12 finding that
    Parity "holds all the state information in memory ... but fails to
    handle large data": exceeding the cap raises an out-of-memory
    StorageError, surfaced as the 'X' cells. The journaled overlay is
    process memory too, so uncommitted writes count against the cap at
    ``put`` time (key + value payload bytes); the trie nodes the
    commit-time flush materializes are charged by the backing
    :class:`MemKVStore` itself.
    """

    def __init__(self, memory_cap_bytes: int | None = None) -> None:
        self._store = MemKVStore(memory_cap_bytes=memory_cap_bytes)
        super().__init__(self._store)
        self._overlay_bytes = 0

    def put(self, key: bytes, value: bytes) -> None:
        # Net accounting: an overwrite of a journaled key replaces its
        # contribution (the overlay is last-write-wins — K rewrites of
        # a hot SmallBank key occupy one entry, not K).
        old = self._overlay.get(key)
        if old is not None:
            self._overlay_bytes -= len(key) + len(old)
        super().put(key, value)
        self._overlay_bytes += len(key) + len(value)
        cap = self._store.memory_cap_bytes
        if cap is not None:
            total = self._store.approx_bytes() + self._overlay_bytes
            if total > cap:
                raise StorageError(
                    f"out of memory: {total} bytes (committed state + "
                    f"journaled writes) exceeds cap {cap} "
                    "(Parity-style in-memory state)"
                )

    def delete(self, key: bytes) -> None:
        old = self._overlay.get(key)
        if old is not None:
            self._overlay_bytes -= len(key) + len(old)
        super().delete(key)

    def _flush(self, items, journal: bool = False):
        record = super()._flush(items, journal)
        self._overlay_bytes = 0
        return record

    def _install(self, items, record) -> None:
        # Same store puts, same order: the cap trips at the same put.
        super()._install(items, record)
        self._overlay_bytes = 0

    def memory_bytes(self) -> int:
        return self._store.approx_bytes() + self._overlay_bytes


@register_platform(
    "parity",
    default_config=parity_config,
    description="Parity v1.6.0: PoA with a single round-robin signer",
)
class ParityNode(PlatformNode):
    """Parity authority node with the signing-stage bottleneck."""

    config: ParityConfig

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        rng_registry: RngRegistry,
        config: ParityConfig,
        all_ids: list[str],
    ) -> None:
        super().__init__(node_id, scheduler, network, rng_registry, config, all_ids)
        #: The one node holding the unlocked authority account.
        self.signer_id = all_ids[0]
        # Signing stage (active only on the signer node).
        self._sign_queue: deque[dict] = deque()
        self._signing_busy = False
        self.signed_count = 0
        # Intake throttle (token bucket).
        self._tokens = 8.0
        self._tokens_updated = 0.0

    def _new_state(self) -> ParityState:
        return ParityState(self.config.memory_cap_bytes)

    def _new_protocol(self, all_ids: list[str]) -> ProofOfAuthority:
        return ProofOfAuthority(self, self.config.poa, authorities=all_ids)

    def crash(self) -> None:
        """The signing queue and its busy flag are process state."""
        super().crash()
        self._sign_queue.clear()
        self._signing_busy = False

    def recover(self, mode: str = "warm") -> None:
        """Restart resets the intake bucket to its boot credit — a
        recovered process must not inherit a huge refill window."""
        if self.crashed:
            self._tokens = 8.0
            self._tokens_updated = self.now
        super().recover(mode)

    # ------------------------------------------------------------------
    # Intake throttle
    # ------------------------------------------------------------------
    def _take_token(self) -> bool:
        rate = self.config.intake_rate_tx_s
        elapsed = self.now - self._tokens_updated
        self._tokens = min(16.0, self._tokens + elapsed * rate)
        self._tokens_updated = self.now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    # ------------------------------------------------------------------
    # Admission: throttle -> forward to the signer
    # ------------------------------------------------------------------
    def _on_send_tx(self, message: Message) -> None:
        request = message.payload
        tx: Transaction = request["tx"]
        if self._dup_reply(message, tx):
            return
        if not self._take_token():
            self._reply(message, {"accepted": False, "tx_id": tx.tx_id})
            return
        item = {"tx": tx, "client": message.sender, "req_id": request.get("req_id")}
        if self.node_id == self.signer_id:
            self._enqueue_signing(item)
        else:
            self.send(self.signer_id, SIGN_REQ, item, tx.size_bytes() + 64)

    def message_cost(self, message: Message) -> float:
        if message.kind == SIGN_REQ:
            return self.config.execution.tx_ingress_cost_s
        return super().message_cost(message)

    def handle_message(self, message: Message) -> None:
        if message.kind == SIGN_REQ and not message.corrupted:
            self._enqueue_signing(message.payload)
            return
        super().handle_message(message)

    # ------------------------------------------------------------------
    # The signing stage
    # ------------------------------------------------------------------
    def _enqueue_signing(self, item: dict) -> None:
        if len(self._sign_queue) >= self.config.signing_queue_capacity:
            self._reject_to_client(item)
            return
        self._sign_queue.append(item)
        if not self._signing_busy:
            self._sign_next()

    def _reject_to_client(self, item: dict) -> None:
        self.send(
            item["client"],
            "rpc/reply",
            {"accepted": False, "tx_id": item["tx"].tx_id, "req_id": item["req_id"]},
            128,
        )

    def _sign_next(self) -> None:
        if self.crashed or not self._sign_queue:
            self._signing_busy = False
            return
        self._signing_busy = True
        item = self._sign_queue.popleft()
        cost = self.config.signing_cost_s
        self.consume_cpu(cost)
        self.set_timer(cost, self._finish_signing, item)

    def _finish_signing(self, item: dict) -> None:
        tx: Transaction = item["tx"]
        self.signed_count += 1
        accepted = self._admit(tx)
        reply = {"accepted": accepted, "tx_id": tx.tx_id, "req_id": item["req_id"]}
        if not accepted and (self.has_receipt(tx.tx_id) or tx.tx_id in self.mempool):
            reply["dup"] = True
        self.send(item["client"], "rpc/reply", reply, 128)
        self._sign_next()

    # ------------------------------------------------------------------
    def _execute_block(self, block) -> None:
        try:
            super()._execute_block(block)
        except StorageError as exc:
            # In-memory state exhausted: the node dies (Figure 12's 'X').
            self.crash()
            raise
