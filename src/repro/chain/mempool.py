"""Pending-transaction pool.

FIFO with id-deduplication. Proposers draw batches bounded by a
transaction count: Hyperledger's ``batchSize``, or Ethereum's
``gasLimit`` converted to a count by the platform node; the paper tunes
both to control block size (Figure 15).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .transaction import Transaction


class Mempool:
    """Ordered pool of not-yet-committed transactions."""

    def __init__(self) -> None:
        #: Insertion-ordered: iteration is FIFO arrival order.
        self._pool: dict[str, Transaction] = {}
        self._arrivals: dict[str, float] = {}
        #: Cluster-wide lifecycle tracer (attached by the platform node).
        #: Admission is stamped here rather than in the node's
        #: ``_admit`` because the gossip path admits transactions
        #: without it.
        self.tracer = None

    def add(self, tx: Transaction, now: float = 0.0) -> bool:
        """Queue ``tx``; returns False on a duplicate."""
        if tx.tx_id in self._pool:
            return False
        self._pool[tx.tx_id] = tx
        self._arrivals[tx.tx_id] = now
        if self.tracer is not None:
            self.tracer.record_admit(tx.tx_id, now)
        return True

    def oldest_pending_age(self, now: float) -> float:
        """Age of the longest-waiting transaction (0 when empty).

        PBFT implementations (Fabric v0.6's included) watchdog each
        request: if the oldest request sits unordered past the request
        timeout, replicas suspect the primary and trigger a view
        change. Under sustained overload this is what melts the
        protocol down (Section 4.1.2).
        """
        if not self._pool:
            return 0.0
        first_tx_id = next(iter(self._pool))
        return now - self._arrivals.get(first_tx_id, now)

    def __len__(self) -> int:
        return len(self._pool)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pool

    def peek_batch(self, max_count: int) -> list[Transaction]:
        """The first ``max_count`` transactions, in arrival order."""
        return list(islice(self._pool.values(), max_count))

    def remove(self, tx_ids: Iterable[str]) -> int:
        """Drop committed transactions; returns how many were present."""
        removed = 0
        for tx_id in tx_ids:
            if self._pool.pop(tx_id, None) is not None:
                self._arrivals.pop(tx_id, None)
                removed += 1
        return removed
