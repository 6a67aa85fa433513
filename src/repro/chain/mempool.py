"""Pending-transaction pool.

FIFO with id-deduplication. Proposers draw batches bounded either by a
transaction count (Hyperledger's ``batchSize``) or by a gas budget
(Ethereum's ``gasLimit``), both of which the paper tunes to control
block size (Figure 15).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .transaction import Transaction


class Mempool:
    """Ordered pool of not-yet-committed transactions."""

    def __init__(self, capacity: int | None = None) -> None:
        #: Insertion-ordered: iteration is FIFO arrival order.
        self._pool: dict[str, Transaction] = {}
        self._arrivals: dict[str, float] = {}
        self.capacity = capacity
        self.rejected_full = 0
        #: Cluster-wide lifecycle tracer (attached by the platform node).
        #: Admission is stamped here rather than in ``_on_send_tx``
        #: because Parity's signing queue and every platform's gossip
        #: path admit transactions without going through the default
        #: ingress handler.
        self.tracer = None

    def add(self, tx: Transaction, now: float = 0.0) -> bool:
        """Queue ``tx``; returns False on duplicate or full pool."""
        if tx.tx_id in self._pool:
            return False
        if self.capacity is not None and len(self._pool) >= self.capacity:
            self.rejected_full += 1
            return False
        self._pool[tx.tx_id] = tx
        self._arrivals[tx.tx_id] = now
        if self.tracer is not None:
            self.tracer.record_admit(tx.tx_id, now)
        return True

    def add_many(self, txs: Iterable[Transaction], now: float = 0.0) -> int:
        return sum(self.add(tx, now) for tx in txs)

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

    def peek_batch(
        self,
        max_count: int,
        gas_budget: int | None = None,
        gas_estimate: Callable[[Transaction], int] | None = None,
    ) -> list[Transaction]:
        """First transactions respecting count and optional gas budget."""
        batch: list[Transaction] = []
        remaining_gas = gas_budget
        for tx in self._pool.values():
            if len(batch) >= max_count:
                break
            if remaining_gas is not None and gas_estimate is not None:
                cost = gas_estimate(tx)
                if cost > remaining_gas and batch:
                    break
                remaining_gas -= cost
            batch.append(tx)
        return batch

    def remove(self, tx_ids: Iterable[str]) -> int:
        """Drop committed transactions; returns how many were present."""
        removed = 0
        for tx_id in tx_ids:
            if self._pool.pop(tx_id, None) is not None:
                self._arrivals.pop(tx_id, None)
                removed += 1
        return removed

    def clear(self) -> None:
        self._pool.clear()
        self._arrivals.clear()
