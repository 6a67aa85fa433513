"""H-Store analogue: a partitioned, in-memory, lock-free OLTP engine.

The paper's Appendix B baseline (Figure 14). H-Store's design: data is
hash-partitioned across sites; each partition executes transactions
serially on its own thread with *no* locking or latching, so a
single-partition transaction costs only its execution time
(microseconds). Multi-partition transactions need blocking two-phase
commit across the involved partitions — that coordination is exactly
why the paper measures Smallbank at 6.6x lower throughput than YCSB on
H-Store, while blockchains (fully replicated, no partitioning) see
almost no difference.

Data operations execute for real against per-partition dicts; time is
modeled: each partition accumulates busy-time, and throughput derives
from the busiest partition (partitions run in parallel).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import BenchmarkError

#: Single-partition execution cost per operation (seconds). Calibrated
#: so 8 partitions sustain ~140k YCSB tx/s (Figure 14's 142,702).
OP_COST_S = 5.2e-5
#: Extra coordinator + participant cost of a blocking 2PC round.
#: Together with the RTT this is calibrated to the paper's 6.6x
#: YCSB-to-Smallbank throughput ratio on H-Store (Appendix B).
TWO_PC_COST_S = 4.0e-5
#: Network round-trip between sites during 2PC.
TWO_PC_RTT_S = 1.5e-5


@dataclass
class TxnOp:
    """One read or write against one key."""

    kind: str  # "read" | "write"
    key: str
    value: bytes | None = None


@dataclass
class HStoreTxn:
    """A transaction: a list of operations executed atomically."""

    ops: list[TxnOp]
    name: str = "txn"


@dataclass
class TxnResult:
    committed: bool
    reads: dict[str, bytes | None] = field(default_factory=dict)
    partitions: tuple[int, ...] = ()
    latency_s: float = 0.0


class HStoreEngine:
    """Partitioned executor with modeled time."""

    def __init__(self, n_partitions: int = 8) -> None:
        if n_partitions < 1:
            raise BenchmarkError("H-Store needs at least one partition")
        self.n_partitions = n_partitions
        self._partitions: list[dict[str, bytes]] = [
            {} for _ in range(n_partitions)
        ]
        self._busy_s = [0.0] * n_partitions
        self.committed = 0
        self.aborted = 0
        self.single_partition_txns = 0
        self.multi_partition_txns = 0
        self._latencies: list[float] = []

    # ------------------------------------------------------------------
    def partition_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode()).digest()
        return int.from_bytes(digest[:4], "big") % self.n_partitions

    def load(self, key: str, value: bytes) -> None:
        """Bulk load outside the measured window."""
        self._partitions[self.partition_of(key)][key] = value

    def get(self, key: str) -> bytes | None:
        """Unmeasured point read (for verification in tests)."""
        return self._partitions[self.partition_of(key)].get(key)

    # ------------------------------------------------------------------
    def execute(self, txn: HStoreTxn) -> TxnResult:
        """Run ``txn`` to commit; returns reads and modeled latency."""
        partitions = tuple(sorted({self.partition_of(op.key) for op in txn.ops}))
        if not partitions:
            raise BenchmarkError("empty transaction")
        # Real data work.
        reads: dict[str, bytes | None] = {}
        for op in txn.ops:
            store = self._partitions[self.partition_of(op.key)]
            if op.kind == "read":
                reads[op.key] = store.get(op.key)
            elif op.kind == "write":
                if op.value is None:
                    store.pop(op.key, None)
                else:
                    store[op.key] = op.value
            else:
                raise BenchmarkError(f"unknown op kind {op.kind!r}")
        # Modeled time.
        work_s = OP_COST_S * len(txn.ops)
        if len(partitions) == 1:
            self.single_partition_txns += 1
            latency = work_s
            self._busy_s[partitions[0]] += work_s
        else:
            self.multi_partition_txns += 1
            # Blocking 2PC: every involved partition is held for the
            # whole transaction plus the coordination round trips.
            latency = work_s + TWO_PC_COST_S + 2 * TWO_PC_RTT_S
            for partition in partitions:
                self._busy_s[partition] += latency
        self.committed += 1
        self._latencies.append(latency)
        return TxnResult(
            committed=True, reads=reads, partitions=partitions, latency_s=latency
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def elapsed_s(self) -> float:
        """Modeled wall time: partitions run in parallel."""
        return max(self._busy_s) if any(self._busy_s) else 0.0

    def throughput_tx_s(self) -> float:
        elapsed = self.elapsed_s()
        return self.committed / elapsed if elapsed > 0 else 0.0

    def mean_latency_s(self) -> float:
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)
