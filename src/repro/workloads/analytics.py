"""Analytics workload: Q1 and Q2 over historical chain data (§3.4.2).

Q1: total transaction value committed between block i and block j.
Q2: largest transaction value involving a given account in (i, j].

Reproduces the paper's client architecture faithfully: the client
fetches data over the simulated network, so "the main bottleneck for
both Q1 and Q2 is the number of network (RPC) requests sent by the
client" (Section 4.2.2). On Ethereum/Parity, Q2 issues one
``getBalance(account, block)`` per block; on Hyperledger it issues a
single VersionKVStore chaincode query (Figure 20), which is the 10x
difference of Figure 13b.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from ..chain import Block, Transaction
from ..contracts.base import decode_int
from ..crypto.hashing import EMPTY_HASH
from ..errors import BenchmarkError
from ..sim import SimCoroutine, SimFuture, spawn
from ..core.connector import RPCClient, SimChainConnector


@dataclass
class AnalyticsPreload:
    """Description of the preloaded history, with ground truth.

    ``transfers`` records every (height, src, dst, amount) installed,
    so tests can compute reference answers for Q1/Q2 exactly.
    """

    n_blocks: int
    txs_per_block: int
    n_accounts: int
    account_names: list[str]
    transfers: list[tuple[int, str, str, int]]

    def q1_reference(self, start_block: int, end_block: int) -> int:
        """Ground truth for Q1: total value in blocks (start, end]."""
        return sum(
            amount
            for height, _src, _dst, amount in self.transfers
            if start_block < height <= end_block
        )

    def q2_reference_hyperledger(
        self, account: str, start_block: int, end_block: int
    ) -> int:
        """Ground truth for Q2 via per-version deltas (VersionKVStore)."""
        best = 0
        for height, src, dst, amount in self.transfers:
            if start_block <= height <= end_block and account in (src, dst):
                best = max(best, amount)
        return best

    def q2_reference_ethereum(
        self, account: str, start_block: int, end_block: int
    ) -> int:
        """Ground truth for Q2 via per-block balance deltas (JSON-RPC)."""
        per_block: dict[int, int] = {}
        for height, src, dst, amount in self.transfers:
            if src == account:
                per_block[height] = per_block.get(height, 0) - amount
            if dst == account:
                per_block[height] = per_block.get(height, 0) + amount
        best = 0
        for height in range(start_block + 1, end_block + 1):
            best = max(best, abs(per_block.get(height, 0)))
        return best


def preload_history(
    cluster,
    n_blocks: int = 1000,
    txs_per_block: int = 3,
    n_accounts: int = 1000,
    seed: int = 7,
) -> AnalyticsPreload:
    """Install a synthetic transfer history on every node.

    Blocks are appended and executed directly (preloading is not the
    measured part of the experiment). Ethereum/Parity record transfers
    through the Smallbank contract (native account balances queryable
    at historical blocks via their state snapshots); Hyperledger
    records them through the VersionKVStore chaincode, since it "does
    not have APIs to query historical states".
    """
    rng = random.Random(seed)
    accounts = [f"acct{i}" for i in range(n_accounts)]
    use_versionkv = cluster.platform == "hyperledger"
    contract = "versionkv" if use_versionkv else "smallbank"
    for node in cluster.nodes:
        node.deploy(contract)
    if not use_versionkv:
        from ..contracts.base import encode_int
        from ..core.workload import preload_state

        def records():
            for account in accounts:
                yield b"chk:" + account.encode(), encode_int(10_000_000)
                yield b"sav:" + account.encode(), encode_int(0)

        preload_state(cluster, "smallbank", records)

    transfers: list[list[Transaction]] = []
    transfer_log: list[tuple[int, str, str, int]] = []
    for height in range(1, n_blocks + 1):
        txs = []
        for t in range(txs_per_block):
            src = rng.choice(accounts)
            dst = rng.choice(accounts)
            while dst == src:
                dst = rng.choice(accounts)
            amount = rng.randrange(1, 1000)
            transfer_log.append((height, src, dst, amount))
            if use_versionkv:
                tx = Transaction.create(
                    "preloader", "versionkv", "send_value",
                    (src, dst, amount), value=amount,
                    nonce=height * 1_000 + t,
                )
            else:
                tx = Transaction.create(
                    "preloader", "smallbank", "send_payment",
                    (src, dst, amount), value=amount,
                    nonce=height * 1_000 + t,
                )
            txs.append(tx)
        transfers.append(txs)

    for node in cluster.nodes:
        parent = node.chain().tip
        for height, txs in enumerate(transfers, start=1):
            block = Block.build(
                height=height,
                parent_hash=parent.hash,
                transactions=txs,
                state_root=EMPTY_HASH,
                proposer="preloader",
                timestamp=float(height),
            )
            node.chain().add_block(block)
            node._execute_block(block)  # noqa: SLF001 - preload fast path
            node.executed_height = height
            parent = block
    return AnalyticsPreload(
        n_blocks=n_blocks,
        txs_per_block=txs_per_block,
        n_accounts=n_accounts,
        account_names=accounts,
        transfers=transfer_log,
    )


@dataclass
class QueryResult:
    """Outcome of one analytics query run."""

    latency_s: float
    rpc_count: int
    answer: int


class AnalyticsQuery:
    """A straight-line coroutine client driving one analytics query.

    Subclasses implement :meth:`_query` as a generator-coroutine over
    the awaitable connector API and return the answer. ``window`` is
    the client-side pipelining depth: how many RPCs may be in flight at
    once. The default of 1 reproduces the paper's sequential client
    ("one RPC at a time"); larger windows overlap round trips without
    changing the answer or the RPC count.
    """

    def __init__(self, cluster, client_name: str, window: int = 1) -> None:
        if window < 1:
            raise BenchmarkError(f"window must be >= 1, got {window}")
        self.cluster = cluster
        self.scheduler = cluster.scheduler
        self.client = RPCClient(client_name, cluster.scheduler, cluster.network)
        server = cluster.node_ids()[0]
        self.connector = SimChainConnector(cluster, self.client, server)
        self.window = window
        self.rpc_count = 0

    def run(self) -> QueryResult:
        """Drive the query to completion; returns latency/RPC count."""
        started_at = self.scheduler.now
        future = spawn(self._query())
        # Drive the simulation until the query completes.
        while not future.done:
            if not self.scheduler.step():
                raise BenchmarkError("query never completed (no events left)")
        return QueryResult(
            latency_s=self.scheduler.now - started_at,
            rpc_count=self.rpc_count,
            answer=future.result(),
        )

    def _query(self) -> SimCoroutine:  # pragma: no cover - overridden
        raise NotImplementedError

    def _issue(self, future: SimFuture) -> SimFuture:
        """Count one RPC as it goes on the wire."""
        self.rpc_count += 1
        return future

    def _windowed(self, request, items, fold) -> SimCoroutine:
        """Pipeline ``request(item)`` RPCs with a bounded window.

        Issues at most ``self.window`` requests at a time (pulling the
        next one as each reply lands) and feeds replies to ``fold`` in
        item order — so order-sensitive folds like Q2's balance deltas
        see the same sequence a one-at-a-time client would.
        """
        pending: deque[SimFuture] = deque()
        issued = 0
        while issued < len(items) or pending:
            while issued < len(items) and len(pending) < self.window:
                pending.append(self._issue(request(items[issued])))
                issued += 1
            fold((yield pending.popleft()))


class Q1TotalValue(AnalyticsQuery):
    """Q1: sum of transaction values in blocks (start, end]."""

    def __init__(
        self, cluster, start_block: int, end_block: int, tag: str = "",
        window: int = 1,
    ) -> None:
        super().__init__(cluster, f"q1-client{tag}", window)
        self.heights = list(range(start_block + 1, end_block + 1))

    def _query(self) -> SimCoroutine:
        total = 0

        def fold(reply: dict) -> None:
            nonlocal total
            total += sum(tx["value"] for tx in reply.get("txs", []))

        yield self._windowed(
            self.connector.get_block_transactions, self.heights, fold
        )
        return total


class Q2LargestTxEthereum(AnalyticsQuery):
    """Q2 on Ethereum/Parity: one getBalance RPC per block.

    The largest balance delta of the account across consecutive blocks
    bounds the largest transaction involving it, which is how the
    JSON-RPC-only client must compute it (Section 4.2.2). Under the
    callback API this was a pyramid of nested ``on_reply`` closures;
    awaitables collapse it to a ``for`` loop over heights with a
    bounded in-flight window.
    """

    def __init__(
        self, cluster, account: str, start_block: int, end_block: int, tag: str = "",
        window: int = 1,
    ) -> None:
        super().__init__(cluster, f"q2-client{tag}", window)
        self.account = account
        self.heights = list(range(start_block, end_block + 1))

    def _get_balance(self, height: int) -> SimFuture:
        return self.connector.get_balance(
            "smallbank", b"chk:" + self.account.encode(), height
        )

    def _query(self) -> SimCoroutine:
        previous: int | None = None
        largest = 0

        def fold(reply: dict) -> None:
            nonlocal previous, largest
            balance = decode_int(reply.get("value"))
            if previous is not None:
                largest = max(largest, abs(balance - previous))
            previous = balance

        yield self._windowed(self._get_balance, self.heights, fold)
        return largest


class Q2LargestTxHyperledger(AnalyticsQuery):
    """Q2 on Hyperledger: a single VersionKVStore chaincode query."""

    def __init__(
        self, cluster, account: str, start_block: int, end_block: int, tag: str = "",
        window: int = 1,
    ) -> None:
        super().__init__(cluster, f"q2-client{tag}", window)
        self.account = account
        self.start_block = start_block
        self.end_block = end_block

    def _query(self) -> SimCoroutine:
        reply = yield self._issue(
            self.connector.query(
                "versionkv",
                "account_block_range",
                (self.account, self.start_block, self.end_block + 1),
            )
        )
        versions = reply.get("output") or []
        largest = 0
        previous: int | None = None
        for record in reversed(versions):  # oldest first
            if previous is not None:
                largest = max(largest, abs(record["balance"] - previous))
            previous = record["balance"]
        return largest


def run_q1(
    cluster, start_block: int, end_block: int, tag: str = "", window: int = 1
) -> QueryResult:
    """Q1: total transaction value in blocks (start, end]."""
    return Q1TotalValue(cluster, start_block, end_block, tag, window).run()


def run_q2(
    cluster, account: str, start_block: int, end_block: int, tag: str = "",
    window: int = 1,
) -> QueryResult:
    """Q2: largest transfer involving ``account`` in (start, end] —
    per-block RPCs on Ethereum/Parity, one chaincode query on
    Hyperledger."""
    if cluster.platform == "hyperledger":
        return Q2LargestTxHyperledger(
            cluster, account, start_block, end_block, tag, window
        ).run()
    return Q2LargestTxEthereum(
        cluster, account, start_block, end_block, tag, window
    ).run()
