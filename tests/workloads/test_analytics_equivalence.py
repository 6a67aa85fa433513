"""Analytics Q1/Q2: the coroutine clients vs the v1 callback chains.

The reference implementations below are the pre-redesign callback
clients, verbatim; their ``on_reply`` closures are attached to the
connector's futures with ``add_done_callback``, which fires them inline
at resolution. The coroutine rewrites must return the same
answer, the same RPC count, and the same latency — the paper's Figure
13a/13b numbers may not move because the client API changed.
"""

import pytest

from repro.core.connector import RPCClient, SimChainConnector
from repro.contracts.base import decode_int
from repro.errors import BenchmarkError
from repro.platforms import build_cluster
from repro.workloads import preload_history, run_q1, run_q2
from repro.workloads.analytics import QueryResult

N_BLOCKS = 120
SCAN_FROM = 20


# ---------------------------------------------------------------------------
# v1 reference: the callback-chain client (pre-redesign)
# ---------------------------------------------------------------------------
def _then(future, on_reply):
    future.add_done_callback(lambda fut: on_reply(fut.result()))


class _CallbackQuery:
    def __init__(self, cluster, client_name):
        self.cluster = cluster
        self.scheduler = cluster.scheduler
        self.client = RPCClient(client_name, cluster.scheduler, cluster.network)
        self.connector = SimChainConnector(
            cluster, self.client, cluster.node_ids()[0]
        )
        self.rpc_count = 0
        self.finished_at = None
        self.answer = 0

    def run(self):
        started_at = self.scheduler.now
        self._next()
        while self.finished_at is None:
            if not self.scheduler.step():
                raise BenchmarkError("query never completed")
        return QueryResult(
            latency_s=self.finished_at - started_at,
            rpc_count=self.rpc_count,
            answer=self.answer,
        )

    def _finish(self, answer):
        self.answer = answer
        self.finished_at = self.scheduler.now


class _CallbackQ1(_CallbackQuery):
    def __init__(self, cluster, start_block, end_block):
        super().__init__(cluster, "q1-ref")
        self.heights = list(range(start_block + 1, end_block + 1))
        self.total = 0

    def _next(self):
        if not self.heights:
            self._finish(self.total)
            return
        height = self.heights.pop(0)
        self.rpc_count += 1

        def on_reply(reply):
            self.total += sum(tx["value"] for tx in reply.get("txs", []))
            self._next()

        _then(self.connector.get_block_transactions(height), on_reply)


class _CallbackQ2Ethereum(_CallbackQuery):
    def __init__(self, cluster, account, start_block, end_block):
        super().__init__(cluster, "q2-ref")
        self.account = account
        self.heights = list(range(start_block, end_block + 1))
        self.previous = None
        self.largest = 0

    def _next(self):
        if not self.heights:
            self._finish(self.largest)
            return
        height = self.heights.pop(0)
        self.rpc_count += 1

        def on_reply(reply):
            balance = decode_int(reply.get("value"))
            if self.previous is not None:
                self.largest = max(self.largest, abs(balance - self.previous))
            self.previous = balance
            self._next()

        _then(
            self.connector.get_balance(
                "smallbank", b"chk:" + self.account.encode(), height
            ),
            on_reply,
        )


class _CallbackQ2Hyperledger(_CallbackQuery):
    def __init__(self, cluster, account, start_block, end_block):
        super().__init__(cluster, "q2-ref")
        self.account = account
        self.start_block = start_block
        self.end_block = end_block

    def _next(self):
        self.rpc_count += 1

        def on_reply(reply):
            versions = reply.get("output") or []
            largest = 0
            previous = None
            for record in reversed(versions):
                if previous is not None:
                    largest = max(largest, abs(record["balance"] - previous))
                previous = record["balance"]
            self._finish(largest)

        _then(
            self.connector.query(
                "versionkv",
                "account_block_range",
                (self.account, self.start_block, self.end_block + 1),
            ),
            on_reply,
        )


# ---------------------------------------------------------------------------
# Fixtures: one preloaded cluster per platform per test
# ---------------------------------------------------------------------------
def _make(platform):
    cluster = build_cluster(platform, 2, seed=11)
    preload = preload_history(
        cluster, n_blocks=N_BLOCKS, txs_per_block=3, n_accounts=60
    )
    return cluster, preload


# ---------------------------------------------------------------------------
# Equivalence: coroutine client == callback client, to the bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("platform", ["ethereum", "hyperledger"])
def test_q1_matches_callback_reference(platform):
    cluster, _ = _make(platform)
    reference = _CallbackQ1(cluster, SCAN_FROM, N_BLOCKS).run()
    cluster.close()

    cluster, _ = _make(platform)
    coroutine = run_q1(cluster, SCAN_FROM, N_BLOCKS)
    cluster.close()

    assert coroutine == reference  # answer, rpc_count, AND latency


@pytest.mark.parametrize("platform", ["ethereum", "hyperledger"])
def test_q2_matches_callback_reference(platform):
    cluster, preload = _make(platform)
    account = preload.account_names[0]
    if platform == "hyperledger":
        reference = _CallbackQ2Hyperledger(
            cluster, account, SCAN_FROM, N_BLOCKS
        ).run()
    else:
        reference = _CallbackQ2Ethereum(
            cluster, account, SCAN_FROM, N_BLOCKS
        ).run()
    cluster.close()

    cluster, preload = _make(platform)
    coroutine = run_q2(cluster, account, SCAN_FROM, N_BLOCKS)
    cluster.close()

    assert coroutine == reference


# ---------------------------------------------------------------------------
# Answers still match ground truth, and the window only pipelines
# ---------------------------------------------------------------------------
def test_q1_q2_against_ground_truth():
    cluster, preload = _make("ethereum")
    account = preload.account_names[0]
    q1 = run_q1(cluster, SCAN_FROM, N_BLOCKS)
    q2 = run_q2(cluster, account, SCAN_FROM, N_BLOCKS)
    assert q1.answer == preload.q1_reference(SCAN_FROM, N_BLOCKS)
    assert q2.answer == preload.q2_reference_ethereum(
        account, SCAN_FROM, N_BLOCKS
    )
    cluster.close()


def test_window_pipelines_without_changing_answer_or_rpc_count():
    cluster, preload = _make("ethereum")
    account = preload.account_names[0]
    sequential = run_q2(cluster, account, SCAN_FROM, N_BLOCKS, tag="-w1")
    windowed = run_q2(cluster, account, SCAN_FROM, N_BLOCKS, tag="-w8", window=8)
    cluster.close()
    assert windowed.answer == sequential.answer
    assert windowed.rpc_count == sequential.rpc_count
    # Overlapping round trips can only make the scan faster.
    assert windowed.latency_s < sequential.latency_s


def test_window_must_be_positive():
    cluster, _ = _make("ethereum")
    with pytest.raises(BenchmarkError):
        run_q1(cluster, SCAN_FROM, N_BLOCKS, window=0)
    cluster.close()
