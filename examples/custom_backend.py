#!/usr/bin/env python3
"""Integrating a new blockchain backend (the paper's Figure 4 story).

"Any private blockchain can be integrated to Blockbench via simple
APIs": implement IBlockchainConnector and the driver works unchanged.
This example wires up *InstantChain*, a toy centralized ledger that
commits every transaction immediately — useful as an idealized no-
consensus upper bound.

Every connector method returns a SimFuture, and client code is a
straight-line generator-coroutine: ``reply = yield
connector.send_transaction(tx)``. InstantChain resolves its futures
immediately (there is no network), which the coroutine trampoline
handles without growing the stack.

Run:  python examples/custom_backend.py
"""

import random

from repro.chain import Transaction
from repro.contracts import DictState, create_contract
from repro.core import IBlockchainConnector, format_table
from repro.sim import SimFuture, spawn
from repro.workloads import YCSBConfig, YCSBWorkload


def _resolved(payload: dict) -> SimFuture:
    """An already-answered RPC (InstantChain has no round trips)."""
    future = SimFuture()
    future.set_result(payload)
    return future


class InstantChain(IBlockchainConnector):
    """A no-consensus, single-node 'blockchain': the idealized bound."""

    def __init__(self) -> None:
        self.state = DictState()
        self.contracts = {}
        self.blocks: list[list[str]] = []  # one block per commit batch
        self._pending: list[str] = []

    def deploy_application(self, contract_name: str) -> None:
        self.contracts[contract_name] = create_contract(contract_name)

    def send_transaction(self, tx: Transaction) -> SimFuture:
        contract = self.contracts[tx.contract]
        contract.invoke(self.state, tx.function, tx.args)
        self._pending.append(tx.tx_id)
        if len(self._pending) >= 100:
            self.blocks.append(self._pending)
            self._pending = []
        return _resolved({"accepted": True, "tx_id": tx.tx_id})

    def get_latest_block(self, from_height: int) -> SimFuture:
        summaries = [
            {"height": h + 1, "tx_ids": txs}
            for h, txs in enumerate(self.blocks)
            if h + 1 > from_height
        ]
        return _resolved({"blocks": summaries, "tip": len(self.blocks)})

    def query(self, contract: str, function: str, args: tuple) -> SimFuture:
        result = self.contracts[contract].invoke(self.state, function, args)
        return _resolved({"output": result.output})


def main() -> None:
    chain = InstantChain()
    chain.deploy_application("kvstore")
    workload = YCSBWorkload(YCSBConfig(record_count=100))
    rng = random.Random(3)

    def bench_client():
        """A complete measurement client in eight straight lines."""
        executed = 0
        for _ in range(1000):
            tx = workload.next_transaction("client-0", rng, 0.0)
            reply = yield chain.send_transaction(tx)
            executed += reply["accepted"]
        update = yield chain.get_latest_block(0)
        sample = yield chain.query("kvstore", "read", ("user1",))
        return executed, update["blocks"], sample["output"]

    executed, confirmed, sample_read = spawn(bench_client()).result()
    print(
        format_table(
            ["backend", "txs executed", "blocks", "sample read"],
            [["InstantChain", executed, len(confirmed), repr(sample_read)[:24]]],
            title="Custom backend through IBlockchainConnector",
        )
    )
    print("\nThe same Driver/Workload stack runs against any backend that"
          "\nimplements deploy/send/get_latest_block/query (paper Fig. 4);"
          "\nclients await each call.")


if __name__ == "__main__":
    main()
