#!/usr/bin/env python3
"""A scenario-diverse custom client on the awaitable connector API.

The driver's built-in clients are open-loop (fixed offered rate). Many
interesting scenarios aren't: a closed-loop client that interleaves
writes with reads-of-its-own-writes, backs off when rejected, and
measures the read-your-write staleness window. Under the callback API
this is a pyramid of nested ``on_reply`` closures; as a coroutine it
is a ``for`` loop.

The client below, per iteration:

1. submits a Smallbank payment and awaits acceptance,
2. polls getLatestBlock until the payment is confirmed,
3. immediately queries the destination balance,

and records how long confirmation took. Everything runs on the
deterministic simulated network — same seed, same numbers.

Run:  python examples/awaitable_client.py
"""

from repro.chain import Transaction
from repro.contracts.base import encode_int
from repro.core import format_table
from repro.core.connector import RPCClient, SimChainConnector
from repro.core.workload import preload_state
from repro.platforms import build_cluster

N_PAYMENTS = 12
ACCOUNTS = ("alice", "bob")


def closed_loop_client(cluster, connector, results):
    """Write -> await confirmation -> read back, N_PAYMENTS times."""
    scheduler = cluster.scheduler
    confirmed_height = 0
    for i in range(N_PAYMENTS):
        tx = Transaction.create(
            "probe", "smallbank", "send_payment",
            ("alice", "bob", 100 + i), value=100 + i, nonce=i,
        )
        submitted_at = scheduler.now
        reply = yield connector.send_transaction(tx)
        while not reply.get("accepted"):
            yield scheduler.sleep(0.25)  # backoff, like a 429
            reply = yield connector.send_transaction(tx)
        # Closed loop: poll until *this* transaction is in a block.
        while True:
            update = yield connector.get_latest_block(confirmed_height)
            found = False
            for block in update.get("blocks", []):
                confirmed_height = max(confirmed_height, block["height"])
                found = found or tx.tx_id in block["tx_ids"]
            if found:
                break
            yield scheduler.sleep(0.2)
        read = yield connector.query("smallbank", "balance", ("bob",))
        results.append((i, scheduler.now - submitted_at, read.get("output")))


def main() -> None:
    cluster = build_cluster("hyperledger", 4, seed=21)
    for node in cluster.nodes:
        node.deploy("smallbank")
    preload_state(
        cluster, "smallbank",
        lambda: [(b"chk:" + name.encode(), encode_int(10_000)) for name in ACCOUNTS]
        + [(b"sav:" + name.encode(), encode_int(0)) for name in ACCOUNTS],
    )
    rpc = RPCClient("probe", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, rpc, cluster.node_ids()[0])

    results: list[tuple[int, float, int]] = []
    future = cluster.scheduler.spawn(
        closed_loop_client(cluster, connector, results)
    )
    cluster.run_until(120.0)
    assert future.done, "client did not finish inside the window"

    rows = [
        [i, f"{latency:.2f}", balance] for i, latency, balance in results[-6:]
    ]
    print(
        format_table(
            ["payment #", "confirm latency (s)", "bob's balance after"],
            rows,
            title="Closed-loop read-your-writes client (last 6 payments)",
        )
    )
    print("\nOne coroutine, three awaited RPC kinds, zero nested callbacks.")


if __name__ == "__main__":
    main()
