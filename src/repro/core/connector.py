"""Blockchain connector interface (the paper's IBlockchainConnector).

"The interface contains operations for deploying application, invoking
it by sending a transaction, and for querying the blockchain's states"
(Section 3.2). The simulation connector speaks the platforms' RPC
message protocol from a client-side SimNode; a new backend integrates
by implementing this interface, exactly as in Figure 4.

Every RPC-shaped method returns a :class:`~repro.sim.SimFuture`, so
measurement clients are straight-line generator-coroutines over the
simulated scheduler::

    def client(connector):
        reply = yield connector.send_transaction(tx)
        if not reply["accepted"]:
            return None
        update = yield connector.get_latest_block(0)
        return update["blocks"]

    spawn(client(connector))

A future resolves inline, in the scheduler event that delivered the
reply, so awaiting it (or ``future.add_done_callback(fn)``, which is
what the benchmark driver does) adds no event of its own.
"""

from __future__ import annotations

import heapq
from collections import deque
from abc import ABC, abstractmethod
from typing import Callable, TYPE_CHECKING

from ..chain import Transaction
from ..errors import ConnectorError
from ..sim import Message, SimFuture, SimNode

if TYPE_CHECKING:  # pragma: no cover
    from ..platforms.cluster import Cluster

class IBlockchainConnector(ABC):
    """Backend-facing operations BLOCKBENCH needs (awaitable)."""

    @abstractmethod
    def deploy_application(self, contract_name: str) -> None:
        """Install a smart contract on the backend."""

    @abstractmethod
    def send_transaction(self, tx: Transaction) -> SimFuture:
        """Submit asynchronously; resolves to ``{accepted, tx_id}``."""

    @abstractmethod
    def get_latest_block(self, from_height: int) -> SimFuture:
        """Confirmed blocks in (from_height, tip] — the polling call."""

    @abstractmethod
    def query(self, contract: str, function: str, args: tuple) -> SimFuture:
        """Read-only contract query (no consensus round)."""

    def subscribe_new_blocks(self, from_height: int) -> "BlockSubscription":
        """Push-based alternative to :meth:`get_latest_block`.

        Returns a :class:`BlockSubscription` whose ``next_block()``
        futures yield one block summary each. Only backends with a
        publish/subscribe interface (ErisDB, Section 3.2) implement
        this; the default refuses.
        """
        raise ConnectorError(
            f"{type(self).__name__} backend does not support block subscriptions"
        )


class BlockSubscription:
    """Awaitable handle for a push-based block feed.

    Blocks that arrive while the consumer is not awaiting are buffered
    in arrival order, so a coroutine doing ``block = yield
    sub.next_block()`` in a loop sees every event exactly once; a
    consumer that is awaiting is resumed inline at arrival.
    """

    def __init__(self, client: "RPCClient") -> None:
        self.client = client
        self.sub_id: int | None = None  # set by the connector
        self.active = True
        self._buffer: deque[dict] = deque()
        self._waiter: SimFuture | None = None

    def _deliver(self, event: dict) -> None:
        """Hand one ``rpc/event`` payload to the waiter, else buffer it."""
        block = event["block"]
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.set_result(block)
        else:
            self._buffer.append(block)

    def next_block(self) -> SimFuture:
        """A future for the next block summary (FIFO over the feed)."""
        future = SimFuture()
        if self._buffer:
            future.set_result(self._buffer.popleft())
            return future
        if not self.active:
            raise ConnectorError("subscription is cancelled")
        if self._waiter is not None:
            raise ConnectorError("a next_block() future is already pending")
        self._waiter = future
        return future

    def cancel(self) -> None:
        """Tear the subscription down on both ends (idempotent).

        A coroutine blocked on :meth:`next_block` is woken with a
        :class:`ConnectorError` — its future would otherwise stay
        pending forever, hanging the consumer silently.
        """
        if not self.active:
            return
        self.active = False
        if self.sub_id is not None:
            self.client.unsubscribe(self.sub_id)
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.set_exception(ConnectorError("subscription cancelled"))


class RPCClient(SimNode):
    """Client-side endpoint: correlates requests with async replies.

    This is the process the paper's WorkloadClient runs in; it lives on
    the simulated network so every interaction pays real round trips —
    the effect that decides the analytics Q2 result (one RPC per block
    vs one RPC total, Figure 13b).

    Timeouts cost no event per request. Each request sent with a
    timeout reserves the scheduler sequence number its timer would have
    taken and queues ``(deadline, seq, req_id)``; one watchdog per
    client is scheduled into the earliest such slot, drops the answered
    heads when it fires, expires the head whose slot it is, and re-arms
    at the next unanswered deadline. An expiry thus dispatches at the
    exact ``(time, seq)`` of the timer it replaces, and a reply does no
    scheduler work at all.
    """

    #: Compact the deadline heap once it holds at least this many
    #: entries and answered ones are the majority.
    COMPACT_FLOOR = 64

    def __init__(self, node_id, scheduler, network) -> None:
        super().__init__(node_id, scheduler, network)
        self._next_req = 0
        self._callbacks: dict[int, Callable[[dict], None]] = {}
        # Heap of (deadline, seq, req_id) per request sent with a
        # timeout. Answered entries leave lazily: when the watchdog
        # finds them at the head, or when they fill half the heap.
        self._deadlines: list[tuple[float, int, int]] = []
        # (deadline, seq) slots the watchdog is scheduled in, as a heap:
        # its head is the next to fire. Never two in the same slot.
        self._watchdogs: list[tuple[float, int]] = []
        # Persistent callbacks for push-based subscriptions; unlike
        # request callbacks these survive across events. The server a
        # subscription went to is kept so unsubscribe() can tear down
        # the server side too.
        self._subscriptions: dict[int, Callable[[dict], None]] = {}
        self._subscription_servers: dict[int, str] = {}

    def request(
        self,
        server: str,
        kind: str,
        payload: dict,
        on_reply: Callable[[dict], None],
        size_bytes: int = 192,
        timeout_s: float | None = None,
    ) -> int:
        """Send one RPC and register ``on_reply`` for its answer."""
        req_id = self._next_req
        self._next_req += 1
        self._callbacks[req_id] = on_reply
        payload = dict(payload)
        payload["req_id"] = req_id
        self.send(server, kind, payload, size_bytes)
        if timeout_s is not None:
            self._add_deadline(self.scheduler.now + timeout_s, req_id)
        return req_id

    def call(
        self,
        server: str,
        kind: str,
        payload: dict,
        size_bytes: int = 192,
        timeout_s: float | None = None,
    ) -> SimFuture:
        """Awaitable :meth:`request`: resolves with the reply payload.

        A request dropped at a saturated server resolves (not raises)
        with ``{"accepted": False, "timeout": True}`` when the timeout
        fires.
        """
        future = SimFuture()
        self.request(
            server, kind, payload, future.set_result,
            size_bytes=size_bytes, timeout_s=timeout_s,
        )
        return future

    def _add_deadline(self, deadline: float, req_id: int) -> None:
        """Queue ``req_id``'s deadline under the sequence number its
        timer would have taken; arm the watchdog if it is the earliest."""
        slot = (deadline, self.scheduler.reserve())
        deadlines = self._deadlines
        heapq.heappush(deadlines, (*slot, req_id))
        if not self._watchdogs or slot < self._watchdogs[0]:
            self._arm_watchdog(slot)
        callbacks = self._callbacks
        if len(deadlines) >= self.COMPACT_FLOOR and len(deadlines) > 2 * len(callbacks):
            # One slow request at the head keeps every answered one
            # behind it; purge them in place (_on_deadline may hold an
            # alias), as the scheduler does its dead entries.
            deadlines[:] = [entry for entry in deadlines if entry[2] in callbacks]
            heapq.heapify(deadlines)

    def _arm_watchdog(self, slot: tuple[float, int]) -> None:
        heapq.heappush(self._watchdogs, slot)
        self.scheduler.schedule_reserved(*slot, self._on_deadline)

    def _drop_answered(self) -> None:
        deadlines = self._deadlines
        while deadlines and deadlines[0][2] not in self._callbacks:
            heapq.heappop(deadlines)

    def _on_deadline(self) -> None:
        """Watchdog: fire a timeout reply if the request owning this
        slot was never answered (e.g. it was dropped at a full inbox),
        then re-arm at the earliest unanswered deadline."""
        slot = heapq.heappop(self._watchdogs)
        deadlines = self._deadlines
        self._drop_answered()
        if deadlines and deadlines[0][:2] == slot:
            req_id = heapq.heappop(deadlines)[2]
            if not self.crashed:
                callback = self._callbacks.pop(req_id)
                callback({"accepted": False, "timeout": True, "req_id": req_id})
            self._drop_answered()
        if deadlines:
            head = deadlines[0][:2]
            if not self._watchdogs or head < self._watchdogs[0]:
                self._arm_watchdog(head)

    def crash(self) -> None:
        """Pending deadlines die with the process, like node timers."""
        super().crash()
        self._deadlines.clear()

    def subscribe(
        self,
        server: str,
        kind: str,
        payload: dict,
        on_event: Callable[[dict], None],
        size_bytes: int = 128,
    ) -> int:
        """Open a push subscription; ``on_event`` fires per event."""
        sub_id = self._next_req
        self._next_req += 1
        self._subscriptions[sub_id] = on_event
        self._subscription_servers[sub_id] = server
        payload = dict(payload)
        payload["req_id"] = sub_id
        self.send(server, kind, payload, size_bytes)
        return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        """Tear down a push subscription registered with :meth:`subscribe`.

        Drops the local callback *and* tells the server to stop
        publishing: without the ``rpc/unsubscribe`` message the server
        would keep pushing ``rpc/event`` traffic at a dead endpoint
        forever.
        """
        self._subscriptions.pop(sub_id, None)
        server = self._subscription_servers.pop(sub_id, None)
        if server is not None:
            self.send(server, "rpc/unsubscribe", {"sub_id": sub_id}, 64)

    def handle_message(self, message: Message) -> None:
        """Dispatch replies to request callbacks and events to subs."""
        if message.corrupted:
            return
        if message.kind == "rpc/event":
            callback = self._subscriptions.get(message.payload.get("sub_id"))
            if callback is not None:
                callback(message.payload)
            return
        if message.kind != "rpc/reply":
            return
        callback = self._callbacks.pop(message.payload.get("req_id"), None)
        if callback is not None:
            callback(message.payload)

class SimChainConnector(IBlockchainConnector):
    """Connector binding one RPCClient to one server of a cluster."""

    def __init__(self, cluster: "Cluster", client: RPCClient, server_id: str) -> None:
        if server_id not in cluster.node_ids():
            raise ConnectorError(f"unknown server {server_id!r}")
        self.cluster = cluster
        self.client = client
        self.server_id = server_id

    def deploy_application(self, contract_name: str) -> None:
        """Install the contract on every node of the testnet."""
        for node in self.cluster.nodes:
            node.deploy(contract_name)

    #: Client-side submission timeout: a request dropped at a saturated
    #: server is retried rather than blocking its worker thread forever.
    SUBMIT_TIMEOUT_S = 5.0

    def fail_over(self) -> str:
        """Repoint this connector at the next live server (ring order).

        Deterministic: walks the cluster's node list from the current
        server's position and takes the first non-crashed node, so every
        client attached to a dead endpoint picks the same replacement
        given the same cluster state. If every server is down the
        connector keeps its current endpoint (retries will time out
        until one recovers).
        """
        ids = self.cluster.node_ids()
        start = ids.index(self.server_id)
        for offset in range(1, len(ids) + 1):
            index = (start + offset) % len(ids)
            if not self.cluster.nodes[index].crashed:
                self.server_id = ids[index]
                break
        return self.server_id

    def send_transaction(self, tx: Transaction) -> SimFuture:
        """Submit one transaction to this connector's server."""
        return self.client.call(
            self.server_id,
            "rpc/send_tx",
            {"tx": tx},
            size_bytes=tx.size_bytes() + 48,
            timeout_s=self.SUBMIT_TIMEOUT_S,
        )

    def get_latest_block(
        self, from_height: int, timeout_s: float | None = None
    ) -> SimFuture:
        """The paper's getLatestBlock(h): confirmed blocks in (h, t].

        ``timeout_s`` (failover mode) bounds the wait: a poll sent to a
        crashed endpoint resolves with ``{"timeout": True}`` instead of
        hanging the polling loop forever.
        """
        return self.client.call(
            self.server_id,
            "rpc/get_blocks",
            {"from_height": from_height},
            size_bytes=96,
            timeout_s=timeout_s,
        )

    def get_block_transactions(self, height: int) -> SimFuture:
        """Fetch one block's transaction bodies (analytics Q1)."""
        return self.client.call(
            self.server_id,
            "rpc/get_block_txs",
            {"height": height},
            size_bytes=96,
        )

    def get_balance(self, contract: str, key: bytes, height: int) -> SimFuture:
        """Historical state read at a block height (analytics Q2)."""
        return self.client.call(
            self.server_id,
            "rpc/get_balance",
            {"contract": contract, "key": key, "height": height},
            size_bytes=128,
        )

    def query(self, contract: str, function: str, args: tuple) -> SimFuture:
        """Read-only contract invocation (no consensus round)."""
        return self.client.call(
            self.server_id,
            "rpc/query",
            {"contract": contract, "function": function, "args": args},
            size_bytes=192,
        )

    def subscribe_new_blocks(self, from_height: int) -> BlockSubscription:
        """ErisDB-style push feed: one event per executed block."""
        server = next(
            node for node in self.cluster.nodes if node.node_id == self.server_id
        )
        if not getattr(server, "supports_subscription", False):
            raise ConnectorError(
                f"platform {self.cluster.platform!r} has no "
                "publish/subscribe interface; use get_latest_block polling"
            )
        subscription = BlockSubscription(self.client)
        subscription.sub_id = self.client.subscribe(
            self.server_id,
            "rpc/subscribe",
            {"from_height": from_height},
            subscription._deliver,
        )
        return subscription
