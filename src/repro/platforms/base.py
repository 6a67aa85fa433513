"""Platform node base: the full blockchain software stack of Figure 1.

A :class:`PlatformNode` is one server in the private testnet. It wires
together every layer the paper identifies:

* **consensus** — a :class:`~repro.consensus.base.ConsensusProtocol`
  (PoW / PoA / PBFT / Tendermint) built by ``_new_protocol``;
* **data model** — a :class:`JournaledState` (Patricia trie or bucket
  tree over a storage backend) built by ``_new_state`` and committed
  once per executed block;
* **execution** — the Table-1 contracts, invoked natively with gas
  metering; gas converts to CPU seconds through the platform's
  execution-cost model, and that CPU time *occupies the node* (via
  ``defer_cost``), which is what lets execution back-pressure the
  message channel;
* **application interface** — a JSON-RPC-like message protocol used by
  BLOCKBENCH clients: ``rpc/send_tx``, ``rpc/get_blocks`` (the driver's
  ``getLatestBlock(h)``), ``rpc/get_block_txs``, ``rpc/get_balance``
  and read-only ``rpc/query``.

Blocks are *executed at confirmation* (immediately for PBFT, after the
confirmation depth for PoW/PoA), so state never needs to be unwound on
the shallow reorgs PoW naturally produces.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Hashable
from typing import TYPE_CHECKING, Any

from dataclasses import dataclass

from ..chain import Block, BlockReceipts, Blockchain, Mempool, Transaction
from ..chain.transaction import Outcome
from ..config import PlatformConfig
from ..consensus.base import ConsensusProtocol
from ..contracts import Contract, TxContext, create_contract
from ..crypto.hashing import EMPTY_HASH, Hash
from ..errors import ConnectorError, ContractRevert, ExecutionError
from ..sim import Message, Network, RngRegistry, Scheduler, SimNode
from ..util.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover
    from ..core.audit import ChainAuditor
    from ..core.trace import StageTracer
    from ..core.txsched import TxView
    from ..crypto.trie import DictNodeStore

TX_GOSSIP = "tx/gossip"
RPC_SEND_TX = "rpc/send_tx"
RPC_GET_BLOCKS = "rpc/get_blocks"
RPC_GET_BLOCK_TXS = "rpc/get_block_txs"
RPC_GET_BALANCE = "rpc/get_balance"
RPC_QUERY = "rpc/query"
RPC_REPLY = "rpc/reply"

#: Block-sync protocol (crash recovery): a recovering node requests
#: missing block ranges from live peers; peers answer with batches of
#: full blocks. The messages ride the normal network (real
#: ``size_bytes``) and peer CPU (per-transaction verification), so
#: catch-up traffic contends with live consensus traffic.
SYNC_REQUEST = "sync/request"
SYNC_BLOCKS = "sync/blocks"
#: Blocks served per sync response (mirrors the gossip fetcher's batch).
SYNC_BATCH = 32
#: Seconds a recovering node waits for a sync response before asking
#: the next peer (covers peers that crashed or sit behind a partition).
SYNC_RETRY_S = 1.0
#: Recovery modes: ``warm`` keeps the executed state and syncs only the
#: missed suffix; ``cold`` wipes the state store and replays the whole
#: chain through the execution path before syncing.
RECOVERY_MODES = ("warm", "cold")


#: Gas a block packer assumes per transaction: ``block_gas_limit`` is a
#: count of at least one transaction (Ethereum's 20,000,000 packs 769).
TX_GAS_ESTIMATE = 26_000

#: One net write per key: ``(key, value)`` with ``value=None`` a delete.
WriteSet = tuple[tuple[bytes, "bytes | None"], ...]

#: Commit records a cluster keeps that some replica has not installed
#: yet. A record retires on its last install, so the bound only meets
#: records a replica never installs — a crashed replica's, a fork
#: branch's; such a replica, once it replays, recomputes past it.
COMMIT_MEMO_ENTRIES = 64


class JournaledState(ABC):
    """State layer: the key-value facade, per-block commitment and the
    block-commit fast path. Every platform's state is one.

    All intra-block writes land in an in-memory overlay dict with
    last-write-wins semantics; reads are read-your-writes (overlay
    first, committed backing second). ``commit_block`` flushes the
    *net* write-set once, in deterministic sorted key order, through
    the platform's batched tree update — so K writes to a hot
    SmallBank/YCSB key cost one path rewrite at commit instead of K
    full leaf-to-root rewrites. Only the once-per-block commit root is
    observable, so the state roots (and every stat derived from them)
    are byte-identical to unbuffered writes.

    With a :attr:`commit_memo` the flush is computed once per cluster:
    the post-state is a pure function of (sealed root, write-set), so
    the first replica to commit a pair flushes and records what that
    produced, and the others install the record — the same root and
    counters, nothing sorted, traversed, encoded or hashed; the last of
    them retires the record. What an install writes is the subclass's
    business: a store shared with the computing replica needs no write,
    a replica's own store gets the same writes in the same order. A
    miss (no memo, or a record evicted or retired) is the compute path,
    with the same result.

    A recorded write-set — the genesis, an execution-cache replay, a
    single-recipe re-seed — is committed as it is: ``commit_block``
    takes it as ``write_set`` and hands that tuple to the memo, the
    flush or the install, with no overlay copy and no ``put``. Into an
    overlay that already holds writes it merges through
    :meth:`apply_write_set`, as does every write-set on a subclass
    whose ``put`` is part of the model (Parity charges its cap there).

    Subclasses pass the empty tree's root to the constructor and
    implement four hooks — ``_backing_get`` (committed read),
    ``_flush`` (apply one sorted net write-set to the tree),
    ``_install`` (apply it from another replica's record) and ``_seal``
    (record the per-height root and return it).
    """

    #: The cluster's :attr:`ExecutionCache.commits` (set by
    #: :meth:`attach_execution_cache`); None for a stand-alone state,
    #: one built without a cluster.
    commit_memo: "CommitMemo | None" = None
    #: Set while the owning replica catches up after a restart: it
    #: commits after every live replica, so it takes the memo's records
    #: but stores none, as no reader is left to take them.
    catching_up: bool = False

    def __init__(self, empty_root: Hash) -> None:
        #: key -> value, with None recording an uncommitted delete.
        self._overlay: dict[bytes, bytes | None] = {}
        #: Memoized sorted write-set; invalidated by every write so
        #: the cache-store path and commit_block share one sort.
        self._pending: WriteSet | None = None
        #: What ``_seal`` last returned: the committed state's name.
        self._sealed_root = empty_root

    def get(self, key: bytes) -> bytes | None:
        overlay = self._overlay
        if key in overlay:
            return overlay[key]
        return self._backing_get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._overlay[key] = value
        self._pending = None

    def delete(self, key: bytes) -> None:
        self._overlay[key] = None
        self._pending = None

    def pre_state_root(self) -> Hash:
        """Root of the last *committed* state (the execution-cache key)."""
        return self._sealed_root

    def pending_writes(self) -> WriteSet:
        """The net uncommitted write-set, sorted by key."""
        if self._pending is None:
            self._pending = tuple(sorted(self._overlay.items()))
        return self._pending

    def apply_write_set(self, items: WriteSet) -> None:
        """Merge a recorded write-set into the overlay, for a write-set
        that meets other uncommitted writes (a ``bootstrap_put`` chain,
        a multi-recipe re-seed) and for Parity's per-put charge; a lone
        one goes to :meth:`commit_block` as it is. Routed through
        ``put``/``delete`` so subclass accounting (Parity's memory cap)
        sees every write. Into an empty overlay ``items`` (recorded net
        and sorted) *is* the pending write-set and is kept: no re-sort,
        and the commit memo matches it by identity."""
        whole = not self._overlay
        for key, value in items:
            if value is None:
                self.delete(key)
            else:
                self.put(key, value)
        if whole:
            self._pending = items

    def attach_execution_cache(self, cache: "ExecutionCache") -> None:
        """Join a cluster's :class:`ExecutionCache`: take its commit
        memo, and whatever else of it a subclass shares. Called on a
        fresh state, at build time and on a cold restart."""
        self.commit_memo = cache.commits

    def commit_block(self, height: int, write_set: WriteSet | None = None) -> Hash:
        """Commit the overlay's net write-set as the state at ``height``,
        or ``write_set``, a recorded one (net and sorted), as it is."""
        items = write_set
        if items is None or self._overlay:
            if items:
                self.apply_write_set(items)
            items = self.pending_writes()
        if items:
            memo = self.commit_memo
            if memo is None:
                self._flush(items)
            else:
                key = (self._sealed_root, items)
                record = memo.take(key)
                if record is not None:
                    self._install(items, record)
                elif self.catching_up:
                    self._flush(items)
                else:
                    memo.put(key, self._flush(items, journal=True))
            self._overlay.clear()
            self._pending = None
        self._sealed_root = self._seal(height)
        return self._sealed_root

    @abstractmethod
    def _backing_get(self, key: bytes) -> bytes | None:
        """Read one key from the committed backing state."""

    @abstractmethod
    def _flush(self, items: WriteSet, journal: bool = False) -> Any:
        """Apply one sorted net write-set to the backing tree. With
        ``journal``, return the commit record ``_install`` takes."""

    @abstractmethod
    def _install(self, items: WriteSet, record: Any) -> None:
        """Apply ``items`` from the record ``_flush`` returned for the
        same write-set on the same sealed root."""

    @abstractmethod
    def _seal(self, height: int) -> Hash:
        """Record the committed root for ``height`` and return it."""

    def get_at(self, height: int, key: bytes) -> bytes | None:
        """Historical read at a block height; not every platform can."""
        raise ConnectorError(
            f"{type(self).__name__} does not support historical state queries"
        )

    def close(self) -> None:
        """Release storage resources."""


class CommitMemo(LRUCache):
    """A counted memo: ``key → record``, each record read by a known
    number of readers. It holds a cluster's commit records
    (:attr:`ExecutionCache.commits`, ``(sealed root, write-set) →
    record``) and its execution records (``(pre-state root, block hash)
    → CachedExecution``).

    The replica that computes a record puts it; each of the other
    ``replicas - 1`` (plus any :attr:`readers` added later) takes it
    once, and the last take retires it: a record lives until its last
    reader has read it, and a put with no reader left stores nothing.
    The LRU bound (``capacity``, :data:`COMMIT_MEMO_ENTRIES` when not
    given, read when the memo is built) holds the records some reader
    never takes. ``hits`` / ``misses`` count reads, as on any
    :class:`LRUCache`; :meth:`get` reads a record without taking it.
    """

    def __init__(self, replicas: int, capacity: int | None = None) -> None:
        super().__init__(COMMIT_MEMO_ENTRIES if capacity is None else capacity)
        #: Reads a record is put with.
        self.readers = replicas - 1

    def put(self, key: Hashable, record: Any) -> None:
        if self.readers > 0:
            super().put(key, [record, self.readers])

    def get(self, key: Hashable) -> Any:
        """The record under ``key``, or None; a read that takes nothing."""
        entry = super().get(key)
        return None if entry is None else entry[0]

    def take(self, key: Hashable) -> Any:
        """The record under ``key``, or None; the last reader's take
        retires it."""
        entry = LRUCache.get(self, key)
        if entry is None:
            return None
        entry[1] -= 1
        if entry[1] <= 0:
            del self._data[key]
        return entry[0]


class _NamespacedState:
    """StateAccess wrapper isolating one contract's keys.

    Hyperledger's chaincodes "can only access its private storage and
    they are isolated from each other" (Section 3.1.2); Ethereum gives
    each contract its own storage trie. A per-contract key prefix
    models both.
    """

    __slots__ = ("_state", "_prefix")

    def __init__(self, state: "JournaledState | TxView", contract_name: str) -> None:
        self._state = state
        self._prefix = contract_name.encode() + b"/"

    def get_state(self, key: bytes) -> bytes | None:
        return self._state.get(self._prefix + key)

    def put_state(self, key: bytes, value: bytes) -> None:
        self._state.put(self._prefix + key, value)

    def delete_state(self, key: bytes) -> None:
        self._state.delete(self._prefix + key)


def tally_receipts(
    receipts: BlockReceipts, seconds_per_gas: float
) -> tuple[int, int, float]:
    """``(committed, failed, serial CPU seconds)`` of one block's
    receipts. The seconds are summed in block order, so every replica
    that adds a shared tally charges the float it would have summed."""
    seconds = 0.0
    # Signature verification was already charged when the block
    # arrived (message_cost); only execution is charged here.
    for gas_used in receipts.gas_used:
        seconds += gas_used * seconds_per_gas
    committed = receipts.success.count(1)
    return committed, len(receipts) - committed, seconds


@dataclass(frozen=True)
class CachedExecution:
    """Time-independent outcome of executing one block once.

    ``receipts`` is the first executor's
    :class:`~repro.chain.BlockReceipts` record; a replica replaying
    the entry files that record and charges its own simulated
    CPU from ``tally`` — the executor's :func:`tally_receipts`, at the
    ``seconds_per_gas`` every node of the cache's one cluster shares —
    so the simulated timeline is untouched and a replayed block is
    filed without looking at its receipts.

    ``levels`` is the dependency-level schedule captured by the
    parallel execution path (``exec_workers > 1``), or ``None`` when
    the block was executed serially. Like ``tally`` it relies on the
    cache serving one cluster, whose nodes share one config: a replica
    replays levels exactly when it would have computed them, and
    charges their makespan. ``write_set`` and ``receipts`` are
    identical whichever path produced them; tests pin this.
    """

    write_set: WriteSet
    receipts: BlockReceipts
    #: ``(committed, failed, serial CPU seconds)`` of ``receipts``.
    tally: tuple[int, int, float]
    levels: tuple[int, ...] | None = None


class TxIndex(dict):
    """``tx id → hash`` of the executed block holding it, or a tuple of
    hashes for a transaction that forks put in several blocks.

    Filled once per block, by the first replica to file it. One index
    serves the cluster: it hangs on the :class:`ExecutionCache`.
    """

    __slots__ = ("_indexed",)

    def __init__(self) -> None:
        super().__init__()
        self._indexed: set[Hash] = set()

    def add(self, block_hash: Hash, tx_ids: tuple[str, ...]) -> None:
        if block_hash in self._indexed:
            return
        self._indexed.add(block_hash)
        for tx_id in tx_ids:
            held = self.setdefault(tx_id, block_hash)
            if held is not block_hash:
                self[tx_id] = (
                    held + (block_hash,)
                    if type(held) is tuple
                    else (held, block_hash)
                )


class ExecutedReceipts:
    """One replica's receipts: :attr:`blocks` maps the hash of each
    block the replica executed to its :class:`~repro.chain.BlockReceipts`
    record — a replayed block's record is the :class:`CachedExecution`'s
    own — and transactions are looked up through the cluster's
    :class:`TxIndex`.
    """

    __slots__ = ("index", "blocks")

    def __init__(self, index: TxIndex) -> None:
        self.index = index
        #: block hash -> its receipts, in latest-filing order.
        self.blocks: dict[Hash, BlockReceipts] = {}

    def file(self, block_hash: Hash, receipts: BlockReceipts) -> None:
        """Record that this replica executed ``block_hash``."""
        self.index.add(block_hash, receipts.tx_ids)
        blocks = self.blocks
        blocks.pop(block_hash, None)
        blocks[block_hash] = receipts

    def __contains__(self, tx_id: object) -> bool:
        held = self.index.get(tx_id)
        if held is None:
            return False
        if type(held) is tuple:
            return any(block_hash in self.blocks for block_hash in held)
        return held in self.blocks


class ExecutionCache:
    """Cross-replica execution memoization, shared by one cluster.

    The simulation is deterministic: replicas 2..N executing the same
    block from the same pre-state root must produce identical write
    sets and receipts. Only the first replica runs the contracts; the
    rest commit the recorded net write-set as it is — byte-identical
    roots, a fraction of the CPU. Keyed by
    ``(pre_state_root, block_hash)``: PoW forks execute different
    blocks at one height and hit different keys, so divergent branches
    can never cross-contaminate. ``build_cluster`` gives every cluster
    one; a replay charges the same simulated CPU as an execution, so
    the cache changes no run's output.

    The execution records are a :class:`CommitMemo` too: the executing
    replica stores a record for the other ``replicas - 1``, plus one
    reader per cold restart a fault schedule armed whose replica has
    not crashed yet (:meth:`add_cold_restarts`), and the last
    :meth:`lookup` retires it. A replica catching up after a restart
    executes after every live one, so it stores nothing on a miss, in
    either memo. The LRU bound (``capacity``) holds what some replica
    never reads: a fork block's record, a crashed replica's. A replica
    that finds no record — retired, evicted, or a cold restart no
    schedule armed — executes the block itself, with the same result.

    The same object carries the cluster's commit memo:
    :attr:`commits` (a :class:`CommitMemo` over the cluster's
    ``replicas``) maps ``(pre_state_root, write_set)`` to the record of
    the first replica's state commit, which every other
    :class:`JournaledState` installs instead of re-hashing, the last of
    them retiring it. An install moves the replica's root and counters
    as a local commit would; it writes only into a store the computing
    replica did not write to. Forks and stale executions commit other
    write-sets or start from other roots, hence other keys; keying on
    the write-set rather than the block also covers the one commit no
    block carries (the preload). ``hits`` / ``misses`` count execution
    lookups only; ``commits`` keeps its own.

    :attr:`tx_index` is the cluster's one :class:`TxIndex`: every
    replica's :class:`ExecutedReceipts` looks transactions up in it, so
    a replica stores one entry per executed block, not per transaction.

    :attr:`trie_nodes` is the cluster's one in-memory trie node store,
    which every replica whose trie state would own one writes to
    instead; each keeps its own roots, snapshots and counters. The
    first such state to attach creates it (see
    :class:`~repro.platforms.triestate.TrieState`), so a cluster without
    a trie never imports one.
    """

    def __init__(self, replicas: int, capacity: int = 4096) -> None:
        self._entries = CommitMemo(replicas, capacity)
        self.commits = CommitMemo(replicas)
        self.tx_index = TxIndex()
        self.trie_nodes: "DictNodeStore | None" = None

    @property
    def hits(self) -> int:
        return self._entries.hits

    @property
    def misses(self) -> int:
        return self._entries.misses

    def lookup(
        self, pre_state_root: Hash, block_hash: Hash
    ) -> CachedExecution | None:
        """Take the record of ``block_hash`` executed from
        ``pre_state_root``, or None: the last reader's lookup retires it."""
        return self._entries.take((pre_state_root, block_hash))

    def store(
        self,
        pre_state_root: Hash,
        block_hash: Hash,
        entry: CachedExecution,
    ) -> None:
        self._entries.put((pre_state_root, block_hash), entry)

    def add_cold_restarts(self, count: int) -> None:
        """Give every execution record stored from now on ``count`` more
        readers: the cold restarts a fault schedule armed, each
        replaying its replica's pre-crash chain through :meth:`lookup`.
        The schedule withdraws each one (a negative ``count``) at its
        replica's crash."""
        self._entries.readers += count


class PlatformNode(SimNode):
    """One server of a private blockchain deployment.

    A platform is one subclass registered with
    :func:`repro.registry.register_platform`: its constructor is the
    registry's node factory, ``(node_id, scheduler, network, rng,
    config, all_ids)``, and it supplies two layers through hooks —
    ``_new_state()`` (also called by cold recovery) and
    ``_new_protocol(all_ids)``.
    """

    #: Whether the platform offers the publish/subscribe block feed the
    #: paper attributes to ErisDB (Section 3.2). Polling via
    #: ``rpc/get_blocks`` works everywhere.
    supports_subscription = False

    #: The cluster's shared execution memoization, and the receipts of
    #: the blocks this replica executed; both set by
    #: :meth:`attach_execution_cache`, which ``build_cluster`` calls.
    execution_cache: ExecutionCache
    receipts: ExecutedReceipts
    #: The cluster's safety auditor, which sees every block this node
    #: finalizes, and its lifecycle tracer, which this node stamps
    #: admit/propose/decide/execute/commit into; set by
    #: :meth:`attach_auditor` and :meth:`attach_tracer`.
    auditor: ChainAuditor
    tracer: StageTracer

    def __init__(
        self,
        node_id: str,
        scheduler: Scheduler,
        network: Network,
        rng_registry: RngRegistry,
        config: PlatformConfig,
        all_ids: list[str],
    ) -> None:
        super().__init__(
            node_id, scheduler, network, inbox_capacity=config.inbox_capacity
        )
        self.config = config
        self.state = self._new_state()
        self._rng = rng_registry.stream(node_id)
        # The chain id is hashed into the genesis block.
        self._chain = Blockchain("testnet")
        self.mempool = Mempool()
        self.peers: list[str] = []
        self.contracts: dict[str, Contract] = {}
        self.executed_height = 0
        #: Which block this node executed at each height. On PoW a deep
        #: reorg can later replace a height with a different block; the
        #: mismatch count is exactly the double-spend exposure a
        #: depth-d client had (used by the confirmation-depth ablation).
        self.executed_block_hashes: dict[int, Hash] = {}
        # Statistics.
        self.committed_tx_count = 0
        self.failed_tx_count = 0
        # Crash-recovery state and counters.
        self._recovery_started_at = 0.0
        self._sync_serial = 0
        self._sync_peer_index = 0
        self._sync_view_hint = 0
        #: One entry per completed crash/recover cycle: simulated
        #: seconds from restart to caught-up-and-voting.
        self.recovery_times: list[float] = []
        # Recipes of the sealed pre-run (genesis) write-sets, re-derived
        # by cold recovery: they live in no block, so a wiped state
        # cannot replay them. The write-sets themselves are not kept
        # past the seal (see ``preload_state``).
        self._genesis: list[Callable[[], WriteSet]] = []
        #: ``(write-set, recipe)`` pairs ``bootstrap_commit`` will seal.
        self._unsealed: list[tuple[WriteSet, Callable[[], WriteSet]]] = []
        self.sync_requests_sent = 0
        self.sync_blocks_received = 0
        self.sync_bytes_received = 0
        self.protocol: ConsensusProtocol = self._new_protocol(all_ids)

    @property
    def _recovering(self) -> bool:
        """Whether the node is catching up after a restart: held by its
        state, which stores no memo record meanwhile."""
        return self.state.catching_up

    @_recovering.setter
    def _recovering(self, value: bool) -> None:
        self.state.catching_up = value

    def _new_state(self) -> JournaledState:
        """An empty state store: at construction and on cold recovery."""
        raise NotImplementedError

    def _new_protocol(self, all_ids: list[str]) -> ConsensusProtocol:
        """This node's consensus protocol over the replica list."""
        raise NotImplementedError

    def start(self) -> None:
        """Begin consensus participation (once, after peering)."""
        self.protocol.start()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def set_peers(self, peer_ids: list[str]) -> None:
        """Install the deployment's node list (self excluded)."""
        self.peers = [p for p in peer_ids if p != self.node_id]

    def deploy(self, contract_name: str) -> None:
        """Install a Table-1 contract (idempotent)."""
        if contract_name not in self.contracts:
            self.contracts[contract_name] = create_contract(contract_name)

    def attach_execution_cache(self, cache: ExecutionCache) -> None:
        """Share one cluster-wide :class:`ExecutionCache` with this node
        (what the node's state shares of it — the commit memo, a trie
        state's node store — and its tx index with a new, empty receipt
        map): at build time, or on a cold restart."""
        self.execution_cache = cache
        self.state.attach_execution_cache(cache)
        self.receipts = ExecutedReceipts(cache.tx_index)

    def attach_auditor(self, auditor: ChainAuditor) -> None:
        """Subscribe a cluster-wide safety auditor to this node's commits."""
        self.auditor = auditor

    def attach_tracer(self, tracer: StageTracer) -> None:
        """Share one cluster-wide :class:`StageTracer` with this node."""
        self.tracer = tracer

    # ------------------------------------------------------------------
    # ConsensusHost interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (ConsensusHost)."""
        return self.scheduler.now

    def send_to(self, recipient: str, kind: str, payload: Any, size_bytes: int) -> None:
        """Point-to-point consensus message (ConsensusHost)."""
        self.send(recipient, kind, payload, size_bytes)

    def broadcast_to_peers(self, kind: str, payload: Any, size_bytes: int) -> None:
        """Broadcast a consensus message to every peer (ConsensusHost)."""
        if self.crashed:
            return
        self.network.broadcast(self.node_id, self.peers, kind, payload, size_bytes)

    def peer_ids(self) -> list[str]:
        """Peer node ids (ConsensusHost)."""
        return list(self.peers)

    def rng(self):
        """This node's deterministic random stream (ConsensusHost)."""
        return self._rng

    def chain(self) -> Blockchain:
        """The local blockchain copy (ConsensusHost)."""
        return self._chain

    def pending_count(self) -> int:
        """Mempool size (ConsensusHost)."""
        return len(self.mempool)

    def oldest_request_age(self) -> float:
        """Age of the oldest pending transaction (ConsensusHost)."""
        return self.mempool.oldest_pending_age(self.now)

    def assemble_block(
        self, parent: Block, consensus_meta: dict[str, Any], max_txs: int | None
    ) -> Block:
        limit = max_txs if max_txs is not None else 10_000
        gas_limit = self.config.block_gas_limit
        if gas_limit:
            limit = min(limit, max(1, gas_limit // TX_GAS_ESTIMATE))
        txs = self.mempool.peek_batch(limit)
        block = Block.build(
            height=parent.height + 1,
            parent_hash=parent.hash,
            transactions=txs,
            state_root=EMPTY_HASH,
            proposer=self.node_id,
            timestamp=self.now,
            consensus_meta=consensus_meta,
        )
        if txs:
            self.tracer.record_propose(block.tx_ids, self.now)
        return block

    def deliver_block(self, block: Block, execute: bool = True) -> bool:
        """Append a decided block; executes it once confirmed."""
        known = self._chain.contains(block.hash)
        changed = self._chain.add_block(block)
        if not known and self._chain.contains(block.hash):
            self.mempool.remove(block.tx_ids)
        if execute:
            self._advance_execution()
        return changed

    # ------------------------------------------------------------------
    # Execution (at confirmation)
    # ------------------------------------------------------------------
    def confirmed_height(self) -> int:
        """Highest height the protocol treats as final."""
        return self.protocol.confirmed_height()

    def _advance_execution(self) -> None:
        target = min(self.confirmed_height(), self._chain.height)
        while self.executed_height < target:
            block = self._chain.block_by_height(self.executed_height + 1)
            if block is None:
                break
            self._execute_block(block)
            self.executed_height = block.height

    def _execute_block(self, block: Block) -> None:
        if block.transactions:
            # The first replica to reach this point stamps the decide
            # time for the whole cluster (later replicas are no-ops).
            self.tracer.record_decide(block.tx_ids, self.now)
        cache = self.execution_cache
        pre_root = self.state.pre_state_root()
        # Taken, not peeked: this replica's read may be the record's last.
        entry = cache.lookup(pre_root, block.hash)
        workers = self.config.exec_workers
        seconds_per_gas = self.config.execution.seconds_per_gas
        levels: tuple[int, ...] | None = None
        write_set: WriteSet | None = None
        if entry is not None:
            # Another replica already executed this exact block from
            # this exact pre-state: commit its net write-set as it is
            # and file its receipts. Simulated CPU is still charged
            # below — only the redundant Python work is skipped.
            write_set = entry.write_set
            levels = entry.levels
            receipts = entry.receipts
            committed, failed, seconds = entry.tally
        else:
            if workers > 1:
                receipts, levels = self._execute_block_parallel(block)
            else:
                receipts = BlockReceipts.pack(block.tx_ids, block.height, [
                    self._execute_tx(tx, block) for tx in block.transactions
                ])
            committed, failed, seconds = tally_receipts(
                receipts, seconds_per_gas
            )
            if not self._recovering:
                # A replica catching up executes after every live one:
                # a record it stored would have no reader.
                cache.store(pre_root, block.hash, CachedExecution(
                    self.state.pending_writes(), receipts,
                    (committed, failed, seconds), levels,
                ))
        self.receipts.file(block.hash, receipts)
        self.committed_tx_count += committed
        self.failed_tx_count += failed
        if levels is not None:
            # Charge the dependency-schedule makespan instead of the
            # serial sum: non-conflicting transactions overlap on the
            # modeled execution workers.
            from ..core.txsched import level_makespan

            seconds = level_makespan(
                [gas_used * seconds_per_gas for gas_used in receipts.gas_used],
                levels,
                workers,
            )
        self.state.commit_block(block.height, write_set)
        self.executed_block_hashes[block.height] = block.hash
        self.auditor.record_commit(self.node_id, block, self.now)
        if block.transactions:
            # Execution completes once the charged CPU below has been
            # paid; stamping at now + seconds attributes that cost to
            # the execution interval instead of hiding it in result
            # propagation. The state commit itself carries no separate
            # charge in the cost model, so commit == execute.
            done = self.now + seconds
            self.tracer.record_execute(block.tx_ids, done)
            self.tracer.record_commit(block.tx_ids, done)
        self._charge(seconds)

    def _execute_block_parallel(self, block: Block):
        """Capture-and-schedule execution (``exec_workers > 1``).

        Each transaction runs against a :class:`TxView` whose reads
        fall through to the block state — the pre-state plus every
        earlier transaction's merged writes, exactly what serial
        execution would show it — and whose writes stay buffered until
        the view merges in block order (last writer wins, so the block
        overlay ends byte-identical to the serial path). The captured
        read/write sets feed the dependency scheduler. Returns the
        block's :class:`~repro.chain.BlockReceipts` and its levels,
        which drive the makespan charge and ride along in the
        :class:`ExecutionCache` entry.

        The serial path (``exec_workers=1``) deliberately bypasses all
        of this: it must stay byte-for-byte the pre-existing code,
        including the order floating-point durations are summed in.
        """
        from ..core.txsched import TxView, dependency_levels

        state = self.state
        outcomes = []
        accesses = []
        for tx in block.transactions:
            view = TxView(state)
            outcomes.append(self._execute_tx(tx, block, state=view))
            accesses.append(view.access_sets())
            # Merge even after a revert: partial writes made before the
            # revert persisted on the serial path (the facade wrote
            # straight through), so they must persist here too.
            view.merge_into(state)
        receipts = BlockReceipts.pack(block.tx_ids, block.height, outcomes)
        return receipts, dependency_levels(accesses)

    def _execute_tx(
        self,
        tx: Transaction,
        block: Block,
        state: "JournaledState | TxView | None" = None,
    ) -> Outcome:
        """Run one transaction: ``(gas_used, output, error)``, with
        ``error`` None on success (see :meth:`BlockReceipts.pack`)."""
        contract = self.contracts.get(tx.contract)
        if contract is None:
            return 0, None, f"contract {tx.contract!r} not deployed"
        facade = _NamespacedState(
            self.state if state is None else state, tx.contract
        )
        # The block's timestamp (the proposer's clock when it sealed
        # the block), not this replica's local time: every replica must
        # execute a block identically for replicated state to converge
        # — exactly Ethereum's TIMESTAMP-opcode semantics, and the
        # property the ExecutionCache relies on.
        ctx = TxContext(
            sender=tx.sender,
            value=tx.value,
            block_height=block.height,
            timestamp=block.header.timestamp,
        )
        try:
            result = contract.invoke(facade, tx.function, tx.args, ctx)
        except ContractRevert as exc:
            return 21_000, None, str(exc)
        return result.gas_used, result.output, None

    def _charge(self, seconds: float) -> None:
        """Charge CPU so heavy work occupies the node."""
        if self._processing:
            self.defer_cost(seconds)
        else:
            self.consume_cpu(seconds)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def message_cost(self, message: Message) -> float:
        """CPU price of handling one message, per the platform's cost
        model (gossip, ingress, consensus verification, RPC)."""
        costs = self.config.execution
        kind = message.kind
        if kind == TX_GOSSIP:
            return costs.tx_gossip_cost_s
        if kind == RPC_SEND_TX:
            return costs.tx_ingress_cost_s
        if kind in self.protocol.block_kinds:
            block: Block = message.payload
            return costs.consensus_msg_cost_s + costs.verify_cost_s * len(
                block.transactions
            )
        if kind == SYNC_BLOCKS:
            # Catch-up batches carry full blocks: the recovering node
            # re-verifies every transaction, so big batches occupy it.
            total_txs = sum(
                len(b.transactions) for b in message.payload["blocks"]
            )
            return costs.consensus_msg_cost_s + costs.verify_cost_s * total_txs
        if kind.startswith("rpc/"):
            return costs.rpc_cost_s
        return costs.consensus_msg_cost_s

    def handle_message(self, message: Message) -> None:
        """Route one message: RPC, gossip, or consensus."""
        if message.corrupted:
            return
        kind = message.kind
        if kind == TX_GOSSIP:
            self._on_tx_gossip(message.payload)
        elif kind == RPC_SEND_TX:
            self._on_send_tx(message)
        elif kind == RPC_GET_BLOCKS:
            self._on_get_blocks(message)
        elif kind == RPC_GET_BLOCK_TXS:
            self._on_get_block_txs(message)
        elif kind == RPC_GET_BALANCE:
            self._on_get_balance(message)
        elif kind == RPC_QUERY:
            self._on_query(message)
        elif kind == SYNC_REQUEST:
            self._on_sync_request(message)
        elif kind == SYNC_BLOCKS:
            self._on_sync_blocks(message)
        elif kind in self.protocol.message_kinds:
            self.protocol.on_message(kind, message.payload, message.sender)

    # -- transaction admission -------------------------------------------
    def _on_tx_gossip(self, tx: Transaction) -> None:
        # No admit stamp: the entry node stamped it in _admit before
        # gossiping, and the tracer keeps the first stamp.
        if self.mempool.add(tx, self.now):
            self.protocol.on_new_pending_tx()

    def has_receipt(self, tx_id: str) -> bool:
        """Whether this replica has filed a block holding ``tx_id``."""
        return tx_id in self.receipts

    def _dup_reply(self, message: Message, tx: Transaction) -> bool:
        """Answer a resubmission of an already-known transaction.

        A client that timed out and failed over to this node may resend
        a transaction its dead endpoint had already admitted (gossip got
        it here) or that even committed in the meantime. Re-pooling a
        committed transaction would execute it twice, so the dedup check
        runs before admission; the ``dup`` marker lets the failover
        client treat the reply as "already in flight" rather than a
        rejection to retry.
        """
        if self.has_receipt(tx.tx_id) or tx.tx_id in self.mempool:
            self._reply(
                message, {"accepted": False, "tx_id": tx.tx_id, "dup": True}
            )
            return True
        return False

    def _admit(self, tx: Transaction) -> bool:
        """Pool ``tx``, gossip it and wake consensus; False when the
        pool refuses it (a duplicate)."""
        if not self.mempool.add(tx, self.now):
            return False
        self.tracer.record_admit(tx.tx_id, self.now)
        targets = self._gossip_targets(tx)
        self.network.broadcast(self.node_id, targets, TX_GOSSIP, tx, tx.size_bytes())
        # Serializing one copy per peer is sender-side CPU work that
        # grows with the fan-out (O(N) per admitted transaction).
        self._charge(len(targets) * self.config.execution.tx_broadcast_send_cost_s)
        self.protocol.on_new_pending_tx()
        return True

    def _gossip_targets(self, tx: Transaction) -> list[str]:
        """The peers an admitted transaction is forwarded to: all."""
        return self.peers

    def _on_send_tx(self, message: Message) -> None:
        """Client submission: dedup, admit, reply."""
        tx: Transaction = message.payload["tx"]
        if self._dup_reply(message, tx):
            return
        self._reply(message, {"accepted": self._admit(tx), "tx_id": tx.tx_id})

    # -- queries -----------------------------------------------------------
    def _on_get_blocks(self, message: Message) -> None:
        """The driver's getLatestBlock(h): confirmed blocks in (h, t]."""
        from_height = message.payload["from_height"]
        confirmed = min(self.confirmed_height(), self.executed_height)
        blocks = self._chain.blocks_in_range(from_height, confirmed)
        summaries = [
            {
                "height": b.height,
                "timestamp": b.header.timestamp,
                "tx_ids": b.tx_ids,
            }
            for b in blocks
        ]
        size = 64 + sum(32 + 40 * len(s["tx_ids"]) for s in summaries)
        self._reply(message, {"blocks": summaries, "tip": confirmed}, size)

    def _on_get_block_txs(self, message: Message) -> None:
        height = message.payload["height"]
        block = self._chain.block_by_height(height)
        txs = (
            [
                {
                    "tx_id": tx.tx_id,
                    "sender": tx.sender,
                    "contract": tx.contract,
                    "function": tx.function,
                    "args": tx.args,
                    "value": tx.value,
                }
                for tx in block.transactions
            ]
            if block is not None
            else []
        )
        self._reply(message, {"height": height, "txs": txs}, 64 + 150 * len(txs))

    def _on_get_balance(self, message: Message) -> None:
        payload = message.payload
        key = f"{payload['contract']}/".encode() + payload["key"]
        try:
            value = self.state.get_at(payload["height"], key)
            self._reply(message, {"value": value})
        except ConnectorError as exc:
            self._reply(message, {"error": str(exc)})

    def _on_query(self, message: Message) -> None:
        """Read-only contract invocation (no consensus round)."""
        payload = message.payload
        contract = self.contracts.get(payload["contract"])
        if contract is None:
            self._reply(message, {"error": f"no contract {payload['contract']}"})
            return
        facade = _NamespacedState(self.state, payload["contract"])
        try:
            result = contract.invoke(
                facade, payload["function"], tuple(payload.get("args", ()))
            )
        except (ContractRevert, ExecutionError) as exc:
            self._reply(message, {"error": str(exc)})
            return
        self._charge(result.gas_used * self.config.execution.seconds_per_gas)
        self._reply(message, {"output": result.output})

    def _reply(self, message: Message, payload: dict, size: int = 128) -> None:
        payload = dict(payload)
        payload["req_id"] = message.payload.get("req_id")
        self.send(message.sender, RPC_REPLY, payload, size)

    # ------------------------------------------------------------------
    # Crash recovery: restart, chain catch-up, consensus rejoin
    # ------------------------------------------------------------------
    def bootstrap_apply(
        self, write_set: WriteSet, genesis: Callable[[], WriteSet]
    ) -> None:
        """Stage pre-run (genesis) records: ``write_set``, which
        ``genesis()`` rebuilds; :meth:`bootstrap_commit` writes them.
        The node keeps the recipe, not the write-set, and cold recovery
        calls it to re-seed a wiped state before chain replay, the way a
        real node re-reads its genesis file — preloading bypasses
        consensus, so no block carries these."""
        self._unsealed.append((write_set, genesis))

    def bootstrap_put(self, key: bytes, value: bytes) -> None:
        """:meth:`bootstrap_apply` for one record."""
        write_set = ((key, value),)
        self.bootstrap_apply(write_set, lambda: write_set)

    def bootstrap_commit(self) -> None:
        """Seal the staged pre-run writes as the height-0 state commit."""
        staged, self._unsealed = self._unsealed, []
        self._genesis.extend(genesis for _, genesis in staged)
        self._commit_genesis([write_set for write_set, _ in staged])

    def _commit_genesis(self, write_sets: list[WriteSet]) -> None:
        """Commit pre-run write-sets at height 0. A lone one is committed
        as it is; several merge through the overlay (a later key wins),
        the last one in ``commit_block``."""
        for write_set in write_sets[:-1]:
            self.state.apply_write_set(write_set)
        self.state.commit_block(0, write_sets[-1] if write_sets else None)

    def recover(self, mode: str = "warm") -> None:
        """Restart a crashed node and begin chain catch-up.

        ``warm`` keeps the executed state and fetches only the blocks
        missed while down. ``cold`` wipes the state store and replays
        the entire local chain through the normal execution path first
        (riding the cluster's :class:`ExecutionCache`), then fetches
        the missed suffix. Either way, once the node's chain reaches a
        live peer's confirmed tip its consensus protocol is re-armed
        via :meth:`ConsensusProtocol.restart` and the cycle's
        ``recovery_time_s`` is recorded.
        """
        if not self.crashed:
            return
        if mode not in RECOVERY_MODES:
            raise ConnectorError(
                f"unknown recovery mode {mode!r}; expected one of "
                f"{RECOVERY_MODES}"
            )
        super().recover()
        # A byzantine send filter is process state (the compromised
        # binary died with the crash): a restarted node comes back
        # honest. The network's ever_byzantine taint survives, so the
        # auditor still treats its pre-crash blocks with suspicion.
        self.network.clear_send_filter(self.node_id)
        if mode == "cold":
            self.state.close()
            self.state = self._new_state()
        # Set on the state the replay and catch-up below commit to.
        self._recovering = True
        self._recovery_started_at = self.now
        self._sync_view_hint = 0
        self.auditor.node_recovering(self.node_id, cold=(mode == "cold"))
        if mode == "cold":
            # Wires the fresh state and starts an empty receipt map; the
            # chain replay below files and counts every block again.
            self.attach_execution_cache(self.execution_cache)
            self.executed_height = 0
            self.executed_block_hashes = {}
            self.committed_tx_count = 0
            self.failed_tx_count = 0
            # Re-seed the consensus-bypassing genesis writes; without
            # them every replayed root diverges from the live replicas.
            if self._genesis:
                self._commit_genesis([genesis() for genesis in self._genesis])
        # Replay whatever the local chain already holds (the full chain
        # for cold, nothing for warm unless execution lagged the crash).
        # The replay's CPU cost becomes a real delay before the node
        # starts syncing — a restarted node is busy replaying, so cold
        # recovery time grows with chain height.
        cpu_before = self.cpu_time
        self._advance_execution()
        replay_s = self.cpu_time - cpu_before
        self.set_timer(replay_s, self._sync_round)

    def _alive_sync_peers(self) -> list[str]:
        """Peers worth asking for blocks (failure-detector view).

        A real node's peer manager knows which peers answer heartbeats;
        we read liveness off the network registry. Partitioned peers
        still look alive — requests to them are dropped in transit and
        the retry timer rotates onward, so a node recovering inside a
        partition keeps retrying until ``heal()``.
        """
        alive = [
            p
            for p in self.peers
            if (node := self.network.nodes.get(p)) is not None
            and not node.crashed
        ]
        return alive or list(self.peers)

    def _sync_round(self) -> None:
        """Request the next missing block range from a live peer."""
        if self.crashed or not self._recovering:
            return
        if not self.peers:
            # Single-node deployment: nothing to fetch, rejoin at once.
            self._finish_recovery()
            return
        peers = self._alive_sync_peers()
        peer = peers[self._sync_peer_index % len(peers)]
        self._sync_peer_index += 1
        self._sync_serial += 1
        self.sync_requests_sent += 1
        self.send(
            peer,
            SYNC_REQUEST,
            {
                "from_height": self._chain.height,
                "count": SYNC_BATCH,
                "serial": self._sync_serial,
            },
            96,
        )
        self.set_timer(SYNC_RETRY_S, self._sync_retry_check, self._sync_serial)

    def _sync_retry_check(self, serial: int) -> None:
        """No response to request ``serial``: ask the next peer."""
        if self._recovering and serial == self._sync_serial:
            self._sync_round()

    def _on_sync_request(self, message: Message) -> None:
        """Serve a recovering peer a batch of confirmed blocks."""
        payload = message.payload
        from_height = payload["from_height"]
        count = payload.get("count", SYNC_BATCH)
        confirmed = min(self.confirmed_height(), self.executed_height)
        blocks = self._chain.blocks_in_range(
            from_height, min(confirmed, from_height + count)
        )
        view_hint = self.protocol.sync_hint()
        size = 96 + sum(b.size_bytes() for b in blocks)
        self.send(
            message.sender,
            SYNC_BLOCKS,
            {
                "blocks": blocks,
                "tip": confirmed,
                "view_hint": view_hint,
                "serial": payload.get("serial"),
            },
            size,
        )

    def _on_sync_blocks(self, message: Message) -> None:
        """Install one catch-up batch; re-request or finish."""
        if not self._recovering:
            return
        payload = message.payload
        if payload.get("serial") != self._sync_serial:
            return  # stale response to a superseded request
        blocks = payload["blocks"]
        self.sync_blocks_received += len(blocks)
        self.sync_bytes_received += message.size_bytes
        self._sync_view_hint = max(
            self._sync_view_hint, payload.get("view_hint", 0)
        )
        for block in blocks:
            self._chain.add_block(block)
            self.mempool.remove(block.tx_ids)
        self._advance_execution()
        if self._chain.height >= payload["tip"]:
            self._finish_recovery()
        else:
            self._sync_round()

    def _finish_recovery(self) -> None:
        """Caught up: record the cycle and rejoin consensus."""
        self._recovering = False
        self.recovery_times.append(self.now - self._recovery_started_at)
        self.auditor.node_recovered(self.node_id, self._chain.height, self.now)
        view_hint = self._sync_view_hint
        if not self.peers:
            view_hint = max(view_hint, self.protocol.sync_hint())
        self.protocol.restart(self._chain.height, view_hint)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the node and stop its consensus participation."""
        super().crash()
        # An in-progress recovery dies with the process; a later
        # recover() starts a fresh cycle.
        self._recovering = False
        self.protocol.stop()

    def close(self) -> None:
        """Release storage resources (LSM files, caches)."""
        self.state.close()
