"""Platform configuration and calibration constants.

Every absolute cost in the simulation lives here, in one place, so the
calibration is auditable. The constants were chosen so the three
platforms land near the paper's peak numbers at the reference setup
(8 servers, 8 clients, YCSB — Figure 5a):

============  =================  ==========================
platform      paper peak (tx/s)  dominant limit
============  =================  ==========================
Ethereum      284                ~2.5 s PoW interval x gasLimit-bounded blocks
Parity        45                 single signer at ~22 ms per transaction
Hyperledger   1273               ~0.75 ms of CPU per transaction across
                                 ingress + validation + execution stages
============  =================  ==========================

*Shapes* (scalability curves, collapse points, fork windows) emerge
from the protocol implementations; these constants only set scale.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .errors import BenchmarkError


# ---------------------------------------------------------------------------
# Consensus tuning (each protocol module re-exports its own)
# ---------------------------------------------------------------------------
_RANGES = {
    "> 0": lambda value: value > 0,
    ">= 0": lambda value: value >= 0,
    ">= 1": lambda value: value >= 1,
    "in [0, 1)": lambda value: 0 <= value < 1,
}


def _require(config, rule: str, *names: str) -> None:
    """Raise unless every named field of ``config`` is ``rule``; the
    message starts with the field name, so ``apply_overrides`` can put
    the knob's dotted path in front of it."""
    for name in names:
        value = getattr(config, name)
        if not _RANGES[rule](value):
            raise BenchmarkError(f"{name}: must be {rule}, got {value}")


@dataclass
class PBFTConfig:
    """Tuning for one PBFT network (Fabric v0.6 defaults)."""

    batch_size: int = 500
    #: How often the leader checks whether a batch is worth proposing.
    batch_interval: float = 0.25
    #: No-progress window before a replica starts a view change.
    view_timeout: float = 2.0
    #: Extra timeout per failed view-change attempt.
    view_timeout_backoff: float = 1.0
    #: Per-request watchdog (Fabric v0.6's request timeout): if the
    #: oldest pending request has waited longer than this, the replica
    #: suspects the primary and starts a view change — even when the
    #: primary is merely drowning. Under sustained overload every
    #: replica fires repeatedly, views diverge, and throughput
    #: collapses: the paper's >16-node failure mode (Section 4.1.2).
    request_timeout: float = 2.5

    def __post_init__(self) -> None:
        _require(self, ">= 1", "batch_size")
        _require(self, "> 0", "batch_interval", "view_timeout", "request_timeout")
        _require(self, ">= 0", "view_timeout_backoff")


@dataclass
class PoWConfig:
    """Tuning for a PoW network."""

    #: Network-wide mean seconds per block at the reference size.
    base_block_interval: float = 2.5
    #: Node count the base interval was tuned for (the paper used 8).
    reference_nodes: int = 8
    #: Super-linear difficulty growth: interval scales with
    #: ``(n / reference) ** difficulty_exponent`` for n > reference,
    #: reproducing "the difficulty level increases at higher rate than
    #: the number of nodes" (Section 4.1.2).
    difficulty_exponent: float = 1.45
    #: Retarget step per block (Ethereum uses bounded 1/2048 steps;
    #: we use a coarser step because our runs are minutes, not weeks).
    retarget_step: float = 0.05
    #: Blocks behind tip before a block counts as confirmed.
    confirmation_depth: int = 5
    #: Max transactions per block (the gasLimit analogue is enforced
    #: by the platform's assemble_block; this caps count outright).
    max_txs_per_block: int = 800
    #: CPU cores saturated by mining (Figure 16 shows 8).
    mining_cores: int = 8

    def __post_init__(self) -> None:
        _require(self, "> 0", "base_block_interval")
        _require(self, ">= 1", "reference_nodes")
        _require(self, ">= 0", "difficulty_exponent")
        _require(self, "in [0, 1)", "retarget_step")
        _require(self, ">= 0", "confirmation_depth")
        _require(self, ">= 1", "max_txs_per_block", "mining_cores")

    def network_interval(self, n_nodes: int) -> float:
        """Target network block interval for ``n_nodes`` miners."""
        if n_nodes <= self.reference_nodes:
            return self.base_block_interval
        scale = (n_nodes / self.reference_nodes) ** self.difficulty_exponent
        return self.base_block_interval * scale


@dataclass
class PoAConfig:
    """Tuning for an Aura-style authority round."""

    step_duration: float = 1.0
    confirmation_depth: int = 2
    max_txs_per_block: int = 1000
    #: CPU cost of sealing one block (header signature).
    seal_cost_s: float = 0.002

    def __post_init__(self) -> None:
        _require(self, "> 0", "step_duration")
        _require(self, ">= 0", "confirmation_depth")
        _require(self, ">= 1", "max_txs_per_block")
        _require(self, ">= 0", "seal_cost_s")


@dataclass
class TendermintConfig:
    """Tuning for one Tendermint network (ErisDB-style defaults)."""

    #: Transactions per proposed block (ErisDB's block_size analogue).
    max_txs_per_block: int = 500
    #: Cadence at which an idle validator checks for new work.
    tick_interval: float = 0.25
    #: Pacing between a commit and the next proposal (commit timeout).
    commit_interval: float = 0.25
    #: Base timeout of the propose step.
    propose_timeout: float = 1.5
    #: Timeout of the prevote step (waiting for +2/3 prevotes).
    prevote_timeout: float = 1.0
    #: Timeout of the precommit step (waiting for +2/3 precommits).
    precommit_timeout: float = 1.0
    #: Extra timeout added per failed round, keeping liveness under
    #: asynchrony (Tendermint's timeout increment).
    round_timeout_delta: float = 0.5

    def __post_init__(self) -> None:
        _require(self, ">= 1", "max_txs_per_block")
        _require(
            self, "> 0", "tick_interval", "commit_interval",
            "propose_timeout", "prevote_timeout", "precommit_timeout",
        )
        _require(self, ">= 0", "round_timeout_delta")


@dataclass(frozen=True)
class ExecutionCosts:
    """CPU-time model for one platform's execution engine."""

    #: Seconds of CPU per unit of gas when executing a transaction.
    seconds_per_gas: float
    #: Per-transaction signature verification when validating a block.
    verify_cost_s: float
    #: Cost of accepting one client submission (RPC deserialization,
    #: signature check, pool insert).
    tx_ingress_cost_s: float
    #: Cost of receiving one peer-gossiped transaction (already
    #: verified upstream; re-checked cheaply).
    tx_gossip_cost_s: float
    #: Sender-side cost of serializing one gossip copy to one peer
    #: (gRPC stream write). Charged (fan-out x this) at admission, so
    #: broadcasting to N-1 peers is O(N) work for the admitting server
    #: — the per-transaction cost that grows with cluster size.
    tx_broadcast_send_cost_s: float
    #: Base cost of handling one consensus control message.
    consensus_msg_cost_s: float
    #: Cost of serving one RPC request (excluding payload size effects).
    rpc_cost_s: float = 0.0002


@dataclass(frozen=True)
class PlatformConfig:
    """Everything needed to instantiate one platform node.

    Cross-replica execution memoization is not a setting: every cluster
    shares one :class:`~repro.platforms.base.ExecutionCache`, which
    changes no simulated quantity (see ``build_cluster``).
    """

    name: str
    execution: ExecutionCosts
    #: Bounded message channel; None = unbounded.
    inbox_capacity: int | None
    #: Gas budget per block (None = count-limited only).
    block_gas_limit: int | None
    #: In-memory state cap in bytes (Parity's OOM behaviour); None = off.
    memory_cap_bytes: int | None = None
    #: Modeled execution-engine workers for intra-block parallelism.
    #: 1 (default) is the historical serial path, byte-for-byte. >1
    #: executes each transaction against an isolated captured view,
    #: schedules by data-hazard dependency levels, and charges the
    #: W-worker makespan instead of the serial sum — state roots,
    #: receipts, and write-sets stay byte-identical to serial; only
    #: the simulated execution time shrinks. Overridable per scenario
    #: via ``{"exec_workers": 4}`` or the CLI's ``--exec-workers``.
    exec_workers: int = 1

    def __post_init__(self) -> None:
        if self.exec_workers < 1:
            raise BenchmarkError(
                f"exec_workers must be >= 1, got {self.exec_workers}"
            )


# ---------------------------------------------------------------------------
# Ethereum (geth v1.4.18)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EthereumConfig(PlatformConfig):
    pow: PoWConfig = field(default_factory=PoWConfig)


def ethereum_config(**overrides) -> EthereumConfig:
    """geth v1.4.18 private-testnet preset.

    Difficulty tuned for ~2.5 s blocks at 8 nodes (Section 4); the
    gasLimit bounds blocks at 769 YCSB transactions (20,000,000 //
    ``TX_GAS_ESTIMATE``), giving the ~284 tx/s peak.
    """
    defaults = dict(
        name="ethereum",
        execution=ExecutionCosts(
            seconds_per_gas=2.0e-8,
            verify_cost_s=0.0001,
            tx_ingress_cost_s=0.00015,
            tx_gossip_cost_s=0.00008,
            tx_broadcast_send_cost_s=0.0,
            consensus_msg_cost_s=0.0002,
        ),
        inbox_capacity=None,  # geth queues; latency grows instead of dropping
        block_gas_limit=20_000_000,
        pow=PoWConfig(
            base_block_interval=2.5,
            reference_nodes=8,
            difficulty_exponent=1.45,
            confirmation_depth=5,
            max_txs_per_block=800,
            mining_cores=8,
        ),
    )
    defaults.update(overrides)
    return EthereumConfig(**defaults)


# ---------------------------------------------------------------------------
# Parity v1.6.0
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ParityConfig(PlatformConfig):
    poa: PoAConfig = field(default_factory=PoAConfig)
    #: Single-threaded server-side signing cost per transaction — the
    #: paper's Parity bottleneck (Sections 4.1.1, 4.2.3).
    signing_cost_s: float = 0.022
    #: Bounded signing queue; overflow is rejected back to the client,
    #: which is why Parity's latency stays flat while its client queue
    #: grows (Figures 5, 6).
    signing_queue_capacity: int = 128
    #: Per-server intake throttle ("a maximum client request rate at
    #: around 80 tx/s", Section 4.1.1).
    intake_rate_tx_s: float = 80.0


def parity_config(**overrides) -> ParityConfig:
    defaults = dict(
        name="parity",
        execution=ExecutionCosts(
            seconds_per_gas=1.2e-8,
            verify_cost_s=0.00008,
            tx_ingress_cost_s=0.0001,
            tx_gossip_cost_s=0.00006,
            tx_broadcast_send_cost_s=0.0,
            consensus_msg_cost_s=0.00015,
        ),
        inbox_capacity=None,
        block_gas_limit=None,  # "gasLimit is not applicable to local transactions"
        poa=PoAConfig(
            step_duration=1.0,
            confirmation_depth=2,
            max_txs_per_block=1000,
        ),
    )
    defaults.update(overrides)
    return ParityConfig(**defaults)


# ---------------------------------------------------------------------------
# Hyperledger Fabric v0.6.0-preview
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HyperledgerConfig(PlatformConfig):
    pbft: PBFTConfig = field(default_factory=PBFTConfig)


def hyperledger_config(**overrides) -> HyperledgerConfig:
    """Fabric v0.6 preset: PBFT with batch size 500 and the bounded
    message channel whose overflow causes the >16-node collapse."""
    defaults = dict(
        name="hyperledger",
        execution=ExecutionCosts(
            seconds_per_gas=1.2e-8,
            verify_cost_s=0.0002,
            tx_ingress_cost_s=0.0003,
            tx_gossip_cost_s=0.00012,
            tx_broadcast_send_cost_s=0.0001,
            consensus_msg_cost_s=0.0002,
        ),
        inbox_capacity=650,  # the fatal bounded channel (Section 4.1.2)
        block_gas_limit=None,
        pbft=PBFTConfig(
            batch_size=500,
            batch_interval=0.25,
            view_timeout=2.5,
        ),
    )
    defaults.update(overrides)
    return HyperledgerConfig(**defaults)


# ---------------------------------------------------------------------------
# ErisDB (Monax / eris-db — the paper's "under development" backend)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ErisDBConfig(PlatformConfig):
    tendermint: TendermintConfig = field(default_factory=TendermintConfig)


def erisdb_config(**overrides) -> ErisDBConfig:
    """eris-db preset: Tendermint BFT consensus over an EVM engine.

    The paper never benchmarks ErisDB, so there is no peak to calibrate
    against; the costs are composed from the measured platforms. The
    consensus side is PBFT-class (two all-to-all vote phases priced
    like Hyperledger's control messages); the execution side is
    EVM-class (ErisDB runs Solidity bytecode, so per-gas and
    verification costs follow Ethereum's profile). The expectation the
    extension benchmark checks is therefore structural: ErisDB lands
    between Hyperledger (native execution) and Ethereum (PoW).
    """
    defaults = dict(
        name="erisdb",
        execution=ExecutionCosts(
            seconds_per_gas=2.0e-8,  # EVM, as on Ethereum
            verify_cost_s=0.0001,
            tx_ingress_cost_s=0.0002,
            tx_gossip_cost_s=0.0001,
            tx_broadcast_send_cost_s=0.0001,
            consensus_msg_cost_s=0.0002,
        ),
        # Tendermint's Go channels are bounded but generous; the PBFT
        # collapse ablation is where channel pressure is studied.
        inbox_capacity=4096,
        block_gas_limit=None,
        tendermint=TendermintConfig(
            max_txs_per_block=500,
            commit_interval=0.25,
        ),
    )
    defaults.update(overrides)
    return ErisDBConfig(**defaults)


def _fits(value, hint) -> bool:
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    if origin is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def check_value(value, hint, where: str) -> None:
    """Raise unless a JSON-decoded ``value`` fits the annotation ``hint``.

    Covers what the config and fault dataclasses declare: classes,
    ``X | None`` and ``list[X]``. An int fits ``float`` (JSON has one
    number type); a bool fits only ``bool``. ``where`` is the value's
    dotted path in the scenario file, e.g. ``overrides.pbft.batch_size``.
    """
    if not _fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        raise BenchmarkError(f"{where}: expected {name}, got {value!r}")


def apply_overrides(config, overrides: dict, path: str = "overrides"):
    """Apply a JSON-shaped override dict to a platform config dataclass.

    Scenario files tune platform knobs without Python code:
    ``{"pbft": {"batch_size": 250}}`` replaces one field of the nested
    consensus config, ``{"inbox_capacity": 1300}`` a top-level one. A
    dict value whose target field is itself a dataclass recurses, so
    any depth of the preset tree is addressable; everything else must
    fit the field's declared type (see :func:`check_value`). The input
    config is never mutated — presets are frozen dataclasses, so each
    override produces a fresh object via :func:`dataclasses.replace`.

    Unknown field names are an error listing the fields that exist:
    a silently ignored knob would make a sweep measure the default.
    Errors name the knob by its dotted ``path``, range checks in a
    config's ``__post_init__`` included.
    """
    if not overrides:
        return config
    if not is_dataclass(config) or isinstance(config, type):
        raise BenchmarkError(
            f"cannot apply overrides to {type(config).__name__!r}: "
            "platform config must be a dataclass instance"
        )
    known = {f.name for f in fields(config)}
    hints = typing.get_type_hints(type(config))
    changes = {}
    for key, value in overrides.items():
        where = f"{path}.{key}"
        if key not in known:
            raise BenchmarkError(
                f"{where}: unknown config field {key!r} for "
                f"{type(config).__name__}; available: {sorted(known)}"
            )
        current = getattr(config, key)
        if isinstance(value, dict) and is_dataclass(current) \
                and not isinstance(current, type):
            value = apply_overrides(current, value, where)
        else:
            check_value(value, hints[key], where)
        changes[key] = value
    try:
        return replace(config, **changes)
    except BenchmarkError as exc:
        raise BenchmarkError(f"{path}.{exc}") from None
