"""Chain safety auditor: cross-replica invariants, checked per commit.

BLOCKBENCH's security metric (Section 4.1.3) asks whether a blockchain
keeps its safety guarantees under attack. Throughput and latency are
visible in the stats pipeline; a *safety* failure — two honest replicas
finalizing different blocks at the same height — is not, unless
something watches every replica's commits. :class:`ChainAuditor` is
that watcher: always on, subscribed to every node's block execution,
and independent of the protocols it audits.

Invariants, each checked the moment an honest replica commits a block:

- **agreement** — no two honest replicas commit different blocks at the
  same height (fork detection). Honest = never byzantine per
  ``Network.ever_byzantine``; what a liar's local chain says proves
  nothing about the protocol.
- **digest integrity** — no committed block carries a forged
  (``garbage``) digest marker: honest verification should have rejected
  it before commit.
- **monotonicity** — each replica's finalized height only grows; a
  replica re-finalizing a height it already executed would unwind
  settled state.
- **convergence** — every replica that crashed and recovered ends the
  run on the honest prefix: at each height where honest replicas agree
  on one block, the recovered node's chain must carry that block.

Violations carry the height, the replicas involved, and the byzantine
fault context active at detection time, and surface as a count in
``StatsSummary``/``SuiteResult`` next to throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..chain.block import Block
from ..consensus.base import BYZ_META_KEY

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import Network

__all__ = ["AuditReport", "ChainAuditor", "SafetyViolation"]


@dataclass
class SafetyViolation:
    """One observed breach of a chain safety invariant."""

    kind: str  #: "fork" | "garbage_digest" | "height_regression" | "divergence"
    height: int
    nodes: list[str]
    detail: str
    at_time: float
    #: Byzantine behaviors active when the violation was detected.
    fault_context: str = ""

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "height": self.height,
            "nodes": self.nodes,
            "detail": self.detail,
            "at_time": self.at_time,
            "fault_context": self.fault_context,
        }


@dataclass
class AuditReport:
    """The auditor's verdict for one finished run."""

    commits_checked: int
    honest_nodes: int
    byzantine_nodes: list[str]
    violations: list[SafetyViolation] = field(default_factory=list)
    #: Replicas that crashed and completed recovery during the run.
    recovered_nodes: list[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        out = {
            "safe": self.safe,
            "commits_checked": self.commits_checked,
            "honest_nodes": self.honest_nodes,
            "byzantine_nodes": self.byzantine_nodes,
            "violations": [v.to_json() for v in self.violations],
        }
        if self.recovered_nodes:
            out["recovered_nodes"] = self.recovered_nodes
        return out


class ChainAuditor:
    """Subscribes to every replica's commits; flags safety breaches."""

    def __init__(self, network: "Network") -> None:
        self.network = network
        self.violations: list[SafetyViolation] = []
        self.commits_checked = 0
        #: height -> block hash -> its honest committers, as a bitmask
        #: of their ``_bits``.
        self._commits: dict[int, dict[bytes, int]] = {}
        #: honest node id -> its bit, in first-commit order.
        self._bits: dict[str, int] = {}
        self._executed_height: dict[str, int] = {}
        self._flagged_forks: set[tuple[int, bytes, bytes]] = set()
        self._active_faults: list[str] = []
        #: node id -> (synced height, sim time) of last finished recovery.
        self._recovered: dict[str, tuple[int, float]] = {}
        self._flagged_divergence: set[tuple[str, int]] = set()

    # -- fault context ---------------------------------------------------
    def fault_started(self, label: str) -> None:
        """A byzantine window opened (called by ``FaultSchedule``)."""
        self._active_faults.append(label)

    def fault_ended(self, label: str) -> None:
        """A byzantine window closed."""
        if label in self._active_faults:
            self._active_faults.remove(label)

    def _context(self) -> str:
        return ", ".join(self._active_faults)

    # -- crash recovery --------------------------------------------------
    def node_recovering(self, node_id: str, cold: bool) -> None:
        """A crashed replica is restarting (called by the platform layer).

        Cold recovery wipes execution state and replays the chain from
        genesis; those re-executions are replay, not re-finalization, so
        the monotonicity baseline resets with the state.
        """
        if cold:
            self._executed_height[node_id] = 0

    def node_recovered(self, node_id: str, height: int, at_time: float) -> None:
        """A recovering replica finished catch-up at ``height``."""
        self._recovered[node_id] = (height, at_time)

    # -- commit stream ---------------------------------------------------
    def record_commit(self, node_id: str, block: Block, at_time: float) -> None:
        """One replica finalized (executed) ``block``; check invariants."""
        self.commits_checked += 1
        prev = self._executed_height.get(node_id, 0)
        if block.height <= prev:
            self._flag(
                "height_regression",
                block.height,
                [node_id],
                f"{node_id} re-finalized height {block.height} after "
                f"reaching {prev}",
                at_time,
            )
        else:
            self._executed_height[node_id] = block.height
        if node_id in self.network.ever_byzantine:
            # A liar's own chain proves nothing; only honest commits
            # enter the agreement record.
            return
        if block.header.meta(BYZ_META_KEY, "").startswith("garbage"):
            self._flag(
                "garbage_digest",
                block.height,
                [node_id],
                f"{node_id} committed block {block.hash.hex()[:12]} whose "
                "digest fails verification",
                at_time,
            )
        bit = self._bits.get(node_id)
        if bit is None:
            bit = self._bits[node_id] = 1 << len(self._bits)
        by_hash = self._commits.setdefault(block.height, {})
        block_hash = block.hash
        by_hash[block_hash] = by_hash.get(block_hash, 0) | bit
        if len(by_hash) > 1:
            self._check_fork(block.height, by_hash, at_time)

    def _nodes(self, committers: int) -> list[str]:
        """The node ids in a committer bitmask, sorted."""
        return sorted(
            node_id for node_id, bit in self._bits.items() if committers & bit
        )

    def _check_fork(
        self, height: int, by_hash: dict[bytes, int], at_time: float
    ) -> None:
        hashes = sorted(by_hash)
        for i, first in enumerate(hashes):
            for second in hashes[i + 1 :]:
                key = (height, first, second)
                if key in self._flagged_forks:
                    continue
                self._flagged_forks.add(key)
                self._flag(
                    "fork",
                    height,
                    self._nodes(by_hash[first] | by_hash[second]),
                    f"honest replicas disagree at height {height}: "
                    f"{self._nodes(by_hash[first])} committed "
                    f"{first.hex()[:12]}, {self._nodes(by_hash[second])} "
                    f"committed {second.hex()[:12]}",
                    at_time,
                )

    def _flag(
        self,
        kind: str,
        height: int,
        nodes: list[str],
        detail: str,
        at_time: float,
    ) -> None:
        self.violations.append(
            SafetyViolation(
                kind=kind,
                height=height,
                nodes=nodes,
                detail=detail,
                at_time=at_time,
                fault_context=self._context(),
            )
        )

    def _check_convergence(self) -> None:
        """Every recovered replica must end on the honest prefix.

        At each height where the honest agreement record holds exactly
        one block, a recovered node's chain carrying a *different* block
        there means catch-up left it on a divergent branch.
        """
        for node_id, (synced_height, recovered_at) in sorted(
            self._recovered.items()
        ):
            node = self.network.nodes.get(node_id)
            chain_fn = getattr(node, "chain", None)
            if chain_fn is None:
                continue
            chain = chain_fn()
            for height in sorted(self._commits):
                if height > chain.height:
                    continue
                by_hash = self._commits[height]
                if len(by_hash) != 1:
                    continue  # honest replicas themselves forked here
                (honest_hash,) = by_hash
                block = chain.block_by_height(height)
                if block is None or block.hash == honest_hash:
                    continue
                key = (node_id, height)
                if key in self._flagged_divergence:
                    continue
                self._flagged_divergence.add(key)
                self._flag(
                    "divergence",
                    height,
                    [node_id],
                    f"recovered node {node_id} (synced to height "
                    f"{synced_height}) carries {block.hash.hex()[:12]} at "
                    f"height {height}; honest replicas committed "
                    f"{honest_hash.hex()[:12]}",
                    at_time=recovered_at,
                )

    # -- verdict ---------------------------------------------------------
    def report(self) -> AuditReport:
        self._check_convergence()
        honest = {
            nid
            for nid in self.network.node_ids()
            if nid not in self.network.ever_byzantine
        }
        return AuditReport(
            commits_checked=self.commits_checked,
            honest_nodes=len(honest),
            byzantine_nodes=sorted(self.network.ever_byzantine),
            violations=list(self.violations),
            recovered_nodes=sorted(self._recovered),
        )
