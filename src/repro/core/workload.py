"""Workload connector interface (the paper's IWorkloadConnector).

"This interface essentially wraps the workload's operations into
transactions to be sent to the blockchain. Specifically, it has a
getNextTransaction method which returns a new blockchain transaction"
(Section 3.2). ``preload`` covers the store-population step the
benchmarks perform before measurement.

Also home to the **open-loop arrival machinery**: an
:class:`ArrivalSpec` describes an aggregate arrival process (Poisson or
uniform inter-arrival gaps, optionally Zipf-skewed over a population of
sender accounts) and :class:`ArrivalGenerator` turns it into a seeded,
deterministic stream of ``(gap_s, sender_id)`` pairs. Unlike the
closed-loop clients in ``core/driver.py`` — which wait for replies and
back off under pushback — an open-loop stream offers load at its
configured rate no matter how the system responds, which is the harness
shape BlockMeter-style "is the load generator the bottleneck?" studies
require.
"""

from __future__ import annotations

import itertools
import random
import typing
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..chain import Transaction
from ..config import check_value
from ..errors import BenchmarkError

if TYPE_CHECKING:  # pragma: no cover
    from ..platforms.cluster import Cluster

#: Supported inter-arrival processes.
ARRIVAL_PROCESSES = ("poisson", "uniform")


@dataclass
class ArrivalSpec:
    """Open-loop arrival process configuration.

    Scenario-JSON shape (the ``arrival`` axis)::

        {"process": "poisson", "rate": 5000, "accounts": 100000, "zipf_s": 1.1}

    ``rate`` is the *aggregate* offered load in tx/s across the whole
    population — there is no per-client rate because there are no
    per-client coroutines. ``zipf_s = 0`` picks senders uniformly;
    larger values skew traffic toward low-numbered accounts with
    Zipf exponent ``s`` (weight of account k is 1/(k+1)^s).
    """

    process: str = "poisson"
    rate_tx_s: float = 1000.0
    accounts: int = 1000
    zipf_s: float = 0.0

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise BenchmarkError(
                f"unknown arrival process {self.process!r}; "
                f"expected one of {ARRIVAL_PROCESSES}"
            )
        if self.rate_tx_s <= 0:
            raise BenchmarkError(
                f"arrival rate must be positive, got {self.rate_tx_s}"
            )
        if self.accounts < 1:
            raise BenchmarkError(
                f"arrival accounts must be >= 1, got {self.accounts}"
            )
        if self.zipf_s < 0:
            raise BenchmarkError(
                f"zipf_s must be >= 0, got {self.zipf_s}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ArrivalSpec":
        """Build a spec from its JSON shape. Each value must fit its
        field's declared type; an error names it by path
        (``arrival.rate``)."""
        if not isinstance(data, dict):
            raise BenchmarkError(
                f"arrival must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - set(_ARRIVAL_KEYS)
        if unknown:
            raise BenchmarkError(
                f"unknown arrival key(s): {', '.join(sorted(unknown))}; "
                f"expected {', '.join(sorted(_ARRIVAL_KEYS))}"
            )
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for key, value in data.items():
            name = _ARRIVAL_KEYS[key]
            check_value(value, hints[name], f"arrival.{key}")
            kwargs[name] = hints[name](value)
        return cls(**kwargs)


#: Scenario-JSON key -> ArrivalSpec field.
_ARRIVAL_KEYS = {
    "process": "process",
    "rate": "rate_tx_s",
    "accounts": "accounts",
    "zipf_s": "zipf_s",
}


class ArrivalGenerator:
    """Seeded, deterministic ``(gap_s, sender_id)`` stream.

    All randomness comes from the injected ``rng`` (a named stream off
    the cluster's RngRegistry), so the same seed replays the same
    arrival timeline across process restarts — pinned by
    ``tests/core/test_arrivals.py``. Zipf sender selection is an O(log
    accounts) bisect over precomputed cumulative weights; the weight
    table is built once per generator, not per draw.
    """

    def __init__(self, spec: ArrivalSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        # Cumulative sender weights as packed doubles: 8 bytes an
        # account instead of a float object each.
        self._cumulative: array | None = None
        if spec.zipf_s > 0:
            s = spec.zipf_s
            self._cumulative = array(
                "d", accumulate(1.0 / (k + 1) ** s for k in range(spec.accounts))
            )

    def next_gap(self) -> float:
        """Simulated seconds until the next arrival."""
        if self.spec.process == "poisson":
            return self.rng.expovariate(self.spec.rate_tx_s)
        return 1.0 / self.spec.rate_tx_s

    def next_sender(self) -> int:
        """Account index of the next arrival's sender."""
        cumulative = self._cumulative
        if cumulative is None:
            return self.rng.randrange(self.spec.accounts)
        u = self.rng.random() * cumulative[-1]
        index = bisect_left(cumulative, u)
        return min(index, self.spec.accounts - 1)

    def __next__(self) -> tuple[float, int]:
        # Gap first, sender second: the draw order is part of the
        # pinned deterministic stream — do not reorder.
        return self.next_gap(), self.next_sender()

    def __iter__(self) -> Iterator[tuple[float, int]]:
        return self

    def take(self, n: int) -> list[tuple[float, int]]:
        """The next ``n`` arrivals as a list (bulk-scheduling helper)."""
        return [next(self) for _ in range(n)]


class Workload(ABC):
    """Generates the transaction stream for one benchmark."""

    #: Registry/driver name, e.g. "ycsb".
    name: str = ""
    #: Contract(s) this workload requires deployed.
    required_contracts: tuple[str, ...] = ()

    def __init__(self) -> None:
        # Each instance numbers its own transactions from 0, so a run's
        # tx ids (and geth's gossip targets, picked from them) depend on
        # nothing outside the run.
        self._nonces = itertools.count()

    def next_nonce(self) -> int:
        """Nonce for this workload's next transaction: 0, 1, 2, ..."""
        return next(self._nonces)

    def preload(self, cluster: "Cluster") -> None:
        """Populate state before measurement begins.

        Preloading writes directly into every node's state (bypassing
        consensus), mirroring how the paper populates stores before the
        measured window. A workload hands :func:`preload_state` a
        deterministic record source rather than the records, so the
        nodes keep the source as their genesis and no copy of the data
        outlives set-up.
        """

    @classmethod
    def read_ratio_params(cls, ratio: float) -> dict:
        """Config kwargs realizing a ``ratio`` fraction of reads.

        The ``read_ratio`` spec field / scenario axis calls this to
        translate one portable knob into the workload's native mix
        parameters. Workloads with a fixed operation mix (the Table 1
        contract drivers) don't override it and refuse the knob.
        """
        raise BenchmarkError(
            f"workload {cls.name!r} has a fixed operation mix and does "
            f"not support read_ratio"
        )

    @abstractmethod
    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        """The next transaction for ``client_id`` (getNextTransaction),
        numbered with :meth:`next_nonce`."""


def preload_state(
    cluster: "Cluster",
    contract: str,
    records: Callable[[], Iterable[tuple[bytes, bytes]]],
) -> int:
    """Helper: write (key, value) byte pairs into a contract's namespace
    on every node. Returns the number of records written per node.

    ``records`` is the deterministic record source: a zero-argument
    callable yielding the same pairs on every call. They become one
    sorted net write-set (a repeated key keeps its last value), built
    once and sealed on every node through
    ``PlatformNode.bootstrap_apply`` / ``bootstrap_commit``, which
    commit that tuple as it is: no replica copies it into its overlay
    (Parity alone puts it through its overlay, charging its cap). The
    nodes keep only the recipe: cold crash-recovery wipes the state
    store and re-derives these consensus-bypassing records from it
    before chain replay, so the write-set dies once the last replica
    has installed its commit.
    """
    prefix = contract.encode() + b"/"

    def genesis():
        return tuple(
            sorted({prefix + key: value for key, value in records()}.items())
        )

    write_set = genesis()
    for node in cluster.nodes:
        node.bootstrap_apply(write_set, genesis)
        node.bootstrap_commit()
    return len(write_set)
