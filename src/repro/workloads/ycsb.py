"""YCSB workload (macro benchmark, Section 3.4.1).

"We implement a simple smart contract which functions as a key-value
storage. The WorkloadClient is based on the YCSB driver: it preloads
each store with a number of records, and supports requests with
different ratios of read and write operations."

Includes the standard YCSB request-distribution generators (uniform,
zipfian, latest).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from ..chain import Transaction
from ..errors import BenchmarkError
from ..core.workload import Workload, preload_state
from ..registry import register_workload
from ..util.names import IndexedNames

ZIPFIAN_CONSTANT = 0.99


class ZipfianGenerator:
    """Standard YCSB zipfian generator over [0, n)."""

    def __init__(self, n: int, theta: float = ZIPFIAN_CONSTANT) -> None:
        if n < 1:
            raise BenchmarkError("zipfian needs at least one item")
        self.n = n
        self.theta = theta
        self.zeta_n = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self.alpha = 1.0 / (1.0 - theta)
        zeta2 = sum(1.0 / (i ** theta) for i in range(1, 3))
        self.eta = (1 - (2.0 / n) ** (1 - theta)) / (1 - zeta2 / self.zeta_n)

    def next(self, rng: random.Random) -> int:
        u = rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1) ** self.alpha)


def _record_value(index: int, size: int) -> str:
    seed = hashlib.sha256(f"ycsb-{index}".encode()).hexdigest()
    return (seed * (size // len(seed) + 1))[:size]


@dataclass
class YCSBConfig:
    """Operation mix and data sizing (defaults: YCSB workload A)."""

    record_count: int = 1000
    value_size: int = 100
    read_proportion: float = 0.5
    update_proportion: float = 0.5
    insert_proportion: float = 0.0
    rmw_proportion: float = 0.0
    distribution: str = "zipfian"  # zipfian | uniform | latest

    def validate(self) -> None:
        total = (
            self.read_proportion
            + self.update_proportion
            + self.insert_proportion
            + self.rmw_proportion
        )
        if abs(total - 1.0) > 1e-9:
            raise BenchmarkError(f"YCSB proportions sum to {total}, expected 1.0")
        if self.distribution not in ("zipfian", "uniform", "latest"):
            raise BenchmarkError(f"unknown distribution {self.distribution!r}")


@register_workload("ycsb", config_type=YCSBConfig)
class YCSBWorkload(Workload):
    """Key-value operations against the kvstore contract."""

    name = "ycsb"
    required_contracts = ("kvstore",)

    def __init__(self, config: YCSBConfig | None = None) -> None:
        super().__init__()
        self.config = config or YCSBConfig()
        self.config.validate()
        self._zipf = ZipfianGenerator(self.config.record_count)
        self._insert_counter = self.config.record_count
        self._keys = IndexedNames("user")

    @classmethod
    def read_ratio_params(cls, ratio: float) -> dict:
        """``read_ratio`` maps onto the YCSB read/update proportions
        (the paper's "different ratios of read and write operations")."""
        return {"read_proportion": ratio, "update_proportion": 1.0 - ratio}

    def preload(self, cluster) -> None:
        count, size = self.config.record_count, self.config.value_size

        def records():
            for i in range(count):
                yield f"user{i}".encode(), _record_value(i, size).encode()

        preload_state(cluster, "kvstore", records)

    def _choose_key(self, rng: random.Random) -> str:
        cfg = self.config
        if cfg.distribution == "uniform":
            index = rng.randrange(cfg.record_count)
        elif cfg.distribution == "latest":
            index = max(0, self._insert_counter - 1 - self._zipf.next(rng))
        else:
            index = self._zipf.next(rng)
        return self._keys[min(index, cfg.record_count - 1)]

    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        cfg = self.config
        roll = rng.random()
        if roll < cfg.read_proportion:
            function, args = "read", (self._choose_key(rng),)
        elif roll < cfg.read_proportion + cfg.update_proportion:
            function, args = "write", (
                self._choose_key(rng),
                _record_value(rng.randrange(1 << 30), cfg.value_size),
            )
        elif roll < (
            cfg.read_proportion + cfg.update_proportion + cfg.insert_proportion
        ):
            key = f"user{self._insert_counter}"
            self._insert_counter += 1
            function, args = "write", (
                key,
                _record_value(self._insert_counter, cfg.value_size),
            )
        else:
            function, args = "read_modify_write", (
                self._choose_key(rng),
                _record_value(rng.randrange(1 << 30), cfg.value_size),
            )
        return Transaction.create(
            sender=client_id,
            contract="kvstore",
            function=function,
            args=args,
            nonce=self.next_nonce(),
        )
