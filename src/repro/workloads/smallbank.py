"""Smallbank OLTP workload (macro benchmark, Section 3.4.1).

Preloads a population of customer accounts and issues the Smallbank
procedures with the standard mix. Transfers carry their amount in the
transaction's ``value`` field so the analytics queries can read money
flows off the chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..chain import Transaction
from ..contracts.base import encode_int
from ..errors import BenchmarkError
from ..core.workload import Workload, preload_state
from ..registry import register_workload
from ..util.names import IndexedNames

#: Standard Smallbank operation mix.
_OPERATIONS = (
    ("transact_savings", 0.15),
    ("deposit_checking", 0.15),
    ("send_payment", 0.25),
    ("write_check", 0.15),
    ("amalgamate", 0.15),
    ("balance", 0.15),
)


@dataclass
class SmallbankConfig:
    n_accounts: int = 1000
    initial_savings: int = 10_000
    initial_checking: int = 10_000
    #: Hotspot: fraction of ops hitting the first `hot_accounts`.
    hot_fraction: float = 0.25
    hot_accounts: int = 100
    #: Weight of the balance query (the mix's only read). None keeps
    #: the standard mix verbatim; when set, the five write procedures
    #: share the remaining weight in their standard ratios. Driven by
    #: the ``read_ratio`` spec field / scenario axis.
    read_fraction: float | None = None


@register_workload("smallbank", config_type=SmallbankConfig)
class SmallbankWorkload(Workload):
    """Banking transactions over account pairs (OLTP, Section 3.4.1)."""

    name = "smallbank"
    required_contracts = ("smallbank",)

    def __init__(self, config: SmallbankConfig | None = None) -> None:
        super().__init__()
        self.config = config or SmallbankConfig()
        self._accounts = IndexedNames("acct")
        read_fraction = self.config.read_fraction
        if read_fraction is None:
            # Standard mix, untouched: rescaling 0.15 through floats
            # would perturb the cumulative thresholds and change every
            # pinned transaction stream.
            self._operations = _OPERATIONS
        else:
            if not 0.0 <= read_fraction <= 1.0:
                raise BenchmarkError(
                    f"read_fraction must be in [0, 1], got {read_fraction}"
                )
            write_weight = sum(
                weight for name, weight in _OPERATIONS if name != "balance"
            )
            scale = (1.0 - read_fraction) / write_weight
            self._operations = tuple(
                (name, read_fraction if name == "balance" else weight * scale)
                for name, weight in _OPERATIONS
            )

    @classmethod
    def read_ratio_params(cls, ratio: float) -> dict:
        """``read_ratio`` maps onto the balance-query weight."""
        return {"read_fraction": ratio}

    def preload(self, cluster) -> None:
        cfg = self.config
        n_accounts = cfg.n_accounts
        savings = encode_int(cfg.initial_savings)
        checking = encode_int(cfg.initial_checking)

        def records():
            for i in range(n_accounts):
                customer = f"acct{i}".encode()
                yield b"sav:" + customer, savings
                yield b"chk:" + customer, checking

        preload_state(cluster, "smallbank", records)

    def _account(self, rng: random.Random) -> str:
        cfg = self.config
        if rng.random() < cfg.hot_fraction:
            return self._accounts[
                rng.randrange(min(cfg.hot_accounts, cfg.n_accounts))
            ]
        return self._accounts[rng.randrange(cfg.n_accounts)]

    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        roll = rng.random()
        cumulative = 0.0
        operation = self._operations[-1][0]
        for name, weight in self._operations:
            cumulative += weight
            if roll < cumulative:
                operation = name
                break
        account = self._account(rng)
        amount = rng.randrange(1, 100)
        if operation == "send_payment":
            other = self._account(rng)
            while other == account:
                other = self._account(rng)
            args = (account, other, amount)
            value = amount
        elif operation == "amalgamate":
            other = self._account(rng)
            while other == account:
                other = self._account(rng)
            args = (account, other)
            value = 0
        elif operation == "balance":
            args = (account,)
            value = 0
        elif operation == "transact_savings":
            args = (account, amount)  # always a deposit: keeps runs revert-free
            value = amount
        else:  # deposit_checking / write_check
            args = (account, amount)
            value = amount
        return Transaction.create(
            sender=client_id,
            contract="smallbank",
            function=operation,
            args=args,
            value=value,
            nonce=self.next_nonce(),
            submitted_at=now,
        )
