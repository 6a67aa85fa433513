"""Real Ethereum contract workloads: EtherId, Doubler, WavesPresale.

The three "real workloads found in the Ethereum blockchain" of
Section 3.4.1, driven with realistic operation mixes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from ..chain import Transaction
from ..contracts.base import encode_int
from ..core.workload import Workload, preload_state
from ..registry import register_workload


@dataclass
class EtherIdConfig:
    n_users: int = 100
    n_seed_domains: int = 200
    initial_balance: int = 1_000_000


@register_workload("etherid", config_type=EtherIdConfig)
class EtherIdWorkload(Workload):
    """Domain registrations, updates, and paid transfers."""

    name = "etherid"
    required_contracts = ("etherid",)

    def __init__(self, config: EtherIdConfig | None = None) -> None:
        super().__init__()
        self.config = config or EtherIdConfig()
        self._domain_counter = self.config.n_seed_domains

    def preload(self, cluster) -> None:
        cfg = self.config
        n_users, n_domains = cfg.n_users, cfg.n_seed_domains
        balance = encode_int(cfg.initial_balance)

        def records():
            for i in range(n_users):
                yield f"balance:user{i}".encode(), balance
            for i in range(n_domains):
                record = {"owner": f"user{i % n_users}", "value": "", "price": 50}
                yield f"domain:seed{i}.eth".encode(), json.dumps(record).encode()

        preload_state(cluster, "etherid", records)

    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        cfg = self.config
        user = f"user{rng.randrange(cfg.n_users)}"
        roll = rng.random()
        if roll < 0.40:  # register a fresh domain
            domain = f"new{self._domain_counter}.eth"
            self._domain_counter += 1
            function, args = "register", (domain, "", 50)
        elif roll < 0.65:  # modify a seed domain we own
            index = rng.randrange(cfg.n_seed_domains)
            user = f"user{index % cfg.n_users}"  # the preloaded owner
            function, args = "set_value", (f"seed{index}.eth", f"v{now:.0f}")
        elif roll < 0.90:  # buy a seed domain
            index = rng.randrange(cfg.n_seed_domains)
            function, args = "buy", (f"seed{index}.eth",)
        else:  # lookup
            index = rng.randrange(cfg.n_seed_domains)
            function, args = "lookup", (f"seed{index}.eth",)
        return Transaction.create(
            sender=user,
            contract="etherid",
            function=function,
            args=args,
            nonce=self.next_nonce(),
            submitted_at=now,
        )


@register_workload("doubler")
class DoublerWorkload(Workload):
    """Pyramid-scheme entries (Figure 2's contract under load)."""

    name = "doubler"
    required_contracts = ("doubler",)

    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        return Transaction.create(
            sender=f"{client_id}-p{rng.randrange(10_000)}",
            contract="doubler",
            function="enter",
            args=(),
            value=rng.randrange(10, 1000),
            nonce=self.next_nonce(),
            submitted_at=now,
        )


@register_workload("wavespresale")
class WavesPresaleWorkload(Workload):
    """Token sales with occasional transfers and lookups."""

    name = "wavespresale"
    required_contracts = ("wavespresale",)

    def __init__(self) -> None:
        super().__init__()
        self._sales: list[tuple[int, str]] = []  # (sale_id, owner)
        self._next_sale_id = 0

    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        roll = rng.random()
        if roll < 0.6 or not self._sales:
            sale_id = self._next_sale_id
            self._next_sale_id += 1
            owner = f"{client_id}-buyer{sale_id}"
            self._sales.append((sale_id, owner))
            return Transaction.create(
                sender=owner,
                contract="wavespresale",
                function="new_sale",
                args=(rng.randrange(1, 10_000),),
                nonce=self.next_nonce(),
                submitted_at=now,
            )
        if roll < 0.8:
            index = rng.randrange(len(self._sales))
            sale_id, owner = self._sales[index]
            new_owner = f"{client_id}-buyer{self._next_sale_id}x"
            self._sales[index] = (sale_id, new_owner)
            return Transaction.create(
                sender=owner,
                contract="wavespresale",
                function="transfer_sale",
                args=(sale_id, new_owner),
                nonce=self.next_nonce(),
                submitted_at=now,
            )
        sale_id, _ = self._sales[rng.randrange(len(self._sales))]
        return Transaction.create(
            sender=client_id,
            contract="wavespresale",
            function="get_sale",
            args=(sale_id,),
            nonce=self.next_nonce(),
            submitted_at=now,
        )


@register_workload("donothing")
class DoNothingWorkload(Workload):
    """Consensus-layer microbenchmark: empty transactions (Section 3.4.2)."""

    name = "donothing"
    required_contracts = ("donothing",)

    def next_transaction(
        self, client_id: str, rng: random.Random, now: float
    ) -> Transaction:
        return Transaction.create(
            sender=client_id,
            contract="donothing",
            function="nop",
            args=(),
            nonce=self.next_nonce(),
            submitted_at=now,
        )
