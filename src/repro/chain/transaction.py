"""Transactions and receipts.

A blockchain transaction here matches the paper's definition — "a
sequence of operations applied on some states" — encoded as a contract
invocation: target contract, function name, arguments, and an optional
money transfer. Signing and verification are priced, not performed:
platforms charge CPU where their real counterparts do, through
``ParityConfig.signing_cost_s`` (server-side signing),
``ExecutionCosts.verify_cost_s`` and ``tx_ingress_cost_s`` (checks on
block validation and on admission) and ``PoAConfig.seal_cost_s`` (the
block seal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..crypto.hashing import hash_items


def _encode_args(args: tuple[Any, ...]) -> bytes:
    return repr(args).encode()


def _wire_size(sender: str, contract: str, function: str, args: bytes) -> int:
    # 110: fixed header (ids, nonce, value, framing).
    return 110 + len(sender) + len(contract) + len(function) + len(args)


@dataclass
class Transaction:
    """One state transition request."""

    tx_id: str
    sender: str
    contract: str
    function: str
    args: tuple[Any, ...]
    value: int = 0
    nonce: int = 0

    @classmethod
    def create(
        cls,
        sender: str,
        contract: str,
        function: str,
        args: tuple[Any, ...] = (),
        value: int = 0,
        *,
        nonce: int,
    ) -> "Transaction":
        """Build a transaction with a content-derived id. The caller
        numbers its transactions (a workload draws ``nonce`` from its
        own counter), so two identical calls get one id."""
        encoded_args = _encode_args(args)
        digest = hash_items(
            sender.encode(),
            contract.encode(),
            function.encode(),
            encoded_args,
            value.to_bytes(16, "big", signed=True),
            nonce.to_bytes(16, "big"),
        )
        tx = cls(
            tx_id=digest.hex(),
            sender=sender,
            contract=contract,
            function=function,
            args=args,
            value=value,
            nonce=nonce,
        )
        # The args are encoded once, for the id and for the wire size.
        tx._size = _wire_size(sender, contract, function, encoded_args)
        return tx

    def encode(self) -> bytes:
        """Canonical encoding used for Merkle leaves."""
        return self.tx_id.encode()

    def size_bytes(self) -> int:
        """Approximate wire size of the fields.

        Computed once (by :meth:`create`, or here for a directly
        constructed object): ``tx_id`` is derived from those fields, so
        they never change.
        """
        try:
            return self._size
        except AttributeError:
            self._size = _wire_size(
                self.sender, self.contract, self.function,
                _encode_args(self.args),
            )
            return self._size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tx {self.tx_id[:8]} {self.contract}.{self.function}>"


@dataclass(frozen=True, slots=True)
class Receipt:
    """Outcome of executing one transaction inside a committed block.

    A pure function of (pre-state, block), hence immutable: with the
    execution cache on, every replica's ``receipts`` map holds the first
    executor's objects.
    """

    tx_id: str
    block_height: int
    success: bool
    gas_used: int = 0
    output: Any = None
    error: str = ""
