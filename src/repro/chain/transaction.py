"""Transactions and receipts.

A blockchain transaction here matches the paper's definition — "a
sequence of operations applied on some states" — encoded as a contract
invocation: target contract, function name, arguments, and an optional
money transfer. Every transaction is signed by its sender; platforms
charge CPU for signature work where their real counterparts do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..crypto.hashing import hash_items

if TYPE_CHECKING:  # pragma: no cover
    from ..crypto.signatures import Signature


def _encode_args(args: tuple[Any, ...]) -> bytes:
    return repr(args).encode()


def _unsigned_size(sender: str, contract: str, function: str, args: bytes) -> int:
    # 110: fixed header (ids, nonce, value, framing).
    return 110 + len(sender) + len(contract) + len(function) + len(args)


@dataclass
class Transaction:
    """One signed state transition request."""

    tx_id: str
    sender: str
    contract: str
    function: str
    args: tuple[Any, ...]
    value: int = 0
    nonce: int = 0
    signature: Signature | None = None
    submitted_at: float = 0.0

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
        submitted_at: float = 0.0,
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
            submitted_at=submitted_at,
        )
        # The args are encoded once, for the id and for the wire size.
        tx._unsigned_size = _unsigned_size(
            sender, contract, function, encoded_args
        )
        return tx

    def signing_payload(self) -> bytes:
        """Bytes covered by the sender's signature."""
        return self.tx_id.encode()

    def encode(self) -> bytes:
        """Canonical encoding used for Merkle leaves."""
        return self.tx_id.encode()

    def size_bytes(self) -> int:
        """Approximate wire size (fields + signature).

        The unsigned part is computed once (by :meth:`create`, or here
        for a directly constructed object): ``tx_id`` is derived from
        those fields, so they never change.
        """
        try:
            unsigned = self._unsigned_size
        except AttributeError:
            unsigned = self._unsigned_size = _unsigned_size(
                self.sender, self.contract, self.function,
                _encode_args(self.args),
            )
        return unsigned + (self.signature.size_bytes() if self.signature else 0)

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


@dataclass
class TxStatus:
    """Client-side view of a submitted transaction's lifecycle."""

    tx: Transaction
    submitted_at: float
    confirmed_at: float | None = None
    receipt: Receipt | None = None

    @property
    def latency(self) -> float | None:
        if self.confirmed_at is None:
            return None
        return self.confirmed_at - self.submitted_at
