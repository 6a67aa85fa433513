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

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Any

from ..crypto.hashing import hash_items


def _encode_args(args: tuple[Any, ...]) -> bytes:
    return repr(args).encode()


def _wire_size(sender: str, contract: str, function: str, args: bytes) -> int:
    # 110: fixed header (ids, nonce, value, framing).
    return 110 + len(sender) + len(contract) + len(function) + len(args)


@dataclass(slots=True)
class Transaction:
    """One state transition request.

    Every confirmed transaction stays alive until the run's report, so
    the object keeps only what a later reader needs: slotted (no
    per-instance ``__dict__``), and without the nonce, which only
    :meth:`create` reads, to make the id unique.
    """

    tx_id: str
    sender: str
    contract: str
    function: str
    args: tuple[Any, ...]
    value: int = 0
    #: Memoized wire size; 0 until measured (a size is never 0).
    _size: int = field(default=0, init=False, repr=False, compare=False)

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
        size = self._size
        if not size:
            size = self._size = _wire_size(
                self.sender, self.contract, self.function,
                _encode_args(self.args),
            )
        return size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tx {self.tx_id[:8]} {self.contract}.{self.function}>"


#: One transaction's execution outcome as the executor hands it to
#: :meth:`BlockReceipts.pack`: ``(gas_used, output, error)``, where
#: ``error`` is None exactly when the transaction succeeded.
Outcome = tuple[int, Any, "str | None"]


@dataclass(frozen=True, slots=True)
class BlockReceipts:
    """One block's receipts, stored as columns in block order.

    Every replica keeps the receipts of each block it executed until
    the report, so the record builds no object of its own per
    transaction: ``tx_ids`` is the block's own ``Block.tx_ids`` tuple
    (shared, not copied), ``gas_used`` an ``array('q')``, ``success``
    one 0/1 byte per transaction, and ``errors`` maps the index of each
    failed transaction to its message. The contracts' return values
    are kept as ``outputs_digest``, a 32-byte commitment to them (see
    :meth:`pack`), the way a real chain commits a block's receipts
    under one root: the driver confirms a transaction from its block's
    ids and never reads what the contract returned. Through the
    cluster's execution cache every replica files the first executor's
    record. Readers read the columns: the ``i``-th transaction's
    outcome is ``gas_used[i]``, ``success[i] == 1`` and
    ``errors.get(i, "")``.
    """

    tx_ids: tuple[str, ...]
    height: int
    gas_used: array
    success: bytes
    outputs_digest: bytes
    errors: dict[int, str]

    @classmethod
    def pack(
        cls, tx_ids: tuple[str, ...], height: int, outcomes: list[Outcome]
    ) -> "BlockReceipts":
        """The record of ``outcomes``, one per transaction of ``tx_ids``.

        ``outputs_digest`` is the SHA-256 of ``repr`` of the tuple of
        outputs in block order: outputs are ``str``, ``int``, ``bool``,
        ``None`` or JSON-decoded dicts and lists (floats among them),
        whose ``repr`` is the same in every process, so equal outputs
        give equal digests and one changed output changes it.
        ``hashlib`` is called directly, as the bucket tree's leaf
        digests are, so the commitment adds no counted
        ``crypto.hashing`` call.
        """
        gas_used, outputs, errors = zip(*outcomes) if outcomes else ((), (), ())
        return cls(
            tx_ids,
            height,
            array("q", gas_used),
            bytes([error is None for error in errors]),
            hashlib.sha256(repr(outputs).encode()).digest(),
            {i: error for i, error in enumerate(errors) if error is not None},
        )

    def __len__(self) -> int:
        return len(self.tx_ids)
