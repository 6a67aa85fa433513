"""Exception hierarchy for the repro package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type at the boundary. Subsystems define narrower
classes here rather than ad-hoc ``ValueError`` instances so that failure
modes are part of the public API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly."""


class NetworkError(SimulationError):
    """A message could not be routed (unknown node, invalid link)."""


class StorageError(ReproError):
    """Base class for storage-engine failures."""


class CorruptionError(StorageError):
    """An on-disk structure failed its checksum or framing check."""


class ChainError(ReproError):
    """Invalid block, transaction, or chain operation."""


class InvalidBlock(ChainError):
    """A block failed validation (bad parent, bad roots)."""


class ExecutionError(ReproError):
    """Base class for smart-contract execution failures."""


class OutOfGas(ExecutionError):
    """Execution exceeded its gas allowance; state changes are reverted."""


class OutOfMemory(ExecutionError):
    """Modeled memory use exceeded the node's memory cap (paper's 'X')."""


class ContractRevert(ExecutionError):
    """The contract aborted explicitly; state changes are reverted."""


class AssemblerError(ExecutionError):
    """The EVM assembler rejected a source program."""


class BenchmarkError(ReproError):
    """A benchmark harness was misconfigured."""


class ConnectorError(ReproError):
    """A blockchain connector operation failed."""
