"""Key-value store interfaces.

Blockchain platforms in the paper persist state through an embedded
key-value store — LevelDB for Ethereum, RocksDB for Hyperledger, and
plain process memory for Parity (Section 3.1.2). This module defines
the store contract those platforms program against plus the in-memory
implementation Parity uses.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from ..errors import StorageError


class KVStore(ABC):
    """Abstract ordered key-value store."""

    @abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Value for ``key`` or None when absent."""

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""

    @abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove ``key`` if present (no error when absent)."""

    @abstractmethod
    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        """All live pairs whose key starts with ``prefix``, key-ordered."""

    @abstractmethod
    def approx_bytes(self) -> int:
        """Approximate bytes of live data (memory or disk footprint)."""

    def close(self) -> None:
        """Release resources; further use is undefined."""

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None


class MemKVStore(KVStore):
    """Dict-backed store with byte accounting and an optional cap.

    The cap models process-memory exhaustion: Parity "holds all the
    state information in memory ... but fails to handle large data"
    (Section 4.2.2, Figure 12's OOM cells). Exceeding the cap raises
    :class:`StorageError` tagged as out-of-memory. An entry is charged
    ``len(key) + value_bytes(value)``.
    """

    #: The bytes a value is charged as. A store whose values are kept
    #: in a compact form overrides it with the size they stand for.
    value_bytes = staticmethod(len)

    def __init__(self, memory_cap_bytes: int | None = None) -> None:
        self._data: dict[bytes, bytes] = {}
        self._bytes = 0
        self.memory_cap_bytes = memory_cap_bytes
        self.write_ops = 0
        self.read_ops = 0

    def get(self, key: bytes) -> bytes | None:
        self.read_ops += 1
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.write_ops += 1
        old = self._data.get(key)
        if old is not None:
            self._bytes -= len(key) + self.value_bytes(old)
        self._data[key] = value
        self._bytes += len(key) + self.value_bytes(value)
        if self.memory_cap_bytes is not None and self._bytes > self.memory_cap_bytes:
            raise StorageError(
                f"out of memory: {self._bytes} bytes exceeds cap "
                f"{self.memory_cap_bytes} (Parity-style in-memory state)"
            )

    def delete(self, key: bytes) -> None:
        self.write_ops += 1
        old = self._data.pop(key, None)
        if old is not None:
            self._bytes -= len(key) + self.value_bytes(old)

    def scan(self, prefix: bytes = b"") -> Iterator[tuple[bytes, bytes]]:
        for key in sorted(self._data):
            if key.startswith(prefix):
                yield key, self._data[key]

    def approx_bytes(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._data)
