"""Immutable sorted string tables (SSTables).

Each table holds a sorted run of records with an embedded Bloom filter
and a sparse index. Point lookups do: bloom check -> binary search of
the sparse index -> short forward scan; so a miss usually costs zero
disk reads and a hit costs one seek.

Layout::

    MAGIC "SST1"
    u32 bloom_len   | bloom blob
    u32 index_len   | index entries: (u16 key_len, key, u64 offset)*
    u64 record_count
    data records: (u32 key_len, u32 value_len, key, value)*
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from pathlib import Path
from typing import Iterator

from ...errors import CorruptionError
from .bloom import BloomFilter

_MAGIC = b"SST1"
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_RECORD = struct.Struct(">II")

#: Every Nth record lands in the sparse index.
INDEX_INTERVAL = 16


def write_sstable(
    path: Path,
    records: Iterator[tuple[bytes, bytes]],
    bits_per_key: int = 10,
) -> "SSTableReader":
    """Materialize sorted ``records`` (tombstones included) at ``path``."""
    items = list(records)
    bloom = BloomFilter.for_capacity(max(1, len(items)), bits_per_key)
    index_entries: list[tuple[bytes, int]] = []
    data = bytearray()
    for position, (key, value) in enumerate(items):
        bloom.add(key)
        if position % INDEX_INTERVAL == 0:
            index_entries.append((key, len(data)))
        data += _RECORD.pack(len(key), len(value))
        data += key
        data += value
    bloom_blob = bloom.to_bytes()
    index_blob = bytearray()
    for key, offset in index_entries:
        index_blob += _U16.pack(len(key))
        index_blob += key
        index_blob += _U64.pack(offset)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(_U32.pack(len(bloom_blob)))
        f.write(bloom_blob)
        f.write(_U32.pack(len(index_blob)))
        f.write(index_blob)
        f.write(_U64.pack(len(items)))
        f.write(data)
    return SSTableReader(path)


class SSTableReader:
    """Read handle over one SSTable file."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as f:
            if f.read(4) != _MAGIC:
                raise CorruptionError(f"{self.path.name}: bad SSTable magic")
            (bloom_len,) = _U32.unpack(f.read(4))
            self.bloom = BloomFilter.from_bytes(f.read(bloom_len))
            (index_len,) = _U32.unpack(f.read(4))
            index_blob = f.read(index_len)
            (self.record_count,) = _U64.unpack(f.read(8))
            self._data_start = f.tell()
        self._index_keys: list[bytes] = []
        self._index_offsets: list[int] = []
        offset = 0
        while offset < len(index_blob):
            (key_len,) = _U16.unpack_from(index_blob, offset)
            offset += 2
            self._index_keys.append(index_blob[offset : offset + key_len])
            offset += key_len
            (data_offset,) = _U64.unpack_from(index_blob, offset)
            offset += 8
            self._index_offsets.append(data_offset)
        self.file_size = self.path.stat().st_size
        self.min_key = self._index_keys[0] if self._index_keys else None
        self.max_key = self._last_key() if self._index_keys else None

    def _last_key(self) -> bytes:
        last = None
        for key, _ in self._iter_from(self._index_offsets[-1]):
            last = key
        assert last is not None
        return last

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> bytes | None:
        """Raw lookup; returns the tombstone sentinel for deletions."""
        if not self._index_keys or not self.bloom.may_contain(key):
            return None
        if self.min_key is not None and key < self.min_key:
            return None
        slot = bisect_right(self._index_keys, key) - 1
        if slot < 0:
            return None
        for candidate, value in self._iter_from(self._index_offsets[slot]):
            if candidate == key:
                return value
            if candidate > key:
                return None
        return None

    def may_contain_range(self, key: bytes) -> bool:
        """Key-range check used to skip tables during level lookups."""
        if self.min_key is None or self.max_key is None:
            return False
        return self.min_key <= key <= self.max_key

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def _iter_from(self, data_offset: int) -> Iterator[tuple[bytes, bytes]]:
        with open(self.path, "rb") as f:
            f.seek(self._data_start + data_offset)
            while True:
                header = f.read(_RECORD.size)
                if len(header) < _RECORD.size:
                    return
                key_len, value_len = _RECORD.unpack(header)
                key = f.read(key_len)
                value = f.read(value_len)
                if len(key) < key_len or len(value) < value_len:
                    raise CorruptionError(f"{self.path.name}: truncated record")
                yield key, value

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All records in key order, tombstones included."""
        yield from self._iter_from(0)

    def delete_file(self) -> None:
        self.path.unlink(missing_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SSTable {self.path.name} n={self.record_count} "
            f"bytes={self.file_size}>"
        )
