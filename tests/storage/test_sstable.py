"""Unit tests for SSTable read/write."""

import pytest

from repro.errors import CorruptionError
from repro.storage import SSTableReader, write_sstable
from repro.storage.lsm.memtable import TOMBSTONE


def make_table(tmp_path, items, name="t.sst"):
    return write_sstable(tmp_path / name, iter(items))


def test_roundtrip_all_records(tmp_path):
    items = [(f"key-{i:04d}".encode(), f"val-{i}".encode()) for i in range(100)]
    table = make_table(tmp_path, items)
    assert list(table.items()) == items
    assert table.record_count == 100


def test_point_lookups(tmp_path):
    items = [(f"key-{i:04d}".encode(), str(i).encode()) for i in range(257)]
    table = make_table(tmp_path, items)
    for key, value in items:
        assert table.get(key) == value


def test_missing_keys_return_none(tmp_path):
    items = [(f"key-{i:04d}".encode(), b"v") for i in range(64)]
    table = make_table(tmp_path, items)
    assert table.get(b"absent") is None
    assert table.get(b"key-9999") is None
    assert table.get(b"aaa") is None  # below min key


def test_min_max_keys(tmp_path):
    items = [(b"banana", b"1"), (b"cherry", b"2"), (b"date", b"3")]
    table = make_table(tmp_path, items)
    assert table.min_key == b"banana"
    assert table.max_key == b"date"
    assert table.may_contain_range(b"coconut")
    assert not table.may_contain_range(b"apple")
    assert not table.may_contain_range(b"elderberry")


def test_reopen_from_disk(tmp_path):
    items = [(f"k{i:03d}".encode(), b"v") for i in range(40)]
    original = make_table(tmp_path, items)
    reopened = SSTableReader(original.path)
    assert list(reopened.items()) == items
    assert reopened.get(b"k020") == b"v"


def test_tombstones_visible_raw(tmp_path):
    items = [(b"a", b"1"), (b"b", TOMBSTONE), (b"c", b"3")]
    table = make_table(tmp_path, items)
    assert table.get(b"b") == TOMBSTONE
    assert list(table.items()) == items


def test_empty_table(tmp_path):
    table = make_table(tmp_path, [])
    assert table.record_count == 0
    assert table.get(b"anything") is None
    assert list(table.items()) == []
    assert not table.may_contain_range(b"x")


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.sst"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CorruptionError):
        SSTableReader(path)


def test_delete_file(tmp_path):
    table = make_table(tmp_path, [(b"a", b"1")])
    table.delete_file()
    assert not table.path.exists()
    table.delete_file()  # idempotent


def test_large_values(tmp_path):
    big = b"x" * 100_000
    table = make_table(tmp_path, [(b"big", big)])
    assert table.get(b"big") == big
