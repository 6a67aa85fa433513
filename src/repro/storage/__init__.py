"""Storage substrate: KV interfaces and the LSM engine."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "kv": ("KVStore", "MemKVStore"),
    "lsm.bloom": ("BloomFilter",),
    "lsm.db": ("LSMConfig", "LSMStore", "leveldb_config", "rocksdb_config"),
    "lsm.memtable": ("TOMBSTONE", "MemTable"),
    "lsm.sstable": ("SSTableReader", "write_sstable"),
    "lsm.wal": ("WriteAheadLog",),
})
