"""Execution layer: the miniature EVM, gas schedule, and assembler."""

from ..util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "assembler": ("assemble",),
    "gas": (
        "INTRINSIC_TX_GAS",
        "OPCODE_GAS",
        "SLOAD_COST",
        "SSTORE_RESET",
        "SSTORE_SET",
        "sstore_cost",
    ),
    "programs": (
        "CPUHEAVY_ASM",
        "DONOTHING_ASM",
        "cpuheavy_code",
        "donothing_code",
        "kvstore_read_code",
        "kvstore_write_code",
    ),
    "program": (
        "Program",
        "clear_program_cache",
        "decode_program",
        "program_cache_stats",
    ),
    "vm": (
        "EVM",
        "CallContext",
        "DictStorage",
        "StateStorage",
        "ExecutionResult",
        "Profile",
        "StorageBackend",
    ),
})
