"""Blockchain platforms: Ethereum (PoW), Parity (PoA), Hyperledger
(PBFT), ErisDB (Tendermint).

Each platform module registers a node factory with
:data:`repro.registry.PLATFORMS` when it is imported, and the registry
imports ``repro.platforms.<name>`` the first time ``<name>`` is looked
up; ``build_cluster`` resolves platforms through that registry, so a
run loads only its own platform, and external backends can add
themselves with :func:`repro.registry.register_platform` and every
entry point (CLI, scenario files, ``run_experiment``) picks them up.
"""

from ..registry import PLATFORMS
from ..util.lazy import lazy_exports


def available_platforms() -> list[str]:
    """Names of every registered platform backend."""
    return PLATFORMS.names()


__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("ExecutionCache", "JournaledState", "PlatformNode", "PlatformState"),
    "cluster": ("DEFAULT_CONTRACTS", "Cluster", "build_cluster"),
    "erisdb": ("ErisDBNode", "ErisDBState"),
    "ethereum": ("EthereumNode", "EthereumState"),
    "hyperledger": ("HyperledgerNode", "HyperledgerState"),
    "parity": ("ParityNode", "ParityState"),
})
__all__ += ["available_platforms"]
