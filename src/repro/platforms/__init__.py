"""Blockchain platforms: Ethereum (PoW), Parity (PoA), Hyperledger
(PBFT), ErisDB (Tendermint).

A platform is its node class: each platform module registers one
:class:`~repro.platforms.base.PlatformNode` subclass with
:data:`repro.registry.PLATFORMS` when it is imported, and that class is
the node factory. The subclass names its data model (``_new_state``)
and its consensus protocol (``_new_protocol``); the trie platforms
share :class:`~repro.platforms.triestate.TrieState`. The registry
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
    "base": ("ExecutionCache", "JournaledState", "PlatformNode"),
    "cluster": ("DEFAULT_CONTRACTS", "Cluster", "build_cluster"),
    "erisdb": ("ErisDBNode",),
    "ethereum": ("EthereumNode", "EthereumState"),
    "hyperledger": ("HyperledgerNode", "HyperledgerState"),
    "parity": ("ParityNode", "ParityState"),
    "triestate": ("TrieState",),
})
__all__ += ["available_platforms"]
