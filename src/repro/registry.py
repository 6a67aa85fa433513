"""Plugin registries for platforms, workloads, and consensus protocols.

BLOCKBENCH's framing is that platforms and workloads *plug into* a
common driver (Figure 4): "any private blockchain can be integrated to
Blockbench via simple APIs". The seed hard-coded the four platforms in
``build_cluster`` and the six workloads in ``make_workload``; this
module replaces those if/elif ladders with decorator-based registries
so a third-party backend registers itself without touching core:

>>> from repro.registry import register_platform
>>> @register_platform("instantchain")
... def build_instantchain(node_id, scheduler, network, rng, config,
...                        all_ids):
...     return InstantChainNode(node_id, scheduler, network, rng)
...                                                   # doctest: +SKIP

A node factory is any callable of those six arguments; each built-in
platform registers its :class:`~repro.platforms.base.PlatformNode`
subclass itself, whose constructor takes exactly them.

After that, ``build_cluster("instantchain", ...)``, ``blockbench run
--platform instantchain`` and scenario files all resolve the new name
through the same lookup path as the built-ins.

This module imports nothing but the error hierarchy and the config
module (itself a leaf), so any layer (platforms, workloads, consensus,
CLI, scenario engine) can depend on it without cycles. Registration
happens at class/function definition time, i.e. importing a plugin's
module adds it. A registry finds the built-ins by name: the first
lookup of ``hyperledger`` imports ``repro.platforms.hyperledger``, and
a name no module is called after (the contract workloads) imports the
whole package once. Listing a registry imports its whole package, so a
run loads only the plugins it names.
"""

from __future__ import annotations

import importlib
import pkgutil
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .config import apply_overrides
from .errors import BenchmarkError

__all__ = [
    "Registry",
    "PlatformSpec",
    "WorkloadSpec",
    "PLATFORMS",
    "WORKLOADS",
    "CONSENSUS",
    "register_platform",
    "register_workload",
    "register_consensus",
]


class Registry:
    """A named collection of plugins with explicit failure modes.

    ``kind`` names what is being registered ("platform", "workload",
    ...) so error messages read naturally. Duplicate registration is an
    error unless ``replace=True`` — silently shadowing a built-in is
    exactly the kind of spooky action a plugin system must not allow.

    ``package`` holds the built-ins, each registered by importing its
    module: a lookup that misses imports ``<package>.<name>``, then,
    if the name is still missing, every module of the package (once).
    Anything that lists the registry imports the whole package first.
    """

    def __init__(self, kind: str, package: str | None = None) -> None:
        self.kind = kind
        self.package = package
        self._entries: dict[str, Any] = {}
        self._complete = package is None

    def register(self, name: str, entry: Any, *, replace: bool = False) -> Any:
        if not name or not isinstance(name, str):
            raise BenchmarkError(f"{self.kind} name must be a non-empty string")
        if replace:
            # The built-in goes in first, so it cannot displace the
            # replacement when it loads later.
            self._find(name)
        if name in self._entries and not replace:
            raise BenchmarkError(
                f"{self.kind} {name!r} is already registered; "
                "pass replace=True to override it"
            )
        self._entries[name] = entry
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (primarily for tests and REPL experiments)."""
        self._entries.pop(name, None)

    def _find(self, name: str) -> Any:
        """The entry for ``name``, importing built-ins to find it; None
        when no module of the package registers it."""
        entry = self._entries.get(name)
        if entry is None and not self._complete:
            if name in self._modules():
                importlib.import_module(f"{self.package}.{name}")
                entry = self._entries.get(name)
            if entry is None:
                self._load_all()
                entry = self._entries.get(name)
        return entry

    def _modules(self) -> list[str]:
        package = importlib.import_module(self.package)
        return [info.name for info in pkgutil.iter_modules(package.__path__)]

    def _load_all(self) -> None:
        if not self._complete:
            for module in self._modules():
                importlib.import_module(f"{self.package}.{module}")
            self._complete = True

    def get(self, name: str) -> Any:
        entry = self._find(name)
        if entry is None:
            raise BenchmarkError(
                f"unknown {self.kind} {name!r}; available: {self.names()}"
            )
        return entry

    def names(self) -> list[str]:
        """Registered names, sorted for stable CLI/help output."""
        self._load_all()
        return sorted(self._entries)

    def items(self) -> list[tuple[str, Any]]:
        self._load_all()
        return sorted(self._entries.items())

    def __contains__(self, name: object) -> bool:
        self._load_all()
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self._load_all()
        return len(self._entries)


# ---------------------------------------------------------------------------
# Platforms
# ---------------------------------------------------------------------------
#: Builds one node of a platform's testnet: ``(node_id, scheduler,
#: network, rng, config, all_ids)``. Called once per node id with the
#: shared simulation plumbing; ``all_ids`` is the full replica list (for
#: protocols that need the membership up front). A built-in platform's
#: factory is its node class.
NodeFactory = Callable[..., Any]


@dataclass(frozen=True)
class PlatformSpec:
    """One registered platform backend."""

    name: str
    factory: NodeFactory
    #: Zero-argument callable producing the platform's default config.
    default_config: Callable[[], Any] | None = None
    description: str = ""

    def make_config(self, overrides: dict | None = None) -> Any:
        """Resolve the config one run of this platform should use:
        the registered default with ``overrides``, the scenario-JSON
        knob dict, applied on top — the path that lets a scenario file
        retune a platform without touching its code.
        """
        if self.default_config is not None:
            return apply_overrides(self.default_config(), overrides)
        if overrides:
            raise BenchmarkError(
                f"platform {self.name!r} has no config to override; "
                "it was registered without a default_config"
            )
        return None


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered benchmark workload."""

    name: str
    workload_type: type
    #: Config dataclass accepted by the workload's constructor; when
    #: set, ``create(**kwargs)`` wraps the kwargs in it.
    config_type: type | None = None
    description: str = ""

    def create(self, **kwargs: Any) -> Any:
        """Instantiate the workload, routing kwargs through its config."""
        if not kwargs:
            return self.workload_type()
        if self.config_type is None:
            raise BenchmarkError(
                f"workload {self.name!r} takes no parameters; "
                f"got {sorted(kwargs)}"
            )
        try:
            config = self.config_type(**kwargs)
        except TypeError as exc:
            raise BenchmarkError(
                f"bad parameters for workload {self.name!r}: {exc}"
            ) from None
        return self.workload_type(config)


PLATFORMS = Registry("platform", "repro.platforms")
WORKLOADS = Registry("workload", "repro.workloads")
CONSENSUS = Registry("consensus protocol", "repro.consensus")


def register_platform(
    name: str,
    *,
    default_config: Callable[[], Any] | None = None,
    description: str = "",
    replace: bool = False,
) -> Callable[[NodeFactory], NodeFactory]:
    """Class/function decorator adding a platform node factory (a
    built-in platform decorates its node class)."""

    def decorator(factory: NodeFactory) -> NodeFactory:
        PLATFORMS.register(
            name,
            PlatformSpec(
                name=name,
                factory=factory,
                default_config=default_config,
                description=description or (factory.__doc__ or "").strip(),
            ),
            replace=replace,
        )
        return factory

    return decorator


def register_workload(
    name: str,
    *,
    config_type: type | None = None,
    description: str = "",
    replace: bool = False,
) -> Callable[[type], type]:
    """Class decorator adding a driver workload."""

    def decorator(workload_type: type) -> type:
        WORKLOADS.register(
            name,
            WorkloadSpec(
                name=name,
                workload_type=workload_type,
                config_type=config_type,
                description=description or (workload_type.__doc__ or "").strip(),
            ),
            replace=replace,
        )
        return workload_type

    return decorator


def register_consensus(
    name: str, *, replace: bool = False
) -> Callable[[type], type]:
    """Class decorator adding a consensus protocol implementation."""

    def decorator(protocol_type: type) -> type:
        CONSENSUS.register(name, protocol_type, replace=replace)
        return protocol_type

    return decorator
