"""Plugin-registry tests: registration, lookup, and failure modes."""

import sys

import pytest

from repro.errors import BenchmarkError
from repro.registry import (
    CONSENSUS,
    PLATFORMS,
    WORKLOADS,
    Registry,
    WorkloadSpec,
    register_platform,
    register_workload,
)


def test_builtin_platforms_registered():
    from repro.platforms import available_platforms

    assert PLATFORMS.names() == ["erisdb", "ethereum", "hyperledger", "parity"]
    assert available_platforms() == PLATFORMS.names()


def test_builtin_workloads_registered():
    from repro.workloads import available_workloads

    assert WORKLOADS.names() == [
        "donothing", "doubler", "etherid", "smallbank", "wavespresale", "ycsb",
    ]
    assert available_workloads() == WORKLOADS.names()


def test_builtin_consensus_registered():
    assert CONSENSUS.names() == ["pbft", "poa", "pow", "tendermint"]


def test_unknown_name_error_lists_available():
    registry = Registry("gizmo")
    registry.register("alpha", object())
    with pytest.raises(BenchmarkError, match=r"unknown gizmo 'beta'.*alpha"):
        registry.get("beta")


def test_duplicate_registration_rejected_without_replace():
    registry = Registry("gizmo")
    registry.register("alpha", 1)
    with pytest.raises(BenchmarkError, match="already registered"):
        registry.register("alpha", 2)
    registry.register("alpha", 2, replace=True)
    assert registry.get("alpha") == 2


def test_registry_container_protocol():
    registry = Registry("gizmo")
    registry.register("b", 2)
    registry.register("a", 1)
    assert "a" in registry and "missing" not in registry
    assert list(registry) == ["a", "b"]
    assert len(registry) == 2
    assert registry.items() == [("a", 1), ("b", 2)]


@pytest.fixture
def gizmos(tmp_path, monkeypatch):
    """A registry over a throwaway package: ``alpha.py`` registers
    ``alpha``, ``several.py`` registers ``beta`` and ``gamma``."""
    (tmp_path / "gizmo_registry.py").write_text(
        "from repro.registry import Registry\n"
        "GIZMOS = Registry('gizmo', 'gizmo_plugins')\n"
    )
    package = tmp_path / "gizmo_plugins"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "alpha.py").write_text(
        "from gizmo_registry import GIZMOS\nGIZMOS.register('alpha', 'a')\n"
    )
    (package / "several.py").write_text(
        "from gizmo_registry import GIZMOS\n"
        "GIZMOS.register('beta', 'b')\nGIZMOS.register('gamma', 'g')\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    yield __import__("gizmo_registry").GIZMOS
    for name in [m for m in sys.modules if m.startswith("gizmo_")]:
        del sys.modules[name]


def test_lookup_imports_the_module_named_after_the_entry(gizmos):
    assert gizmos.get("alpha") == "a"
    assert "gizmo_plugins.alpha" in sys.modules
    assert "gizmo_plugins.several" not in sys.modules


def test_lookup_of_a_name_no_module_has_imports_the_package(gizmos):
    assert gizmos.get("gamma") == "g"
    assert "gizmo_plugins.alpha" in sys.modules


def test_listing_imports_the_whole_package(gizmos):
    assert len(gizmos) == 3
    assert gizmos.names() == ["alpha", "beta", "gamma"]
    assert "beta" in gizmos


def test_unknown_name_lists_every_builtin(gizmos):
    with pytest.raises(BenchmarkError, match=r"'delta'.*alpha.*beta.*gamma"):
        gizmos.get("delta")


def test_replacing_a_builtin_before_it_loads_sticks(gizmos):
    gizmos.register("alpha", "mine", replace=True)
    assert gizmos.names() == ["alpha", "beta", "gamma"]
    assert gizmos.get("alpha") == "mine"


def test_register_platform_decorator_roundtrip():
    @register_platform("testchain", default_config=lambda: "conf")
    def build_node(node_id, scheduler, network, rng, config, all_ids):
        return (node_id, config)

    try:
        spec = PLATFORMS.get("testchain")
        assert spec.factory is build_node
        assert spec.default_config() == "conf"
    finally:
        PLATFORMS.unregister("testchain")
    assert "testchain" not in PLATFORMS


def test_registered_platform_reaches_build_cluster_error_path():
    """build_cluster resolves names through the registry, so its error
    for unknown platforms comes from the registry too."""
    from repro.platforms import build_cluster

    with pytest.raises(BenchmarkError, match="unknown platform 'nosuchchain'"):
        build_cluster("nosuchchain", 4)


def test_register_workload_reaches_make_workload():
    from repro.workloads import make_workload

    class EchoWorkload:
        pass

    register_workload("echo")(EchoWorkload)
    try:
        assert isinstance(make_workload("echo"), EchoWorkload)
    finally:
        WORKLOADS.unregister("echo")
    with pytest.raises(BenchmarkError, match="unknown workload 'echo'"):
        make_workload("echo")


def test_workload_kwargs_route_through_config_type():
    from repro.workloads import YCSBConfig, YCSBWorkload, make_workload

    workload = make_workload("ycsb", record_count=123)
    assert isinstance(workload, YCSBWorkload)
    assert workload.config.record_count == 123
    assert isinstance(YCSBConfig(record_count=123), type(workload.config))


def test_workload_without_config_rejects_kwargs():
    spec = WorkloadSpec(name="plain", workload_type=object)
    with pytest.raises(BenchmarkError, match="takes no parameters"):
        spec.create(bogus=1)


def test_workload_config_typo_raises_benchmark_error():
    """A typo'd workload param surfaces as a clean BenchmarkError, not
    a TypeError escaping to the CLI as a traceback."""
    from repro.workloads import make_workload

    with pytest.raises(BenchmarkError, match="bad parameters for workload 'ycsb'"):
        make_workload("ycsb", record_cout=1000)


def test_invalid_registration_name_rejected():
    registry = Registry("gizmo")
    with pytest.raises(BenchmarkError, match="non-empty string"):
        registry.register("", 1)


def test_platform_spec_make_config_applies_overrides():
    from repro.registry import PLATFORMS

    spec = PLATFORMS.get("hyperledger")
    assert spec.make_config().pbft.batch_size == 500
    tuned = spec.make_config(overrides={"pbft": {"batch_size": 123}})
    assert tuned.pbft.batch_size == 123
    # The registered default is the one override base.
    both = spec.make_config({"inbox_capacity": 99, "pbft": {"batch_size": 7}})
    assert both.inbox_capacity == 99 and both.pbft.batch_size == 7


def test_platform_spec_make_config_without_default_rejects_overrides():
    from repro.registry import PlatformSpec

    spec = PlatformSpec(name="bare", factory=object)
    assert spec.make_config() is None
    with pytest.raises(BenchmarkError, match="no config to override"):
        spec.make_config(overrides={"x": 1})


def test_build_cluster_applies_config_overrides():
    from repro.platforms import build_cluster

    cluster = build_cluster(
        "hyperledger", 2, config_overrides={"pbft": {"batch_size": 123}}
    )
    try:
        assert cluster.nodes[0].config.pbft.batch_size == 123
    finally:
        cluster.close()
