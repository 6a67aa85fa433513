"""BLOCKBENCH reproduction: a framework for analyzing private blockchains.

Reproduces Dinh et al., *BLOCKBENCH: A Framework for Analyzing Private
Blockchains* (SIGMOD 2017) as a self-contained Python library: the
benchmarking framework itself (driver, connectors, workloads, metrics,
fault and attack injection) plus faithful simulators of the paper's
platforms — Ethereum (PoW), Parity (PoA), Hyperledger Fabric v0.6
(PBFT) and ErisDB (Tendermint) — built layer by layer on a
deterministic discrete-event kernel.

Quickstart::

    from repro import ExperimentSpec, run_experiment

    result = run_experiment(
        ExperimentSpec(platform="hyperledger", workload="ycsb",
                       n_servers=8, n_clients=8,
                       request_rate_tx_s=256, duration_s=30)
    )
    print(result.throughput, result.latency)

Custom measurement clients are generator-coroutines over the awaitable
connector API (``IBlockchainConnector`` v2)::

    from repro import RPCClient, SimChainConnector, build_cluster, spawn

    cluster = build_cluster("hyperledger", 4, seed=1)
    rpc = RPCClient("probe", cluster.scheduler, cluster.network)
    connector = SimChainConnector(cluster, rpc, cluster.node_ids()[0])

    def probe():
        reply = yield connector.query("kvstore", "read", ("k",))
        return reply.get("output")

    future = spawn(probe())
    cluster.run_until(5.0)
    print(future.result())

See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the paper-vs-measured record.
"""

from .util.lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core": (
        "BlockSubscription",
        "Driver",
        "DriverConfig",
        "ExperimentResult",
        "ExperimentSpec",
        "FaultSchedule",
        "IBlockchainConnector",
        "RPCClient",
        "SimChainConnector",
        "StatsCollector",
        "StatsSummary",
        "Workload",
        "format_table",
        "run_experiment",
        "run_partition_attack",
    ),
    "errors": ("ReproError",),
    "platforms": ("build_cluster",),
    "sim": ("SimCoroutine", "SimFuture", "gather", "spawn"),
    "workloads": ("make_workload",),
})
__all__ += ["__version__"]
