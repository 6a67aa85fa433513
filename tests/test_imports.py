"""The import graph follows the layers: a run loads what it runs.

Each footprint test runs in a fresh interpreter, since the test session
itself has long since imported everything.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Every package's ``__all__`` before its names resolved lazily.
PUBLIC_NAMES = {
    "repro": """BlockSubscription Driver DriverConfig ExperimentResult
        ExperimentSpec FaultSchedule IBlockchainConnector RPCClient ReproError
        SimChainConnector SimCoroutine SimFuture StatsCollector StatsSummary
        Workload __version__ build_cluster format_table gather make_workload
        run_experiment run_partition_attack spawn""",
    "repro.core": """ARRIVAL_PROCESSES ArrivalGenerator ArrivalSpec
        AttackReport AuditReport BOTTLENECK_HEADERS BYZANTINE_BEHAVIORS
        BlockSubscription ByzantineFault ChainAuditor CorruptionFault
        CrashFault DelayFault Driver DriverConfig ExperimentResult
        ExperimentSpec FaultSchedule ForkMonitor ForkSample
        IBlockchainConnector OpenLoopDriver PartitionFault QUEUE_GAUGES
        RPCClient RunDelta STAGES STAGE_INTERVALS SUMMARY_HEADERS
        SafetyViolation ScenarioSpec ScenarioSuite SimChainConnector
        StageBreakdown StageStat StageTracer StatsCollector StatsSummary
        SuiteComparison SuiteResult SuiteStore Workload bottleneck_rows
        bottleneck_table build_fault_schedule compare_suites
        export_commit_series export_latency_cdf export_queue_series
        export_summary format_table merge_collectors preload_state
        register_behavior run_experiment run_partition_attack spec_hash
        summary_row write_csv""",
    "repro.platforms": """Cluster DEFAULT_CONTRACTS ErisDBNode
        EthereumNode EthereumState ExecutionCache HyperledgerNode
        HyperledgerState JournaledState ParityNode ParityState PlatformNode
        PlatformState TrieState available_platforms build_cluster""",
    "repro.workloads": """AnalyticsPreload DoNothingWorkload DoublerWorkload
        EtherIdConfig EtherIdWorkload QueryResult SmallbankConfig
        SmallbankWorkload WavesPresaleWorkload YCSBConfig YCSBWorkload
        ZipfianGenerator available_workloads make_workload preload_history
        run_q1 run_q2""",
    "repro.consensus": """ConsensusHost ConsensusProtocol PBFT PBFTConfig
        PoAConfig PoWConfig ProofOfAuthority ProofOfWork Tendermint
        TendermintConfig""",
    "repro.crypto": """BucketTree DictNodeStore EMPTY_HASH Hash KeyPair
        KeyRegistry MerkleTree PatriciaTrie ProofStep PublicKey SIGN_COST_S
        Signature StateTrie VERIFY_COST_S from_nibbles hash_items hash_text
        hex_digest merkle_root sha256 short_hex to_nibbles
        transaction_digest""",
    "repro.evm": """CPUHEAVY_ASM CallContext DONOTHING_ASM DictStorage EVM
        ExecutionResult INTRINSIC_TX_GAS OPCODE_GAS Profile Program
        SLOAD_COST SSTORE_RESET SSTORE_SET StateStorage StorageBackend
        assemble clear_program_cache cpuheavy_code decode_program
        donothing_code kvstore_read_code kvstore_write_code
        program_cache_stats sstore_cost""",
    "repro.storage": """BloomFilter KVStore LSMConfig LSMStore MemKVStore
        MemTable SSTableReader StorageReport TOMBSTONE WriteAheadLog
        leveldb_config report_for rocksdb_config write_sstable""",
}

#: Optional layers a hyperledger/ycsb run never executes.
NOT_ON_THE_RUN_PATH = (
    "repro.evm.vm",
    "repro.storage.lsm.db",
    "repro.core.scenario",
    "repro.core.compare",
    "repro.workloads.analytics",
    "repro.consensus.tendermint",
    "repro.platforms.ethereum",
    "repro.crypto.trie",
    "repro.cli",
)
MAX_RUN_MODULES = 55


def _fresh(program: str) -> dict:
    """Run ``program`` in a new interpreter; it prints one JSON value."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def test_a_run_loads_only_its_own_layers():
    loaded = _fresh(
        "import json, sys\n"
        "from repro import ExperimentSpec, run_experiment\n"
        "run_experiment(ExperimentSpec(platform='hyperledger', workload='ycsb',"
        " n_servers=4, n_clients=2, request_rate_tx_s=20, duration_s=2,"
        " drain_s=1))\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))\n"
    )
    assert not set(NOT_ON_THE_RUN_PATH) & set(loaded)
    assert "repro.platforms.hyperledger" in loaded
    assert "repro.consensus.pbft" in loaded
    assert len(loaded) <= MAX_RUN_MODULES, loaded


def test_registries_list_the_builtins_with_nothing_else_imported():
    names = _fresh(
        "import json\n"
        "from repro.registry import CONSENSUS, PLATFORMS, WORKLOADS\n"
        "print(json.dumps([PLATFORMS.names(), WORKLOADS.names(),"
        " CONSENSUS.names()]))\n"
    )
    assert names == [
        ["erisdb", "ethereum", "hyperledger", "parity"],
        ["donothing", "doubler", "etherid", "smallbank", "wavespresale", "ycsb"],
        ["pbft", "poa", "pow", "tendermint"],
    ]


def test_a_lookup_imports_only_the_named_builtin():
    loaded = _fresh(
        "import json, sys\n"
        "from repro.registry import CONSENSUS, PLATFORMS\n"
        "PLATFORMS.get('parity'); CONSENSUS.get('pow')\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith(('repro.platforms.', 'repro.consensus.')))))\n"
    )
    assert "repro.platforms.parity" in loaded
    assert "repro.consensus.pow" in loaded
    for other in ("ethereum", "erisdb", "hyperledger"):
        assert f"repro.platforms.{other}" not in loaded
    assert "repro.consensus.tendermint" not in loaded


def test_an_erisdb_lookup_loads_neither_ethereum_nor_pow():
    loaded = _fresh(
        "import json, sys\n"
        "from repro.registry import PLATFORMS\n"
        "PLATFORMS.get('erisdb')\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith(('repro.platforms.', 'repro.consensus.')))))\n"
    )
    assert "repro.platforms.erisdb" in loaded
    assert "repro.consensus.tendermint" in loaded
    for other in ("ethereum", "hyperledger", "parity"):
        assert f"repro.platforms.{other}" not in loaded
    assert "repro.consensus.pow" not in loaded


@pytest.mark.parametrize("package", sorted(PUBLIC_NAMES))
def test_every_public_name_still_resolves(package):
    module = importlib.import_module(package)
    names = PUBLIC_NAMES[package].split()
    assert sorted(module.__all__) == sorted(names)
    for name in names:
        assert getattr(module, name) is not None, name
    assert set(names) <= set(dir(module))


def test_unknown_package_attribute_is_an_attribute_error():
    import repro.core

    with pytest.raises(AttributeError, match="has no attribute 'Nope'"):
        repro.core.Nope  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(PUBLIC_NAMES["repro"].split()) <= set(namespace)
    from repro.core.runner import run_experiment

    assert namespace["run_experiment"] is run_experiment


def test_consensus_configs_are_the_config_module_classes():
    from repro import config
    from repro.consensus import pbft, poa, pow, tendermint

    assert pbft.PBFTConfig is config.PBFTConfig
    assert pow.PoWConfig is config.PoWConfig
    assert poa.PoAConfig is config.PoAConfig
    assert tendermint.TendermintConfig is config.TendermintConfig
