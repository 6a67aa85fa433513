"""Byzantine fault injection and the chain safety auditor."""

import tracemalloc

import pytest

from repro.chain.block import Block
from repro.core import (
    BYZANTINE_BEHAVIORS,
    ByzantineFault,
    ChainAuditor,
    DelayFault,
    ExperimentSpec,
    FaultSchedule,
    run_experiment,
    spec_hash,
)
from repro.core.scenario import ScenarioSpec, _faults_label, build_fault_schedule
from repro.core.suitestore import _canonical_faults
from repro.errors import BenchmarkError
from repro.platforms import build_cluster
from repro.sim.network import NetworkError


# ---------------------------------------------------------------------------
# Auditor unit tests (no cluster: a stub network and hand-built blocks)
# ---------------------------------------------------------------------------
class _StubNetwork:
    def __init__(self, nodes, byzantine=()):
        self._nodes = list(nodes)
        self.ever_byzantine = set(byzantine)

    def node_ids(self):
        return list(self._nodes)


def _block(height, proposer="server-0", meta=None):
    return Block.build(
        height=height,
        parent_hash=b"\x00" * 32,
        transactions=[],
        state_root=b"\x11" * 32,
        proposer=proposer,
        timestamp=float(height),
        consensus_meta=meta,
    )


def test_auditor_agreement_is_safe():
    auditor = ChainAuditor(_StubNetwork(["a", "b"]))
    block = _block(1)
    auditor.record_commit("a", block, 1.0)
    auditor.record_commit("b", block, 1.1)
    report = auditor.report()
    assert report.safe
    assert report.commits_checked == 2
    assert report.honest_nodes == 2
    assert report.byzantine_nodes == []


def test_auditor_flags_fork_between_honest_replicas():
    auditor = ChainAuditor(_StubNetwork(["a", "b"]))
    auditor.record_commit("a", _block(5, proposer="a"), 1.0)
    auditor.record_commit("b", _block(5, proposer="b"), 1.2)
    report = auditor.report()
    assert not report.safe
    (violation,) = report.violations
    assert violation.kind == "fork"
    assert violation.height == 5
    assert violation.nodes == ["a", "b"]


def test_auditor_fork_violations_are_the_ones_a_set_per_hash_gave():
    """Committers kept as a bitmask over first-commit order still report
    each fork's nodes sorted by id; every field below was captured from
    the auditor that kept a set of node ids per block hash."""
    auditor = ChainAuditor(_StubNetwork([f"server-{i}" for i in range(7)]))
    left, right, third = _block(9, "a"), _block(9, "b"), _block(9, "c")
    commits = [
        ("server-4", left), ("server-1", left), ("server-5", right),
        ("server-6", left), ("server-0", right), ("server-2", right),
        ("server-3", third),
    ]
    for step, (node_id, block) in enumerate(commits):
        auditor.record_commit(node_id, block, 1.0 + step / 4)
    assert [
        (v.kind, v.height, v.nodes, v.detail, v.at_time)
        for v in auditor.report().violations
    ] == [
        ("fork", 9, ["server-1", "server-4", "server-5"],
         "honest replicas disagree at height 9: ['server-5'] committed "
         "915596b01af4, ['server-1', 'server-4'] committed a93d0acbadef", 1.5),
        ("fork", 9, ["server-0", "server-2", "server-3", "server-5"],
         "honest replicas disagree at height 9: ['server-3'] committed "
         "543f6d98b5d3, ['server-0', 'server-2', 'server-5'] committed "
         "915596b01af4", 2.5),
        ("fork", 9, ["server-1", "server-3", "server-4", "server-6"],
         "honest replicas disagree at height 9: ['server-3'] committed "
         "543f6d98b5d3, ['server-1', 'server-4', 'server-6'] committed "
         "a93d0acbadef", 2.5),
    ]


def test_auditor_keeps_a_height_small():
    """Seven committers of one block: ~260 B retained per height, where a
    set of node ids per block hash retained ~987 B."""
    heights = 2000
    blocks = [_block(height) for height in range(1, heights + 1)]
    assert all(block.hash for block in blocks)  # cached, as a replica's are
    nodes = [f"server-{i}" for i in range(7)]
    tracemalloc.start()
    try:
        auditor = ChainAuditor(_StubNetwork(nodes))
        for block in blocks:
            for node_id in nodes:
                auditor.record_commit(node_id, block, 1.0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert auditor.report().safe
    assert retained / heights < 400, f"{retained / heights:.0f} B per height"


def test_auditor_dedupes_repeated_fork_commits():
    auditor = ChainAuditor(_StubNetwork(["a", "b", "c"]))
    left, right = _block(3, proposer="a"), _block(3, proposer="b")
    auditor.record_commit("a", left, 1.0)
    auditor.record_commit("b", right, 1.1)
    auditor.record_commit("c", right, 1.2)  # same pair of hashes again
    assert len(auditor.report().violations) == 1


def test_auditor_ignores_byzantine_commits():
    """A liar's local chain never enters the agreement record."""
    auditor = ChainAuditor(_StubNetwork(["a", "b"], byzantine={"b"}))
    auditor.record_commit("a", _block(2, proposer="a"), 1.0)
    auditor.record_commit("b", _block(2, proposer="b"), 1.1)
    report = auditor.report()
    assert report.safe
    assert report.honest_nodes == 1
    assert report.byzantine_nodes == ["b"]


def test_auditor_flags_garbage_digest_commit():
    auditor = ChainAuditor(_StubNetwork(["a"]))
    auditor.record_commit("a", _block(1, meta={"byz": "garbage:1"}), 1.0)
    (violation,) = auditor.report().violations
    assert violation.kind == "garbage_digest"


def test_auditor_flags_height_regression():
    auditor = ChainAuditor(_StubNetwork(["a"]))
    auditor.record_commit("a", _block(2), 1.0)
    auditor.record_commit("a", _block(2, proposer="x"), 2.0)
    kinds = [v.kind for v in auditor.report().violations]
    assert "height_regression" in kinds
    regression = next(
        v for v in auditor.violations if v.kind == "height_regression"
    )
    assert regression.nodes == ["a"]


def test_auditor_records_fault_context():
    auditor = ChainAuditor(_StubNetwork(["a", "b"]))
    auditor.fault_started("equivocate x2")
    auditor.record_commit("a", _block(4, proposer="a"), 1.0)
    auditor.record_commit("b", _block(4, proposer="b"), 1.1)
    auditor.fault_ended("equivocate x2")
    (violation,) = auditor.report().violations
    assert violation.fault_context == "equivocate x2"


# ---------------------------------------------------------------------------
# Network send interception
# ---------------------------------------------------------------------------
def test_send_filter_drops_and_taints():
    cluster = build_cluster("hyperledger", 2, seed=3)
    network = cluster.network
    network.set_send_filter("server-0", lambda r, k, p, s: None)
    network.send("server-0", "server-1", "PREPARE", {"x": 1})
    assert network.stats.dropped_byzantine == 1
    network.clear_send_filter("server-0")
    network.send("server-0", "server-1", "PREPARE", {"x": 1})
    assert network.stats.dropped_byzantine == 1  # filter gone
    assert "server-0" in network.ever_byzantine  # but the taint stays
    cluster.close()


def test_send_filter_rejects_unknown_node():
    cluster = build_cluster("hyperledger", 2, seed=3)
    with pytest.raises(NetworkError):
        cluster.network.set_send_filter("nope", lambda r, k, p, s: None)
    cluster.close()


def test_unknown_behavior_rejected_at_arm_time():
    cluster = build_cluster("hyperledger", 4, seed=3)
    schedule = FaultSchedule(
        byzantines=[ByzantineFault(1.0, 2.0, behavior="confuse")]
    )
    with pytest.raises(BenchmarkError, match="confuse"):
        schedule.arm(cluster)
    cluster.close()


def test_behavior_registry_has_the_documented_strategies():
    assert {"equivocate", "garbage_digest", "silent", "delay_votes"} <= set(
        BYZANTINE_BEHAVIORS
    )


# ---------------------------------------------------------------------------
# End-to-end: behaviors against real protocols, auditor always on
# ---------------------------------------------------------------------------
def _byzantine_spec(platform, behavior, count, duration=12.0, rate=20.0):
    return ExperimentSpec(
        platform=platform,
        workload="ycsb",
        n_servers=4,
        n_clients=4,
        request_rate_tx_s=rate,
        duration_s=duration,
        seed=7,
        faults=FaultSchedule(
            byzantines=[
                ByzantineFault(
                    at_time=duration / 4,
                    until_time=duration * 3 / 4,
                    behavior=behavior,
                    count=count,
                )
            ]
        ),
    )


@pytest.mark.parametrize("platform", ["hyperledger", "erisdb", "parity"])
@pytest.mark.parametrize(
    "behavior", ["equivocate", "garbage_digest", "silent", "delay_votes"]
)
def test_one_byzantine_node_never_breaks_safety(platform, behavior):
    """f=1 on n=4: every behavior, every protocol — zero violations."""
    result = run_experiment(_byzantine_spec(platform, behavior, count=1))
    assert result.safety_violations == 0
    assert result.safety_report is not None
    assert result.safety_report["safe"]
    assert result.safety_report["byzantine_nodes"] == ["server-0"]
    assert result.summary.safety_violations == 0


def test_pbft_commits_through_single_equivocator():
    """f=1 <= (n-1)/3: the quorum still commits during the attack."""
    result = run_experiment(
        _byzantine_spec("hyperledger", "equivocate", count=1, duration=20.0)
    )
    assert result.safety_violations == 0
    assert result.summary.confirmed > 0


def test_pbft_two_equivocators_fork_and_auditor_sees_it():
    """f=2 > (n-1)/3 colluding equivocators: honest replicas finalize
    conflicting blocks, and the auditor pins the fork to the fault."""
    result = run_experiment(
        _byzantine_spec(
            "hyperledger", "equivocate", count=2, duration=30.0, rate=50.0
        )
    )
    assert result.safety_violations >= 1
    report = result.safety_report
    assert not report["safe"]
    forks = [v for v in report["violations"] if v["kind"] == "fork"]
    assert forks
    # Only honest replicas appear in the fork record.
    for fork in forks:
        assert set(fork["nodes"]).isdisjoint({"server-0", "server-1"})
        assert "equivocate x2" in fork["fault_context"]
    assert result.summary.safety_violations == result.safety_violations


def test_byzantine_runs_are_deterministic():
    """Two runs of the same spec replay the same timeline: identical
    throughput and the same violations at the same heights and times.
    (Block hashes differ — tx ids come from a process-global counter —
    so the comparison is structural, not byte-for-byte.)"""

    def shape(report):
        return [
            (v["kind"], v["height"], v["at_time"], v["fault_context"],
             sorted(v["nodes"]))
            for v in report["violations"]
        ]

    first = run_experiment(_byzantine_spec("hyperledger", "equivocate", count=2))
    second = run_experiment(
        _byzantine_spec("hyperledger", "equivocate", count=2)
    )
    assert first.summary.confirmed == second.summary.confirmed
    assert first.summary.throughput_tx_s == second.summary.throughput_tx_s
    assert first.safety_violations == second.safety_violations
    assert shape(first.safety_report) == shape(second.safety_report)


# ---------------------------------------------------------------------------
# Scenario axis + labels, spec-hash stability
# ---------------------------------------------------------------------------
def test_faults_label_shapes():
    def label(faults):
        return _faults_label(build_fault_schedule(faults))

    assert label({}) == "no-faults"
    window = {"at_time": 1.0, "until_time": 2.0}
    assert (
        label({"byzantines": [{**window, "behavior": "equivocate", "count": 2}]})
        == "byz=equivocate:2"
    )
    assert (
        label({"byzantines": [{**window, "nodes": ["server-0", "server-1"]}]})
        == "byz=equivocate:2"
    )
    assert (
        label({"crashes": [{"at_time": 1.0, "count": 1}],
               "delays": [{**window, "extra_s": 0.5}]})
        == "crash=1,delay=0.5s"
    )


def test_faults_axis_validation():
    def expand(faults):
        return ScenarioSpec(servers=4, rates=10, faults=faults).expand()

    assert [spec.faults for spec in expand(None)] == [None]
    assert [spec.faults for spec in expand({"crashes": []})] == [FaultSchedule()]
    with pytest.raises(BenchmarkError):
        expand([])
    with pytest.raises(BenchmarkError):
        expand(["not-a-dict"])
    with pytest.raises(BenchmarkError):
        expand([{"byzantines": [{"at_time": 1.0, "until_time": 2.0,
                                 "behavior": "bogus"}]}])


def test_scenario_faults_axis_expands_to_grid_points():
    spec = ScenarioSpec(
        name="byz-sweep",
        platforms="hyperledger",
        servers=4,
        rates=50.0,
        durations=10.0,
        seeds=7,
        faults=[
            {},
            {"byzantines": [{"at_time": 2.0, "until_time": 8.0, "count": 1}]},
            {"byzantines": [{"at_time": 2.0, "until_time": 8.0, "count": 2}]},
        ],
    )
    expanded = spec.expand()
    assert len(expanded) == 3
    schedules = [e.faults for e in expanded]
    # The {} control point builds an empty (no-op) schedule.
    assert not schedules[0].byzantines and not schedules[0].crashes
    assert len(schedules[1].byzantines) == 1
    assert schedules[1].byzantines[0].count == 1
    assert schedules[2].byzantines[0].count == 2
    # Fresh schedule per grid point — no shared mutable runtime state.
    assert schedules[1] is not schedules[2]


def test_scalar_faults_dict_still_applies_to_every_point():
    spec = ScenarioSpec(
        name="scalar",
        platforms=["hyperledger", "parity"],
        servers=4,
        faults={"crashes": [{"at_time": 5.0, "count": 1}]},
    )
    expanded = spec.expand()
    assert len(expanded) == 2
    assert all(len(e.faults.crashes) == 1 for e in expanded)


def test_empty_byzantines_does_not_move_spec_hashes():
    """Pre-byzantine fault specs must keep their content addresses."""
    schedule = FaultSchedule(delays=[DelayFault(1.0, 2.0, extra_s=0.1)])
    canon = _canonical_faults(schedule)
    assert "byzantines" not in canon
    assert "byzantine_node_ids" not in canon
    assert "crashed_node_ids" not in canon
    with_field = ExperimentSpec(faults=schedule)
    explicit = ExperimentSpec(
        faults=FaultSchedule(
            delays=[DelayFault(1.0, 2.0, extra_s=0.1)], byzantines=[]
        )
    )
    assert spec_hash(with_field) == spec_hash(explicit)


def test_byzantine_schedule_does_enter_the_spec_hash():
    base = ExperimentSpec(faults=FaultSchedule())
    byz = ExperimentSpec(
        faults=FaultSchedule(byzantines=[ByzantineFault(1.0, 2.0)])
    )
    assert spec_hash(base) != spec_hash(byz)
