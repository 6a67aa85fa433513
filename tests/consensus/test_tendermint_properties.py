"""Property-based safety tests for Tendermint.

Safety claim: across any pattern of crashes and partitions (within or
beyond the f < N/3 bound), the committed chains of all validators are
prefixes of one another — Tendermint may halt, but it never forks.
Liveness claim: with at most f crashes and no partition, work commits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import Tendermint, TendermintConfig

from .harness import build_cluster, make_tx, submit_everywhere

FAST = TendermintConfig(
    max_txs_per_block=10,
    tick_interval=0.1,
    commit_interval=0.1,
    propose_timeout=0.8,
    prevote_timeout=0.6,
    precommit_timeout=0.6,
)


def tm_factory(node, all_ids):
    return Tendermint(node, FAST, validators=all_ids)


def chains_are_prefixes(nodes) -> bool:
    """Every pair of committed chains agrees on the common prefix."""
    chains = [
        [b.hash for b in node.chain().main_branch()] for node in nodes
    ]
    for i, a in enumerate(chains):
        for b in chains[i + 1:]:
            shared = min(len(a), len(b))
            if a[:shared] != b[:shared]:
                return False
    return True


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=7),
    crash_mask=st.lists(st.booleans(), min_size=4, max_size=7),
    crash_time=st.floats(min_value=0.0, max_value=8.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_safety_under_arbitrary_crashes(n, crash_mask, crash_time, seed):
    """Crashing ANY subset at ANY time never forks the survivors."""
    sched, net, nodes = build_cluster(n, tm_factory, seed=seed)
    submit_everywhere(nodes, [make_tx(i) for i in range(30)])
    victims = [node for node, dead in zip(nodes, crash_mask) if dead]
    for victim in victims:
        sched.schedule_at(crash_time, victim.crash)
    sched.run_until(25.0)
    assert chains_are_prefixes(nodes)
    for node in nodes:
        assert node.chain().fork_blocks == 0


@settings(max_examples=10, deadline=None)
@given(
    split=st.integers(min_value=1, max_value=6),
    heal_at=st.floats(min_value=2.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_safety_across_partitions(split, heal_at, seed):
    """Any two-way partition, healed at any time: prefixes still agree."""
    n = 7
    split = min(split, n - 1)
    sched, net, nodes = build_cluster(n, tm_factory, seed=seed)
    ids = [node.node_id for node in nodes]
    submit_everywhere(nodes, [make_tx(i) for i in range(30)])
    sched.schedule_at(1.0, net.partition, [ids[:split], ids[split:]])
    sched.schedule_at(heal_at, net.heal)
    sched.run_until(30.0)
    assert chains_are_prefixes(nodes)
    for node in nodes:
        assert node.chain().fork_blocks == 0


@settings(max_examples=8, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=7),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_liveness_with_f_crashes(n, seed):
    """Exactly f crashes: the survivors still commit everything."""
    sched, net, nodes = build_cluster(n, tm_factory, seed=seed)
    f = nodes[0].protocol.f
    for victim in nodes[:f]:
        victim.crash()
    alive = nodes[f:]
    submit_everywhere(alive, [make_tx(i) for i in range(15)])
    sched.run_until(60.0)
    committed = {
        tx.tx_id
        for b in alive[0].chain().main_branch()
        for tx in b.transactions
    }
    assert len(committed) == 15
    assert chains_are_prefixes(alive)


@settings(max_examples=8, deadline=None)
@given(
    drop_window=st.floats(min_value=0.5, max_value=4.0),
    corruption_rate=st.floats(min_value=0.1, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_safety_under_message_corruption(drop_window, corruption_rate, seed):
    """Corrupted (dropped-at-verification) messages never cause forks."""
    sched, net, nodes = build_cluster(4, tm_factory, seed=seed)
    submit_everywhere(nodes, [make_tx(i) for i in range(20)])
    window = net.add_corruption(corruption_rate)
    sched.schedule_at(drop_window, net.remove_corruption, window)
    sched.run_until(40.0)
    assert chains_are_prefixes(nodes)
    for node in nodes:
        assert node.chain().fork_blocks == 0
