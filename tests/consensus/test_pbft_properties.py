"""Property-based safety tests for PBFT.

Safety claim: across any pattern of crashes and partitions (within or
beyond the f < N/3 bound) and any corruption window, the committed
chains of all replicas are prefixes of one another — PBFT may stop
making progress (that is Figure 9's halt), but it never forks.
Liveness claim: with at most f crashes of non-primary replicas after
startup, outstanding work still commits.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consensus import PBFT, PBFTConfig

from .harness import build_cluster, make_tx, submit_everywhere

FAST = PBFTConfig(
    batch_size=10,
    batch_interval=0.1,
    view_timeout=1.0,
    view_timeout_backoff=0.5,
    request_timeout=3.0,
)


def pbft_factory(node, all_ids):
    return PBFT(node, FAST, replicas=all_ids)


def chains_are_prefixes(nodes) -> bool:
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
    """Crashing ANY subset at ANY time never forks the survivors —
    even past the f bound, where the protocol simply halts."""
    sched, net, nodes = build_cluster(n, pbft_factory, seed=seed)
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
    """Any two-way partition, healed at any time: no forks, ever —
    the Figure 10 result as a property."""
    n = 7
    split = min(split, n - 1)
    sched, net, nodes = build_cluster(n, pbft_factory, seed=seed)
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
    """Exactly f non-primary crashes: the survivors commit everything
    (Figure 9's 16-server case in miniature)."""
    sched, net, nodes = build_cluster(n, pbft_factory, seed=seed)
    f = nodes[0].protocol.f
    # Crash the tail replicas; the view-0 primary (index 0) survives,
    # so no view change is even needed.
    for victim in nodes[-f:] if f else []:
        victim.crash()
    alive = nodes[: n - f]
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
    """The paper's "random response" failure mode: corrupted messages
    fail verification and are dropped; safety holds throughout."""
    sched, net, nodes = build_cluster(4, pbft_factory, seed=seed)
    submit_everywhere(nodes, [make_tx(i) for i in range(20)])
    window = net.add_corruption(corruption_rate)
    sched.schedule_at(drop_window, net.remove_corruption, window)
    sched.run_until(40.0)
    assert chains_are_prefixes(nodes)
    for node in nodes:
        assert node.chain().fork_blocks == 0


@settings(max_examples=8, deadline=None)
@given(
    extra_delay=st.floats(min_value=0.05, max_value=1.5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_safety_under_network_delay(extra_delay, seed):
    """The paper's "network delay" failure mode: arbitrary injected
    latency slows commits (possibly through view changes) but never
    forks the log."""
    sched, net, nodes = build_cluster(4, pbft_factory, seed=seed)
    submit_everywhere(nodes, [make_tx(i) for i in range(20)])
    window = net.add_delay(extra_delay)
    sched.schedule_at(10.0, net.remove_delay, window)
    sched.run_until(40.0)
    assert chains_are_prefixes(nodes)
    for node in nodes:
        assert node.chain().fork_blocks == 0
