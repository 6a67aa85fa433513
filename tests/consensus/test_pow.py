"""Unit tests for Proof-of-Work consensus."""


from repro.consensus import PoWConfig, ProofOfWork

from .harness import build_cluster, make_tx, queued_timers, submit_everywhere


def pow_factory(config=None):
    cfg = config or PoWConfig(base_block_interval=1.0, confirmation_depth=2)

    def factory(node, all_ids):
        return ProofOfWork(node, cfg)

    return factory


def test_single_miner_produces_blocks():
    sched, net, nodes = build_cluster(1, pow_factory())
    sched.run_until(30.0)
    height = nodes[0].chain().height
    # ~30 blocks expected at 1s interval; allow wide stochastic margin.
    assert 10 <= height <= 70


def test_block_interval_tracks_difficulty():
    cfg = PoWConfig(base_block_interval=5.0, confirmation_depth=2)
    sched, net, nodes = build_cluster(1, pow_factory(cfg))
    sched.run_until(100.0)
    assert 8 <= nodes[0].chain().height <= 40


def test_miners_converge_on_one_chain():
    sched, net, nodes = build_cluster(4, pow_factory())
    sched.run_until(40.0)
    tips = {node.chain().tip.hash for node in nodes}
    assert len(tips) == 1
    assert nodes[0].chain().height > 5


def test_transactions_get_mined():
    sched, net, nodes = build_cluster(2, pow_factory())
    txs = [make_tx(i) for i in range(20)]
    submit_everywhere(nodes, txs)
    sched.run_until(30.0)
    mined = {
        tx.tx_id
        for block in nodes[0].chain().main_branch()
        for tx in block.transactions
    }
    assert {t.tx_id for t in txs} <= mined


def test_partition_causes_forks_then_heals():
    sched, net, nodes = build_cluster(4, pow_factory())
    sched.run_until(10.0)
    net.partition([["n0", "n1"], ["n2", "n3"]])
    sched.run_until(40.0)
    net.heal()
    sched.run_until(80.0)
    # The losing side keeps its abandoned branch: forks visible there.
    assert max(node.chain().fork_blocks for node in nodes) > 0
    tips = {node.chain().tip.hash for node in nodes}
    assert len(tips) == 1  # converged after heal


def test_difficulty_grows_superlinearly_with_network():
    cfg = PoWConfig(base_block_interval=2.5, reference_nodes=8, difficulty_exponent=1.45)
    assert cfg.network_interval(8) == 2.5
    assert cfg.network_interval(16) > 2.5 * 2  # super-linear
    assert cfg.network_interval(4) == 2.5  # floor at reference


def test_confirmed_height_lags_tip():
    sched, net, nodes = build_cluster(1, pow_factory())
    sched.run_until(30.0)
    protocol = nodes[0].protocol
    assert protocol.confirmed_height() == max(0, nodes[0].chain().height - 2)


def test_stop_halts_mining():
    sched, net, nodes = build_cluster(1, pow_factory())
    sched.run_until(10.0)
    height = nodes[0].chain().height
    nodes[0].protocol.stop()
    sched.run_until(40.0)
    assert nodes[0].chain().height == height


def test_mining_consumes_cpu():
    sched, net, nodes = build_cluster(1, pow_factory())
    sched.run_until(20.0)
    # Mining burns all configured cores continuously.
    assert nodes[0].cpu_time >= 20.0 * 0.8 * 8


def test_deterministic_with_seed():
    def run():
        sched, net, nodes = build_cluster(3, pow_factory(), seed=9)
        sched.run_until(30.0)
        return [node.chain().tip.hash for node in nodes]

    assert run() == run()


def queued_solutions(node):
    """``(when, serial)`` of every queued ``_found_block`` timer of
    ``node`` armed in its current crash epoch."""
    return [
        (when, args[0]) for when, fn, args in queued_timers(node)
        if fn == node.protocol._found_block
    ]


def test_a_moved_tip_outdates_the_search_it_replaced():
    sched, net, nodes = build_cluster(4, pow_factory())
    while min(node.chain().height for node in nodes) < 1:
        sched.step()
    stale = []
    for node in nodes:
        serial = node.protocol._mining_serial
        solutions = queued_solutions(node)
        assert [s for _, s in solutions].count(serial) == 1
        stale += [(when, node) for when, s in solutions if s != serial]
    # The miners that received the block restarted; their old searches
    # are still queued, due later.
    assert stale
    when, node = min(stale, key=lambda item: item[0])
    sched.run_until(when)
    assert when not in [w for w, _ in queued_solutions(node)]  # dispatched
    assert not [
        block for block in node.committed_blocks
        if block.header.proposer == node.node_id and block.header.timestamp == when
    ]
