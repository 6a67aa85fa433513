"""The chain-tail sync's wire format, on both BFT protocols.

PBFT and Tendermint share one sync request/response pair
(:meth:`~repro.consensus.base.ConsensusProtocol._request_sync` and
``_on_sync_req``); only the message kinds differ. The expected sends
were captured from the per-protocol copies the shared one replaced, so
a change to either message's kind or size fails here.
"""

from repro.consensus import pbft, tendermint

from .harness import build_cluster, make_tx, submit_everywhere
from .test_pbft import pbft_factory
from .test_tendermint import tm_factory


def _log_sends(network, kinds):
    """``(sender, recipient, kind, size_bytes)`` of every send of ``kinds``."""
    log = []
    send = network.send

    def logged(sender, recipient, kind, payload, size_bytes=256):
        if kind in kinds:
            log.append((sender, recipient, kind, size_bytes))
        return send(sender, recipient, kind, payload, size_bytes)

    network.send = logged
    return log


def test_pbft_lagging_replica_syncs_the_chain_tail():
    sched, net, nodes = build_cluster(4, pbft_factory())
    log = _log_sends(net, (pbft.SYNC_REQ, pbft.SYNC_RESP))
    lagging = nodes[3]
    lagging.crash()
    submit_everywhere(nodes[:3], [make_tx(i) for i in range(25)])
    sched.run_until(10.0)
    lagging.recover()
    lagging.protocol._running = True
    submit_everywhere(nodes, [make_tx(i) for i in range(100, 125)])
    sched.run_until(40.0)
    assert lagging.chain().height == nodes[0].chain().height == 6
    assert log == [
        ("n3", "n0", "pbft/sync-req", 96),
        ("n0", "n3", "pbft/sync-resp", 4200),
    ]


def test_tendermint_lagging_validator_syncs_the_chain_tail():
    sched, net, nodes = build_cluster(4, tm_factory())
    log = _log_sends(net, (tendermint.SYNC_REQ, tendermint.SYNC_RESP))
    ids = [n.node_id for n in nodes]
    net.partition([ids[:1], ids[1:]])
    submit_everywhere(nodes, [make_tx(i) for i in range(10)])
    sched.run_until(10.0)
    net.heal()
    submit_everywhere(nodes, [make_tx(i) for i in range(100, 110)])
    sched.run_until(40.0)
    assert [n.chain().height for n in nodes] == [2, 2, 2, 2]
    req, resp = "tm/sync-req", "tm/sync-resp"
    assert log == [
        ("n0", "n2", req, 96),
        ("n0", "n2", req, 96),
        ("n0", "n3", req, 96),
        ("n0", "n1", req, 96),
        ("n2", "n0", resp, 1610),
        ("n2", "n0", resp, 1610),
        ("n1", "n0", resp, 1610),
        ("n0", "n1", req, 96),
        ("n3", "n0", resp, 1610),
        ("n0", "n2", req, 96),
        ("n2", "n0", resp, 3240),
        ("n1", "n0", resp, 3240),
    ]
