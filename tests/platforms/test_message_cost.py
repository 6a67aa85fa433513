"""What one message costs each platform's node to handle.

``PlatformNode.message_cost`` prices every kind a node receives from
its platform's execution-cost model. A message whose payload is a block
(a proposal, a mined or sealed block, a sync batch) costs one
consensus message plus one signature verification per transaction it
carries; everything else costs one flat price. The nodes here run with
a distinct power of two for every price, so each assertion names the
one price its kind maps to. The table was captured on the tree before
the kinds that carry a block moved onto the protocols.
"""

import pytest

from repro.chain import Block, Transaction
from repro.platforms import build_cluster
from repro.sim import Message

TXS = 3

#: One distinct, exactly representable price per cost-model field.
PRICES = {"tx_gossip_cost_s": 1.0, "tx_ingress_cost_s": 2.0,
          "consensus_msg_cost_s": 4.0, "verify_cost_s": 8.0,
          "rpc_cost_s": 16.0, "tx_broadcast_send_cost_s": 32.0}

#: Platform -> its own consensus kinds that carry a block.
BLOCK_KINDS = {
    "hyperledger": ("pbft/pre-prepare",),
    "ethereum": ("pow/block",),
    "parity": ("poa/block",),
    "erisdb": ("tm/proposal",),
}

#: Platform -> its own consensus kinds priced as one control message.
CONTROL_KINDS = {
    "hyperledger": ("pbft/prepare", "pbft/commit", "pbft/view-change",
                    "pbft/new-view", "pbft/sync-req", "pbft/sync-resp"),
    "ethereum": ("gossip/fetch-req", "gossip/fetch-resp"),
    "parity": ("gossip/fetch-req", "gossip/fetch-resp"),
    "erisdb": ("tm/prevote", "tm/precommit", "tm/sync-req", "tm/sync-resp"),
}


def _block(height: int = 1) -> Block:
    txs = tuple(
        Transaction.create("alice", "kvstore", "write", (f"k{i}", "v"), nonce=i)
        for i in range(TXS)
    )
    return Block.build(height=height, parent_hash=b"\0" * 32, transactions=txs,
                       state_root=b"", proposer="server-0", timestamp=1.0)


def priced_cluster(platform):
    return build_cluster(platform, 2, seed=1,
                         config_overrides={"execution": PRICES})


@pytest.fixture(params=sorted(BLOCK_KINDS))
def node(request):
    cluster = priced_cluster(request.param)
    yield cluster.nodes[0]
    cluster.close()


def cost(node, kind, payload=None) -> float:
    return node.message_cost(Message("server-1", node.node_id, kind, payload))


def test_every_kind_costs_what_its_cost_model_says(node):
    platform = node.config.name
    assert cost(node, "tx/gossip") == 1.0
    assert cost(node, "rpc/send_tx") == 2.0
    for kind in ("rpc/get_blocks", "rpc/query"):
        assert cost(node, kind, {}) == 16.0
    for kind in BLOCK_KINDS[platform]:
        assert cost(node, kind, _block()) == 4.0 + 8.0 * TXS
    for kind in CONTROL_KINDS[platform]:
        assert cost(node, kind, {}) == 4.0
    assert cost(node, "sync/request", {}) == 4.0
    # A sync batch verifies every transaction of every block it carries.
    assert cost(node, "sync/blocks", {"blocks": [_block(1), _block(2)]}) == (
        4.0 + 8.0 * 2 * TXS
    )


def test_every_consensus_kind_is_priced_above(node):
    platform = node.config.name
    assert set(node.protocol.message_kinds) == (
        set(BLOCK_KINDS[platform]) | set(CONTROL_KINDS[platform])
    )


def test_parity_sign_request_costs_one_ingress():
    cluster = priced_cluster("parity")
    assert cost(cluster.nodes[0], "parity/sign-req", {}) == 2.0
    cluster.close()


def test_erisdb_subscription_rpcs_cost_one_rpc():
    cluster = priced_cluster("erisdb")
    for kind in ("rpc/subscribe", "rpc/unsubscribe"):
        assert cost(cluster.nodes[0], kind, {}) == 16.0
    cluster.close()
