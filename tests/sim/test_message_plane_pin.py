"""Pinned run digests: the message plane may get cheaper, never different.

Every digest below is the sha256 of the canonical ``result_to_dict``
JSON of one short run, captured on the commit *before* the event-elision
work (two scheduler events per message, one PBFT watchdog per replica,
RPC timeouts cancelled on reply, ``Network.send`` fast path). Ten specs:
short versions of the six hostbench workloads, plus one run each through
the slow paths of ``Network.send`` — a partition, a delay window, a
corruption window and a byzantine ``delay_votes`` send filter.

The rows from ``erisdb_subscribe`` down were captured on the commit
*before* the four client implementations became one load driver, where
each closed-loop row read the same digest under all three
``client_mode`` values. They replace the cross-implementation
differential tests and pin the driver paths the first ten rows do not
reach: the push feed, blocking mode, the backlog/retry path, the
in-flight cap, one client, more clients than servers, per-client
reservoirs, eight (platform, n_clients, rate, seed) points that stand in
for the old hypothesis sweep, and the open loop's refusal and failover
retries.

``hl_failover_timeouts`` was captured on the commit before RPC
timeouts stopped arming a timer per request: a leader crash with no
recovery, so submit and poll timeouts both fire and drive the clients'
failover.

``eth_cold_recovery``, ``parity_cold_recovery`` and
``eris_cold_recovery`` were captured on the commit before each platform
became one node class built from ``_new_state`` / ``_new_protocol``:
the cold path rebuilds a node's state from that hook, and before them
only ``hl_crash_failover`` reached it.

``hl_crash_failover`` was recaptured when the PBFT log stopped holding
executed sequences, a change that deliberately alters simulated output:
the recovered ``server-0`` no longer starts a view change for entries it
caught up on by sync. Its run JSON differs from the old capture only in
``view_changes`` (7 -> 6).

A drifting digest means an elided event was *not* the next one the
scheduler would have dispatched anyway (or an RNG draw moved): a model
change, not an optimisation. Recapture only for a change that
deliberately alters simulated output.
"""

import hashlib
import json

import pytest

from repro.core import ExperimentSpec, run_experiment
from repro.core.scenario import build_fault_schedule
from repro.core.suitestore import result_to_dict

HL = dict(platform="hyperledger", workload="ycsb", n_servers=4, n_clients=4)
ETH = dict(HL, platform="ethereum", duration_s=30)
COLD_CRASH = {"crashes": [{"at_time": 1.5, "count": 1, "recover_at": 5.0,
                           "recovery_mode": "cold"}]}

#: name -> (ExperimentSpec kwargs with ``faults`` in JSON shape, digest).
PINNED = {
    "hl_ycsb_peak": (
        dict(platform="hyperledger", workload="ycsb",
             workload_params={"record_count": 1000},
             n_servers=8, n_clients=8, request_rate_tx_s=256, duration_s=3),
        "d0a6d55e9b86d3f6cedf967425fcac66d6676697591df0bb79ddeb93beb87df6",
    ),
    "hl_smallbank_steady": (
        dict(platform="hyperledger", workload="smallbank",
             workload_params={"n_accounts": 2000},
             n_servers=8, n_clients=8, request_rate_tx_s=128, duration_s=3),
        "5dd13b470b902cbeb0ebcf3bd8f7a2112c22927ee32d8704f207b8b5982bb4c4",
    ),
    "eth_ycsb_pow": (
        dict(platform="ethereum", workload="ycsb",
             n_servers=8, n_clients=8, request_rate_tx_s=12, duration_s=40),
        "e8220fd19920c6b7d00cb6821d32727e9f4823d572396a3fa96d08a523d5631c",
    ),
    "parity_smallbank_overload": (
        dict(platform="parity", workload="smallbank",
             n_servers=8, n_clients=8, request_rate_tx_s=8, duration_s=12),
        "aa9e539c476c1590447c18141df49aeb00f40da41d6efedb0fa7689ac61456aa",
    ),
    "eris_ycsb_openloop": (
        dict(platform="erisdb", workload="ycsb",
             workload_params={"record_count": 2000}, n_servers=4,
             arrival={"process": "poisson", "rate": 1200,
                      "accounts": 100_000, "zipf_s": 1.1},
             stats_reservoir=1000, duration_s=3),
        "3e882bed72877f0544332b2e8dec3f2cb02456ea42d98e342cb93bf43afab85c",
    ),
    "hl_crash_failover": (
        dict(platform="hyperledger", workload="ycsb",
             n_servers=7, n_clients=8, request_rate_tx_s=100, failover=True,
             duration_s=8, faults=COLD_CRASH),
        "0164593b7897eee6ec8a79e823c4dcac8bcf11c4aa223075e82fa1e1b8b8794f",
    ),
    "partition": (
        dict(platform="ethereum", workload="ycsb", n_servers=4, n_clients=4,
             request_rate_tx_s=20, duration_s=20,
             faults={"partitions": [{"at_time": 5.0, "until_time": 12.0}]}),
        "0b2a02f1866c7a33adde5528139b5aaa6f1a413b20c7e641f25bfc8d61938332",
    ),
    "delay_window": (
        dict(HL, request_rate_tx_s=40, duration_s=4,
             faults={"delays": [{"at_time": 1.0, "until_time": 3.0,
                                 "extra_s": 0.05}]}),
        "0a5d6ccf3f4d7ab222d51e4c25fcb178914fe56f1ef79f83318f738347483331",
    ),
    "corruption_window": (
        dict(HL, platform="erisdb", request_rate_tx_s=40, duration_s=4,
             faults={"corruptions": [{"at_time": 1.0, "until_time": 3.0,
                                      "rate": 0.1}]}),
        "cf8734efe4cbd47c0b415a99c38b91663c9cda11c140f2c1edaa07c41ec70479",
    ),
    "byzantine_delay_votes": (
        dict(HL, request_rate_tx_s=40, duration_s=4,
             faults={"byzantines": [{"at_time": 1.0, "until_time": 3.0,
                                     "count": 1, "behavior": "delay_votes",
                                     "delay_s": 0.3}]}),
        "f3286d07e27c384bc8c1229e8718b22d28d001cefda541e2501ee35e3a592c21",
    ),
    "erisdb_subscribe": (
        dict(HL, platform="erisdb", n_clients=2, request_rate_tx_s=80,
             duration_s=6, subscribe=True),
        "790200449eb202695b109c3f3fb601f48bc087153ba9e4f749deed493335eef2",
    ),
    "hl_blocking": (
        dict(HL, n_clients=2, request_rate_tx_s=500, duration_s=6,
             blocking=True),
        "39c5eb4ad42c566ee1742d0a7a37fdbf1c3b7fa3b1d1e953db83febf71fe65f4",
    ),
    "parity_backlog_retry": (
        dict(platform="parity", workload="ycsb", n_servers=1, n_clients=2,
             request_rate_tx_s=150, duration_s=6),
        "bd235f70a44a8bdfec3b0689880bdf121cdf209b3e4252db7ee605b088252e94",
    ),
    "hl_inflight_cap": (
        dict(HL, workload="donothing", n_clients=2, request_rate_tx_s=5000,
             threads_per_client=4, duration_s=3),
        "294cb671d54b8516608b0f204bf9a012dd170a5559de96f74d219265967510bc",
    ),
    "hl_one_client": (
        dict(HL, n_clients=1, request_rate_tx_s=80, duration_s=6),
        "8c1d923f73841e08bfe1c919ee80614347f463947388336bbcd3d3316485eb4b",
    ),
    "hl_five_clients_two_servers": (
        dict(HL, n_servers=2, n_clients=5, request_rate_tx_s=20, duration_s=4),
        "f37d0464fe8623d03f16b4b1b32f6b1f7218fd62e710ddd438358af7879e2c9d",
    ),
    "hl_closed_reservoir": (
        dict(HL, request_rate_tx_s=40, stats_reservoir=100, duration_s=6),
        "7a8fcd2a58b71bf9166055bf97c253c30573ff72bbb07fb08c53775ac867b984",
    ),
    "eth_4x2": (
        dict(ETH, n_clients=2, request_rate_tx_s=80),
        "e22f7c64a39849cc12945fc3faaa05fc34c3acc5df9e309957080c637ddb0b79",
    ),
    "openloop_parity_refusal": (
        dict(platform="parity", workload="ycsb", n_servers=4,
             arrival={"process": "poisson", "rate": 300, "accounts": 1000,
                      "zipf_s": 0.0},
             duration_s=6),
        "01d84a6a17dc680ed066643c49217af528fd0d91cd7a8440efdb4fa389b2d42c",
    ),
    "openloop_hl_failover": (
        dict(platform="hyperledger", workload="ycsb", n_servers=7,
             arrival={"process": "poisson", "rate": 400, "accounts": 1000,
                      "zipf_s": 1.1},
             failover=True, duration_s=8, faults=COLD_CRASH),
        "41190dc933a43102338a33fe836395a0a7d3a28d5ad5e4ae2524e433381ab983",
    ),
    "hl_failover_timeouts": (
        dict(HL, request_rate_tx_s=40, failover=True, duration_s=12,
             faults={"crashes": [{"at_time": 2.0, "count": 1}]}),
        "eb92bf8cbb4b5f5bba334e0e4c14263f2fa03cfac65bf46c2240a85a19371e62",
    ),
    "eth_cold_recovery": (
        dict(HL, platform="ethereum", request_rate_tx_s=20, duration_s=30,
             faults=COLD_CRASH),
        "59b2cd89c6f443a1554f8bd2e14289e3720c87b35174db038bfe42e026800b7d",
    ),
    "parity_cold_recovery": (
        dict(HL, platform="parity", workload="smallbank",
             request_rate_tx_s=20, duration_s=10, faults=COLD_CRASH),
        "4afe9457b7c524f4ae5be77bab2737e30db70449f8a8a3b68d0288b8ec17b817",
    ),
    "eris_cold_recovery": (
        dict(HL, platform="erisdb", request_rate_tx_s=40, duration_s=8,
             faults=COLD_CRASH),
        "6ebbc8fd5733d87dfa6d989084bb0609fcb4a18e73217b1dc7b15767eec21ff0",
    ),
    "drawn_hyp_1c_30_s0": (
        dict(HL, n_clients=1, request_rate_tx_s=30, duration_s=8, seed=0),
        "32625b4ab225bcd3cf08828df24530b215ae06881ef1d9b13666b337d64e7e05",
    ),
    "drawn_hyp_2c_75_s17": (
        dict(HL, n_clients=2, request_rate_tx_s=75, duration_s=8, seed=17),
        "38b43748d8fa63effa5af9f277e51ac188b21dc334717514614e614a716fd336",
    ),
    "drawn_hyp_3c_120_s4242": (
        dict(HL, n_clients=3, request_rate_tx_s=120, duration_s=8, seed=4242),
        "5ccc8ecc34bd42ce7ec20dffbc187a269c47576f284305585bfb69caeed7df29",
    ),
    "drawn_hyp_4c_30_s65535": (
        dict(HL, n_clients=4, request_rate_tx_s=30, duration_s=8, seed=65535),
        "86e473adda61fedbb30d4ad1a184449b9520900171840450329bc0bc9c391f19",
    ),
    "drawn_eth_1c_120_s1": (
        dict(ETH, n_clients=1, request_rate_tx_s=120, seed=1),
        "3faec09f3ff2f3760ab616d94fcb433e9a7c48c1431aefdb4d311ffbc4a92bc1",
    ),
    "drawn_eth_2c_30_s313": (
        dict(ETH, n_clients=2, request_rate_tx_s=30, seed=313),
        "8d89902f42f2695eecbe81c59b375cc5d70d3d2a7c55b5ef5c36485fd9d7beca",
    ),
    "drawn_eth_3c_75_s9001": (
        dict(ETH, n_clients=3, request_rate_tx_s=75, seed=9001),
        "2eeeab340c3393972118bbf4fd41889abd06e8a303de99769db7e90693e9483d",
    ),
    "drawn_eth_4c_120_s40000": (
        dict(ETH, n_clients=4, request_rate_tx_s=120, seed=40000),
        "fea4c701d9dbc407272c4f06d699cef6f3bd5c615d192bbff3e9a285cba815ec",
    ),
}

#: Rows that exist to drive a refusal path: their run must refuse something.
REFUSING = {"parity_smallbank_overload", "parity_backlog_retry",
            "openloop_parity_refusal", "openloop_hl_failover",
            "hl_failover_timeouts"}


def run_digest(kwargs: dict) -> tuple[str, dict]:
    """sha256 of the run's canonical JSON, and that JSON's ``summary``."""
    kwargs = {"seed": 5, **kwargs}
    if "faults" in kwargs:
        kwargs["faults"] = build_fault_schedule(kwargs["faults"])
    data = result_to_dict(run_experiment(ExperimentSpec(**kwargs)))
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), data["summary"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_digest_is_the_pre_elision_digest(name):
    kwargs, expected = PINNED[name]
    digest, summary = run_digest(kwargs)
    assert digest == expected
    if name in REFUSING:
        assert summary["rejected"] > 0
