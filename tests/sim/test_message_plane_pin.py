"""Pinned run digests: the message plane may get cheaper, never different.

Every digest below is the sha256 of the canonical ``result_to_dict``
JSON of one short run, captured on the commit *before* the event-elision
work (two scheduler events per message, one PBFT watchdog per replica,
RPC timeouts cancelled on reply, ``Network.send`` fast path). Ten specs:
short versions of the six hostbench workloads, plus one run each through
the slow paths of ``Network.send`` — a partition, a delay window, a
corruption window and a byzantine ``delay_votes`` send filter.

A drifting digest means an elided event was *not* the next one the
scheduler would have dispatched anyway (or an RNG draw moved): a model
change, not an optimisation. Recapture only for a change that
deliberately alters simulated output.
"""

import hashlib
import itertools
import json

import pytest

from repro.chain import transaction
from repro.core import ExperimentSpec, run_experiment
from repro.core.scenario import build_fault_schedule
from repro.core.suitestore import result_to_dict

HL = dict(platform="hyperledger", workload="ycsb", n_servers=4, n_clients=4)

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
             duration_s=8,
             faults={"crashes": [{"at_time": 1.5, "count": 1,
                                  "recover_at": 5.0,
                                  "recovery_mode": "cold"}]}),
        "3844f5161e50858cb565e3759971af2ccb70a3e71add98fa5a101cdcd62d1863",
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
}


def run_digest(kwargs: dict) -> str:
    kwargs = dict(kwargs, seed=5)
    if "faults" in kwargs:
        kwargs["faults"] = build_fault_schedule(kwargs["faults"])
    data = result_to_dict(run_experiment(ExperimentSpec(**kwargs)))
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_run_digest_is_the_pre_elision_digest(name, monkeypatch):
    # tx ids derive from a process-global counter and pick geth's gossip
    # targets; start it at zero so the digest does not depend on which
    # tests ran earlier in this interpreter.
    monkeypatch.setattr(transaction, "_tx_counter", itertools.count())
    kwargs, expected = PINNED[name]
    assert run_digest(kwargs) == expected
