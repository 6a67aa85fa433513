"""Differential guarantee: tracing never changes the simulated run.

The digests below were captured on the commit *before* the tracing
subsystem existed, over the canonical JSON of ``result_to_dict`` for one
short run per platform. Every cluster has a tracer, so every run file
is the pre-tracing file plus exactly one new key —
``summary.stage_breakdown``. Dropping that key reproduces the old
bytes, so every metric, series, and the spec hash itself are untouched.

If a digest drifts, tracing leaked into the simulation (a charged
cost, a scheduled event, a perturbed RNG stream) — exactly the bug class
this test exists to catch. Recapture the constants only for a change
that intentionally alters run output.
"""

import hashlib
import json

import pytest

from repro.core import ExperimentSpec, run_experiment
from repro.core.suitestore import result_to_dict, spec_hash

#: platform -> (pre-tracing spec hash, pre-tracing result digest).
PRE_TRACING = {
    "ethereum": (
        "59364530a45a3b37",
        "ecc357fbf437fb4167d7049ea9a87331383a8be02b22ac7025804d1c20c0b09d",
    ),
    "parity": (
        "93fc37192012b6d6",
        "2bf4794ad83be85ac108721369e5ad09c5dbebce46573aac65018896284517f2",
    ),
    "hyperledger": (
        "561070bd7815281d",
        "cf0aa20da6a91039697c8e68ea2a571e3f78c0a87a81e3cd9402b41427fe3b0a",
    ),
    "erisdb": (
        "82d03abe52c273de",
        "0de299a3507201a93002a9fc5d0e43f29cd043e5c77de55fcce2023a5c12da1f",
    ),
}


def _spec(platform: str) -> ExperimentSpec:
    return ExperimentSpec(
        platform=platform,
        workload="ycsb",
        n_servers=2,
        n_clients=2,
        request_rate_tx_s=20.0,
        duration_s=5.0,
        seed=3,
    )


def _digest(data: dict) -> str:
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("platform", sorted(PRE_TRACING))
def test_tracing_on_adds_only_the_breakdown(platform):
    expected_hash, expected_digest = PRE_TRACING[platform]
    spec = _spec(platform)
    assert spec_hash(spec) == expected_hash
    data = result_to_dict(run_experiment(spec))
    assert "stage_breakdown" in data["summary"]
    data["summary"].pop("stage_breakdown")
    assert _digest(data) == expected_digest

