"""Arrival-process generators: validation, determinism, distribution.

The open-loop driver's workload is entirely defined by the
(gap, sender) stream an :class:`~repro.core.workload.ArrivalGenerator`
emits, so the stream itself must be pinned: same spec + same seed must
reproduce the identical sequence in-process and across interpreter
restarts (resumable suites re-create generators in fresh processes),
and the distributions must actually be what the spec names.
"""

import random
import subprocess
import sys
from collections import Counter

import pytest

from repro.core.workload import ARRIVAL_PROCESSES, ArrivalGenerator, ArrivalSpec
from repro.errors import BenchmarkError


def _gen(seed=7, **overrides) -> ArrivalGenerator:
    spec = ArrivalSpec(
        process=overrides.pop("process", "poisson"),
        rate_tx_s=overrides.pop("rate_tx_s", 100.0),
        accounts=overrides.pop("accounts", 1000),
        zipf_s=overrides.pop("zipf_s", 0.0),
    )
    assert not overrides
    return ArrivalGenerator(spec, random.Random(seed))


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    [
        {"process": "pareto"},
        {"rate_tx_s": 0.0},
        {"rate_tx_s": -5.0},
        {"accounts": 0},
        {"accounts": -1},
        {"zipf_s": -0.5},
    ],
)
def test_degenerate_specs_rejected_at_construction(bad):
    base = dict(process="poisson", rate_tx_s=100.0, accounts=10, zipf_s=0.0)
    base.update(bad)
    with pytest.raises(BenchmarkError):
        ArrivalSpec(**base)


def test_from_dict_uses_json_key_names_and_round_trips():
    data = {"process": "poisson", "rate": 500.0, "accounts": 100, "zipf_s": 1.1}
    spec = ArrivalSpec.from_dict(data)
    assert spec.rate_tx_s == 500.0
    assert (
        spec.process, spec.rate_tx_s, spec.accounts, spec.zipf_s
    ) == tuple(data.values())


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(BenchmarkError, match="lambda"):
        ArrivalSpec.from_dict({"process": "poisson", "rate": 1.0, "lambda": 2})


@pytest.mark.parametrize(
    "data, where",
    [
        ({"rate": "fast"}, "arrival.rate: expected float"),
        ({"accounts": 1.5}, "arrival.accounts: expected int"),
        ({"accounts": True}, "arrival.accounts: expected int"),
        ({"zipf_s": "x"}, "arrival.zipf_s: expected float"),
        ({"process": 1}, "arrival.process: expected str"),
    ],
)
def test_from_dict_type_checks_values(data, where):
    """A mistyped value is named by path instead of failing in float()
    or being truncated by int()."""
    with pytest.raises(BenchmarkError, match=where):
        ArrivalSpec.from_dict(data)


def test_from_dict_coerces_json_ints_to_float_fields():
    spec = ArrivalSpec.from_dict({"rate": 500, "zipf_s": 1})
    assert spec == ArrivalSpec(rate_tx_s=500.0, zipf_s=1.0)
    assert type(spec.rate_tx_s) is float and type(spec.zipf_s) is float


def test_process_registry_is_exported():
    assert "poisson" in ARRIVAL_PROCESSES
    assert "uniform" in ARRIVAL_PROCESSES


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def test_same_seed_same_stream():
    first = _gen(seed=42).take(500)
    second = _gen(seed=42).take(500)
    assert first == second


def test_different_seeds_diverge():
    assert _gen(seed=1).take(50) != _gen(seed=2).take(50)


def test_stream_is_stable_across_process_restarts():
    """Resume and multi-process suites re-create generators in fresh
    interpreters; the stream may depend only on (spec, seed), never on
    hash randomization or interpreter state."""
    program = (
        "import random, json;"
        "from repro.core.workload import ArrivalSpec, ArrivalGenerator;"
        "spec = ArrivalSpec(process='poisson', rate_tx_s=250.0,"
        " accounts=5000, zipf_s=1.1);"
        "gen = ArrivalGenerator(spec, random.Random(99));"
        "print(json.dumps(gen.take(200)))"
    )
    outputs = [
        subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    # And the in-process stream agrees with the subprocess one.
    import json

    in_process = _gen(seed=99, rate_tx_s=250.0, accounts=5000, zipf_s=1.1)
    assert json.loads(outputs[0]) == [list(pair) for pair in in_process.take(200)]


# ---------------------------------------------------------------------------
# Distribution shape
# ---------------------------------------------------------------------------
def test_poisson_gaps_average_inverse_rate():
    gaps = [gap for gap, _ in _gen(rate_tx_s=200.0).take(20_000)]
    assert all(gap >= 0.0 for gap in gaps)
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1 / 200.0, rel=0.05)


def test_uniform_process_gaps_are_exactly_inverse_rate():
    gaps = [gap for gap, _ in _gen(process="uniform", rate_tx_s=50.0).take(100)]
    assert gaps == [1 / 50.0] * 100


def test_senders_stay_in_population():
    senders = [sender for _, sender in _gen(accounts=17).take(2000)]
    assert min(senders) >= 0
    assert max(senders) < 17
    assert len(set(senders)) == 17  # small population fully exercised


def test_zipf_skew_concentrates_on_low_ranks():
    """With s > 1 the head accounts must dominate; uniform must not."""
    skewed = Counter(s for _, s in _gen(zipf_s=1.2, accounts=1000).take(20_000))
    uniform = Counter(s for _, s in _gen(zipf_s=0.0, accounts=1000).take(20_000))
    top_skewed = sum(skewed[i] for i in range(10)) / 20_000
    top_uniform = sum(uniform[i] for i in range(10)) / 20_000
    assert top_skewed > 0.4  # head-heavy
    assert top_uniform < 0.05  # 10/1000 of a uniform draw, with slack


def test_zipf_draws_match_a_float_list_table():
    """The packed sender table draws exactly what a list of the same
    cumulative floats would."""
    from bisect import bisect_left
    from itertools import accumulate

    gen = _gen(seed=3, zipf_s=1.1, accounts=5000)
    rng = random.Random(3)
    table = list(accumulate(1.0 / (k + 1) ** 1.1 for k in range(5000)))
    expected = []
    for _ in range(2000):
        gap = rng.expovariate(100.0)
        u = rng.random() * table[-1]
        expected.append((gap, min(bisect_left(table, u), 4999)))
    assert gen.take(2000) == expected


def test_take_returns_exactly_n_and_advances():
    gen = _gen()
    first = gen.take(10)
    second = gen.take(10)
    assert len(first) == len(second) == 10
    assert first != second  # the stream advanced, not restarted
