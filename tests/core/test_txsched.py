"""Unit tests for the intra-block transaction scheduler.

``dependency_levels`` is the determinism-critical piece of parallel
execution: the levels it assigns decide both the charged makespan and
what rides along in shared ``ExecutionCache`` entries, so the hazard
rules (RAW/WAW strictly later, WAR not earlier) are pinned here case
by case, alongside the recording ``TxView`` overlay and the
least-loaded-worker makespan.
"""

import pytest

from repro.core.txsched import (
    TxView,
    dependency_levels,
    level_makespan,
)
from repro.platforms.base import _NamespacedState
from repro.platforms.ethereum import EthereumState


# ---------------------------------------------------------------------------
# dependency_levels
# ---------------------------------------------------------------------------
def test_disjoint_txs_all_level_one():
    accesses = [({b"r%d" % i}, {b"w%d" % i}) for i in range(8)]
    assert dependency_levels(accesses) == (1,) * 8


def test_empty_block():
    assert dependency_levels([]) == ()


def test_read_after_write_is_strictly_later():
    # tx0 writes k; tx1 reads k: tx1 consumed tx0's value.
    assert dependency_levels([(set(), {b"k"}), ({b"k"}, set())]) == (1, 2)


def test_write_after_write_is_strictly_later():
    # Same-key writers must serialize so the merged prefix at every
    # level equals the serial prefix.
    assert dependency_levels([(set(), {b"k"}), (set(), {b"k"})]) == (1, 2)


def test_write_after_read_may_share_a_level():
    # tx0 reads k; tx1 writes k. tx0 reads the pre-level snapshot,
    # which excludes tx1's write, so the same level is hazard-free.
    assert dependency_levels([({b"k"}, set()), (set(), {b"k"})]) == (1, 1)


def test_write_after_read_never_earlier():
    # tx0 writes a (level 1); tx1 reads a (level 2) and also reads k;
    # tx2 writes k: must not run before tx1's level.
    accesses = [
        (set(), {b"a"}),
        ({b"a", b"k"}, set()),
        (set(), {b"k"}),
    ]
    assert dependency_levels(accesses) == (1, 2, 2)


def test_single_hot_key_degrades_to_serial_chain():
    # The adversarial workload: every transaction reads and writes one
    # key — the schedule must be the serial chain 1..N.
    accesses = [({b"hot"}, {b"hot"}) for _ in range(16)]
    assert dependency_levels(accesses) == tuple(range(1, 17))


def test_chain_through_intermediate_keys():
    # tx0 writes a; tx1 reads a writes b; tx2 reads b: a 3-level chain
    # even though tx0 and tx2 share no key directly.
    accesses = [
        (set(), {b"a"}),
        ({b"a"}, {b"b"}),
        ({b"b"}, set()),
    ]
    assert dependency_levels(accesses) == (1, 2, 3)


def test_levels_are_order_sensitive_but_deterministic():
    accesses = [(set(), {b"k"}), ({b"k"}, set()), (set(), {b"x"})]
    assert dependency_levels(accesses) == dependency_levels(accesses)
    assert dependency_levels(accesses) == (1, 2, 1)


# ---------------------------------------------------------------------------
# level_makespan
# ---------------------------------------------------------------------------
def test_makespan_one_worker_is_the_serial_sum():
    durations = [0.3, 0.1, 0.4, 0.15]
    levels = (1, 1, 2, 2)
    assert level_makespan(durations, levels, 1) == pytest.approx(
        sum(durations)
    )


def test_makespan_parallel_level_costs_its_longest_worker():
    # One level, 4 equal txs, 2 workers: two per worker.
    assert level_makespan([1.0] * 4, (1, 1, 1, 1), 2) == pytest.approx(2.0)
    # 4 workers: one each.
    assert level_makespan([1.0] * 4, (1, 1, 1, 1), 4) == pytest.approx(1.0)
    # More workers than txs changes nothing further.
    assert level_makespan([1.0] * 4, (1, 1, 1, 1), 16) == pytest.approx(1.0)


def test_makespan_levels_are_barriers():
    # Two levels of one tx each: no overlap regardless of workers.
    assert level_makespan([1.0, 1.0], (1, 2), 8) == pytest.approx(2.0)


def test_makespan_least_loaded_assignment():
    # Block order onto least-loaded: [3] -> w0, [1] -> w1, [1] -> w1,
    # [1] -> w1: loads (3, 3), makespan 3 — not the 4 a round-robin
    # would give.
    assert level_makespan([3.0, 1.0, 1.0, 1.0], (1,) * 4, 2) == (
        pytest.approx(3.0)
    )


def test_makespan_length_mismatch_raises():
    with pytest.raises(ValueError):
        level_makespan([1.0], (1, 2), 2)


def test_makespan_empty_block_is_zero():
    assert level_makespan([], (), 4) == 0.0


# ---------------------------------------------------------------------------
# TxView capture
# ---------------------------------------------------------------------------
class _DictParent:
    def __init__(self, **kv):
        self.data = {k.encode(): v for k, v in kv.items()}

    def get(self, key):
        return self.data.get(key)

    def put(self, key, value):
        self.data[key] = value

    def delete(self, key):
        self.data.pop(key, None)


def test_txview_records_parent_reads_only():
    view = TxView(_DictParent(a=b"1"))
    assert view.get(b"a") == b"1"
    view.put(b"b", b"2")
    assert view.get(b"b") == b"2"  # read-your-writes, not a parent read
    reads, writes = view.access_sets()
    assert reads == {b"a"}
    assert writes == {b"b"}


def test_txview_buffers_until_merge():
    parent = _DictParent(a=b"old")
    view = TxView(parent)
    view.put(b"a", b"new")
    view.delete(b"gone")
    assert parent.data[b"a"] == b"old"  # nothing leaked pre-merge
    view.merge_into(parent)
    assert parent.data[b"a"] == b"new"
    assert b"gone" not in parent.data


def test_txview_read_after_own_delete_stays_local():
    view = TxView(_DictParent(a=b"1"))
    view.delete(b"a")
    assert view.get(b"a") is None
    reads, writes = view.access_sets()
    assert reads == set()  # the delete shadowed the parent
    assert writes == {b"a"}


def test_txview_last_write_wins_within_a_tx():
    parent = _DictParent()
    view = TxView(parent)
    view.put(b"k", b"v1")
    view.put(b"k", b"v2")
    view.merge_into(parent)
    assert parent.data[b"k"] == b"v2"


def test_txview_capture_through_evm_state_storage():
    # Every EVM SLOAD/SSTORE funnels through StateStorage ->
    # _NamespacedState -> the platform state, so a TxView behind the
    # facade sees the namespaced 32-byte slot keys with no VM changes.
    from repro.evm.vm import StateStorage

    state = EthereumState()
    view = TxView(state)
    storage = StateStorage(_NamespacedState(view, "evmc"))
    storage.set_word(5, 77)
    assert storage.get_word(5) == 77
    assert storage.get_word(9) == 0  # absent slot: a parent read
    storage.set_word(5, 0)  # zero-store deletes the slot
    reads, writes = view.access_sets()
    slot5 = b"evmc/" + (5).to_bytes(32, "big")
    slot9 = b"evmc/" + (9).to_bytes(32, "big")
    assert writes == {slot5}
    assert reads == {slot9}
    assert view.writes[slot5] is None  # net effect of the zero-store

