"""Property-based tests for the mempool against a model implementation.

The mempool sits between admission and every consensus protocol, so
its invariants (FIFO order, deduplication, batch bounds)
must hold for arbitrary operation sequences, not just the happy paths
the unit tests walk.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Mempool, Transaction


def tx(i: int) -> Transaction:
    return Transaction.create(f"c{i % 3}", "kv", "write", (i,), nonce=i)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 40)),
        st.tuples(st.just("remove"), st.integers(0, 40)),
        st.tuples(st.just("peek"), st.integers(1, 10)),
    ),
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(operations=ops)
def test_mempool_matches_ordered_dict_model(operations):
    """The pool behaves as a FIFO dict, always."""
    pool = Mempool()
    model: dict[str, Transaction] = {}
    for op, arg in operations:
        t = tx(arg)
        if op == "add":
            accepted = pool.add(t, now=0.0)
            assert accepted == (t.tx_id not in model)
            if accepted:
                model[t.tx_id] = t
        elif op == "remove":
            pool.remove([t.tx_id])
            model.pop(t.tx_id, None)
        else:  # peek
            batch = pool.peek_batch(arg)
            expected = list(model.values())[:arg]
            assert [b.tx_id for b in batch] == [e.tx_id for e in expected]
        assert len(pool) == len(model)
        for tx_id in model:
            assert tx_id in pool


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(
        st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
    ),
    now_delta=st.floats(min_value=0.0, max_value=50.0),
)
def test_oldest_age_is_first_arrival(arrivals, now_delta):
    """The watchdog age is measured from the FIFO head, whatever the
    arrival times were (PBFT's request timeout depends on this)."""
    pool = Mempool()
    for i, at in enumerate(arrivals):
        pool.add(tx(i), now=at)
    now = max(arrivals) + now_delta
    assert pool.oldest_pending_age(now) == now - arrivals[0]
