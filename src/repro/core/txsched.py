"""Deterministic intra-block transaction scheduling (parallel execution).

Sequential transaction execution is the classic throughput ceiling in
permissioned chains (BLOCKBENCH's execution-layer figures; the "What
Blocks My Blockchain's Throughput?" bottleneck taxonomy). This module
is the scheduler side of the fix: given per-transaction read/write
sets captured while a block executes, it derives a **dependency-level
schedule** — which transactions could have run concurrently on a
W-worker execution engine — and the simulated makespan of that
schedule. The platform charges the makespan instead of the serial sum,
which is what shrinks the ``execution`` stage in the bottleneck
breakdown.

Correctness model (why the parallel results are byte-identical to
serial execution):

* each transaction executes against a :class:`TxView` — an isolated
  per-transaction overlay whose reads fall through to the block state
  (pre-state plus every *earlier* transaction's merged writes), exactly
  the state a serial executor would have shown it;
* after each transaction, its net writes merge into the block overlay
  in transaction order — the **last-writer-deterministic merge**: when
  two transactions write one key, the higher block index wins, which is
  precisely the serial outcome;
* :func:`dependency_levels` then assigns each transaction the earliest
  *level* (barrier round) consistent with its data hazards. Level L
  transactions only depend on levels < L, so a real W-worker engine
  running level by level against a per-level snapshot would read the
  same values serial execution read.

Hazard rules, for earlier transaction ``i`` and later ``j``:

* **read-after-write** — ``j`` read a key ``i`` wrote: ``j`` must run
  a level strictly after ``i`` (it consumed ``i``'s value);
* **write-after-write** — both wrote a key: strictly after, so every
  level's merged prefix equals the serial prefix;
* **write-after-read** — ``i`` read a key ``j`` writes: ``j`` must not
  run *before* ``i``'s level (same level is safe — ``i`` reads the
  pre-level snapshot, which excludes ``j``).

Everything here is a pure function of the captured access sets, so the
schedule — and therefore the simulated timeline — is identical across
runs, platforms, and repeated replays. The worker count only enters in
:func:`level_makespan`; the levels themselves are worker-independent,
so a replica replaying an :class:`~repro.platforms.base.ExecutionCache`
entry charges the makespan its executor charged.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class TxView:
    """Per-transaction recording overlay over a platform state.

    Reads are read-your-writes against this transaction's own buffered
    writes first, then fall through to the parent state (the block
    overlay plus committed backing) — recording the key as a *parent
    read*, the input half of the dependency analysis. Writes (and
    deletes, recorded as ``None``) stay buffered here until
    :meth:`merge_into` folds the net set into the block state.

    The surface matches :class:`~repro.platforms.base.JournaledState`'s
    key-value trio, so ``_NamespacedState`` — and through it both the
    native contracts' ``StateAccess`` facade and the EVM's
    ``StateStorage`` backend — capture transparently.
    """

    __slots__ = ("_parent", "writes", "parent_reads")

    def __init__(self, parent) -> None:
        self._parent = parent
        #: key -> value, ``None`` recording a delete; insertion order is
        #: first-write order, values are last-write-wins.
        self.writes: dict[bytes, bytes | None] = {}
        #: Keys whose value came from outside this transaction.
        self.parent_reads: set[bytes] = set()

    def get(self, key: bytes) -> bytes | None:
        writes = self.writes
        if key in writes:
            return writes[key]
        self.parent_reads.add(key)
        return self._parent.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.writes[key] = value

    def delete(self, key: bytes) -> None:
        self.writes[key] = None

    def merge_into(self, state) -> None:
        """Fold this transaction's net writes into the block state.

        Routed through ``put``/``delete`` so subclass accounting
        (Parity's memory cap) sees every write, exactly as the serial
        path does. Called in block order, this is the last-writer-
        deterministic merge: later transactions overwrite earlier ones
        key-by-key, matching serial execution byte for byte.
        """
        for key, value in self.writes.items():
            if value is None:
                state.delete(key)
            else:
                state.put(key, value)

    def access_sets(self) -> tuple[frozenset, frozenset]:
        """The (reads, writes) key sets the scheduler consumes."""
        return frozenset(self.parent_reads), frozenset(self.writes)


def dependency_levels(
    accesses: Sequence[tuple[Iterable[bytes], Iterable[bytes]]],
) -> tuple[int, ...]:
    """Earliest hazard-free execution level for each transaction.

    ``accesses`` holds one ``(reads, writes)`` pair per transaction in
    block order. Returns one 1-based level per transaction: level L
    transactions depend only on levels < L, so a barrier scheduler may
    run each level's transactions concurrently. Non-conflicting
    transactions all land on level 1; a block where every transaction
    writes one hot key degrades to the serial chain ``1, 2, ..., N``.
    """
    last_writer_level: dict[bytes, int] = {}
    max_reader_level: dict[bytes, int] = {}
    levels: list[int] = []
    for reads, writes in accesses:
        level = 1
        for key in reads:
            writer = last_writer_level.get(key)
            if writer is not None and writer >= level:
                level = writer + 1  # read-after-write: strictly later
        for key in writes:
            writer = last_writer_level.get(key)
            if writer is not None and writer >= level:
                level = writer + 1  # write-after-write: strictly later
            reader = max_reader_level.get(key, 0)
            if reader > level:
                level = reader  # write-after-read: not earlier
        for key in writes:
            last_writer_level[key] = level
        for key in reads:
            if max_reader_level.get(key, 0) < level:
                max_reader_level[key] = level
        levels.append(level)
    return tuple(levels)


def level_makespan(
    durations: Sequence[float],
    levels: Sequence[int],
    workers: int,
) -> float:
    """Simulated seconds a W-worker engine needs for the scheduled block.

    Levels run as barrier rounds; within a level, transactions are
    assigned in block order to the least-loaded worker (ties break to
    the lowest worker index), and the level costs its longest worker.
    A pure function of its arguments — replicas replaying a memoized
    block from cached levels charge exactly what the executing replica
    charged. With ``workers=1`` this telescopes to the plain sum.
    """
    if len(durations) != len(levels):
        raise ValueError(
            f"{len(durations)} durations vs {len(levels)} levels"
        )
    by_level: dict[int, list[int]] = {}
    for index, level in enumerate(levels):
        by_level.setdefault(level, []).append(index)
    total = 0.0
    for level in sorted(by_level):
        loads = [0.0] * workers
        for index in by_level[level]:
            slot = min(range(workers), key=loads.__getitem__)
            loads[slot] += durations[index]
        total += max(loads)
    return total
