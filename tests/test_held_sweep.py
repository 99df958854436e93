"""A held sweep hands out the every-barrier sweep's rows in fewer cuts.

``TetrisScan.slices(held=True)`` cuts its first completed slice at once
and then holds the run buffer: it cuts again only at the end of the
walk and below the last barrier passed before a :class:`StorageError`
from the page walk propagates.  Whether the consumer drains the sweep
or is stopped by a fault, it must hold what the every-barrier sweep had
handed it: the same keys, the very same row objects, the same pages read
in the same order and the same ``IOStats``.

``ShardedDatabase.sorted_scan`` is the one held consumer: it keeps every
row of a shard before its k-way merge.  A copy with a kill scheduled
stops after a row count, so its sweep does not hold; nor do the
co-partitioned join's legs, which stream.  Both cut at every barrier
that has a key below it.
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import QueryBox, UBTree, ZSpace
from repro.core.query_space import ComparisonSpace, IntersectionSpace
from repro.core.tetris import TetrisScan
from repro.relational import Attribute, IntEncoder, Schema
from repro.shard import CoPartitionedJoin, ShardedDatabase
from repro.storage import BufferPool, FaultPlan, IOScheduler, SimulatedDisk
from repro.storage.errors import StorageError
from repro.storage.faults import CORRUPT, FaultyDisk

BACKENDS = kernels.available_backends()


class CountingRunBuffer:
    """A run buffer that counts the barriers with a key below them and
    the cuts that handed rows out."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.keyed_barriers = 0
        self.cuts = 0

    def push(self, run) -> None:
        self.inner.push(run)

    def __len__(self) -> int:
        return len(self.inner)

    def has_key_below(self, barrier) -> bool:
        below = self.inner.has_key_below(barrier)
        self.keyed_barriers += below
        return below

    def cut(self, barrier):
        keys, rows = self.inner.cut(barrier)
        self.cuts += bool(rows)
        return keys, rows


@contextlib.contextmanager
def counted_run_buffers(backend_name):
    """Every run buffer the backend makes inside the block, counted."""
    made: list[CountingRunBuffer] = []
    with kernels.use_backend(backend_name) as kernel:
        original = kernel.make_run_buffer

        def make_run_buffer():
            made.append(CountingRunBuffer(original()))
            return made[-1]

        kernel.make_run_buffer = make_run_buffer
        try:
            yield made
        finally:
            del kernel.make_run_buffer


# ----------------------------------------------------------------------
# the sharded sorted scan holds; the join legs do not
# ----------------------------------------------------------------------
SCHEMA = Schema(
    [
        Attribute("a1", IntEncoder(0, 63)),
        Attribute("a2", IntEncoder(0, 63)),
        Attribute("v", IntEncoder(0, 10**6)),
    ]
)


def sharded(seed: int) -> ShardedDatabase:
    rng = random.Random(seed)
    sdb = ShardedDatabase(
        SCHEMA, ("a1", "a2"), "a1", shards=3, copies=2, page_capacity=6,
        buffer_pages=8,
    )
    sdb.load([(rng.randrange(64), rng.randrange(64), v) for v in range(400)])
    sdb.reset_measurement()
    return sdb


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sort_attr", ["a1", "a2"])
def test_sorted_scan_cuts_each_shard_sweep_at_most_twice(backend, sort_attr):
    sdb = sharded(7)
    with counted_run_buffers(backend) as buffers:
        result = sdb.sorted_scan({"a2": (5, 60)}, sort_attr)
    assert len(buffers) == 3 and result.rows
    assert all(buffer.cuts <= 2 for buffer in buffers)
    # not vacuous: the every-barrier sweep would have cut far more often
    assert all(buffer.keyed_barriers > 4 for buffer in buffers)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_copy_with_a_kill_scheduled_cuts_at_every_barrier(backend):
    sdb, reference = sharded(7), sharded(7)
    sdb.kill_copy(1, 0, after_rows=20)
    with counted_run_buffers(backend) as buffers:
        result = sdb.sorted_scan({"a2": (5, 60)}, "a1")
    # shard 0 holds; shard 1's copy 0 dies after 20 rows, cutting at
    # every barrier, and copy 1 resumes it holding; shard 2 holds
    assert len(buffers) == 4
    assert [buffer.cuts <= 2 for buffer in buffers] == [True, False, True, True]
    assert buffers[1].cuts == buffers[1].keyed_barriers
    assert result.rows == reference.sorted_scan({"a2": (5, 60)}, "a1").rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_join_legs_cut_at_every_barrier_with_a_key_below(backend):
    left, right = sharded(3), sharded(4)
    with counted_run_buffers(backend) as buffers:
        result = CoPartitionedJoin(left, right, kind="inner").run(None, None)
    assert len(buffers) == 6 and result.rows
    assert all(buffer.cuts == buffer.keyed_barriers for buffer in buffers)
    assert all(buffer.cuts > 4 for buffer in buffers)


# ----------------------------------------------------------------------
# Hypothesis: held against every-barrier on one and the same world
# ----------------------------------------------------------------------
def tree_of(bits, points, capacity, depth, plan=None):
    inner = SimulatedDisk()
    disk = inner if plan is None else FaultyDisk(inner, plan)
    scheduler = IOScheduler(disk, 2, prefetch_depth=depth) if depth else None
    pool = BufferPool(disk, capacity=6, scheduler=scheduler)
    tree = UBTree(pool, ZSpace(bits), page_capacity=capacity)
    tree.bulk_load([(point, index) for index, point in enumerate(points)])
    if plan is not None:
        disk.arm()
    return tree


def observe(tree, space, sort_dims, held):
    scan = TetrisScan(tree, space, sort_dims)
    keys: list[int] = []
    rows: list = []
    for slice_keys, slice_rows in scan.slices(held=held):
        keys += slice_keys
        rows += slice_rows
    return scan, keys, rows


@st.composite
def sweep_cases(draw):
    dims = draw(st.integers(2, 3))
    bits = tuple(draw(st.integers(2, 4)) for _ in range(dims))
    seed = draw(st.integers(0, 10_000))
    count = draw(st.integers(0, 160))
    rng = random.Random(seed)
    points = [tuple(rng.randrange(1 << b) for b in bits) for _ in range(count)]
    lo = tuple(draw(st.integers(0, (1 << b) - 1)) for b in bits)
    hi = tuple(draw(st.integers(low, (1 << b) - 1)) for low, b in zip(lo, bits))
    comparison = draw(st.none() | st.permutations(range(dims)))
    order = draw(st.permutations(range(dims)))
    sort_dims = tuple(order[: draw(st.integers(1, dims))])
    return bits, points, lo, hi, comparison, sort_dims


def space_of(lo, hi, comparison):
    box = QueryBox(lo, hi)
    if comparison is None:
        return box
    return IntersectionSpace(
        [box, ComparisonSpace(len(lo), comparison[0], "<=", comparison[1])]
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", [0, 2])
@settings(max_examples=100, deadline=None)
@given(case=sweep_cases(), capacity=st.integers(2, 8))
def test_held_sweep_hands_out_the_every_barrier_rows(backend, depth, case, capacity):
    bits, points, lo, hi, comparison, sort_dims = case
    space = space_of(lo, hi, comparison)
    with kernels.use_backend(backend):
        every_tree = tree_of(bits, points, capacity, depth)
        every, every_keys, every_rows = observe(
            every_tree, space, sort_dims, held=False
        )
        held_tree = tree_of(bits, points, capacity, depth)
        held, held_keys, held_rows = observe(held_tree, space, sort_dims, held=True)
        held_io = repr(held_tree.tree.buffer.disk.stats)
        # the every-barrier sweep over the held one's (now warm) pages
        # hands out the very same row objects
        _, _, again_rows = observe(held_tree, space, sort_dims, held=False)
    assert held_keys == every_keys
    assert held_rows == every_rows
    assert len(again_rows) == len(held_rows)
    assert all(a is b for a, b in zip(held_rows, again_rows))
    assert held.page_access_order == every.page_access_order
    assert held_io == repr(every_tree.tree.buffer.disk.stats)
    assert held.stats.tuples_output == every.stats.tuples_output
    assert held.stats.first_output_clock == every.stats.first_output_clock
    assert held.stats.slices <= min(every.stats.slices, 2)


# ----------------------------------------------------------------------
# a fault on page j: the same rows before the StorageError
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", [0, 2])
def test_a_fault_on_page_j_stops_both_sweeps_on_the_same_rows(backend, depth):
    rng = random.Random(5)
    bits = (5, 5)
    points = [(rng.randrange(32), rng.randrange(32)) for _ in range(300)]
    box = QueryBox((2, 0), (29, 31))
    with kernels.use_backend(backend):
        reference = TetrisScan(tree_of(bits, points, 6, depth), box, 1)
        everything = list(reference)
        order = reference.page_access_order
        assert len(order) > 20
        stopped_early = held_back = 0
        for j in range(1, len(order), 3):
            # a read-ahead window reads the page first: fail that read
            # and the demand read after it
            plan = FaultPlan(
                scripted_reads=((order[j], 0, CORRUPT), (order[j], 1, CORRUPT))
            )
            outcomes, cuts = [], []
            for held in (False, True):
                tree = tree_of(bits, points, 6, depth, plan)
                scan = TetrisScan(tree, box, 1)
                slices = scan.slices(held=held)
                with pytest.raises(StorageError):
                    keys, rows = [], []
                    for slice_keys, slice_rows in slices:
                        keys += slice_keys
                        rows += slice_rows
                outcomes.append(
                    (
                        keys,
                        rows,
                        scan.page_access_order,
                        repr(tree.tree.buffer.disk.stats),
                    )
                )
                cuts.append(scan.stats.slices)
            assert outcomes[1] == outcomes[0], j
            # not vacuous: the fault struck mid-sweep, after the held
            # sweep had skipped cuts the every-barrier one made
            stopped_early += 0 < len(outcomes[0][1]) < len(everything)
            held_back += cuts[1] < cuts[0]
        assert stopped_early > 3 and held_back > 3
