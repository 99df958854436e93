"""A restricted scan is a live cursor: inserts between two pulls.

The contract every region cursor keeps (``docs/ALGORITHM.md`` §3): a row
present when the scan starts is handed out exactly once, a row inserted
during the scan at most once, and a sorted scan's keys never descend.
The world is small enough that almost every insert splits a region —
a 4+4-bit tree of full 3-row pages — and the inserts land after the
scan has handed out a few rows, with read-ahead windows of 0, 2 and 4
pages in flight.  The same scan with nothing inserted and no read-ahead
is the differential reference for the sorted scans: the rows present at
the start come out exactly as it hands them out.

The same contract is checked for the other scans that yield across
pulls: a shard leg restarted from its resume point on a peer copy, and
the heap scan, bare and under the external sort.  The slab-parallel
sweep needs no such test: ``parallel_tetris_scan`` stages and sweeps
every slab inside one call and returns the rows as a list, so nothing
can land between two of its pulls.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import pytest

from repro import kernels
from repro.core import QueryBox, UBTree, ZSpace
from repro.core.tetris import TetrisScan
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import (
    ColumnProduct,
    Count,
    ExternalMergeSort,
    FullTableScan,
    Sum,
)
from repro.shard import ShardedDatabase, coordinator
from repro.storage import BufferPool, IOScheduler, SimulatedDisk

from oracles import leaves, run_entries

BITS = (4, 4)
#: shared by every world: it memoizes its curves
SPACE = ZSpace(BITS)
BOX = QueryBox((1, 0), (14, 15))
ROWS = 200
INSERTS = 30
CUTS = (1, 3, 5, 7, 11)
SEEDS = range(40)
DEPTHS = (0, 2, 4)
BACKENDS = kernels.available_backends()


def world(seed, depth, payload=int):
    """200 bulk-loaded rows on full 3-row pages, and 30 rows to insert;
    ``payload`` makes a row's payload of its index."""
    disk = SimulatedDisk()
    scheduler = IOScheduler(disk, 2, prefetch_depth=depth) if depth else None
    pool = BufferPool(disk, capacity=64, scheduler=scheduler)
    tree = UBTree(pool, SPACE, page_capacity=3)
    rng = random.Random(seed)

    def point():
        return tuple(rng.randrange(1 << bits) for bits in BITS)

    rows = [(point(), payload(index)) for index in range(ROWS)]
    tree.bulk_load(rows)
    inserts = [(point(), payload(ROWS + index)) for index in range(INSERTS)]
    return tree, rows, inserts


def pull_then_insert(table, stream, cut, inserts):
    """Take ``cut`` rows, insert every row of ``inserts``, drain."""
    taken = [next(stream) for _ in range(cut)]
    for row in inserts:
        table.insert(*row) if isinstance(table, UBTree) else table.insert(row)
    return taken + list(stream)


def assert_contract(stream, rows, inserts, space):
    """Present rows exactly once, inserted ones at most once, all owed."""
    owed = Counter(row for row in rows if space.contains_point(row[0]))
    got = Counter(row for row in stream if row[1] < ROWS)
    assert got == owed, (
        f"{sum((owed - got).values())} rows lost, "
        f"{sum((got - owed).values())} repeated or foreign"
    )
    added = Counter(row for row in stream if row[1] >= ROWS)
    assert set(added) <= {row for row in inserts if space.contains_point(row[0])}
    assert max(added.values(), default=1) == 1


def sorted_scan(seed, depth, sort_dim, cut):
    tree, rows, inserts = world(seed, depth)
    scan = TetrisScan(tree, BOX, sort_dim)
    stream = pull_then_insert(tree, iter(scan), cut, inserts)
    assert_contract(stream, rows, inserts, BOX)
    keys = [scan.tetris_curve.encode(point) for point, _ in stream]
    assert keys == sorted(keys), "sort order broken"
    return [row for row in stream if row[1] < ROWS]


@lru_cache(maxsize=None)
def reference_scan(seed, sort_dim):
    """The scan with nothing inserted and no read-ahead: the rows present
    at the start, in the order it hands them out."""
    tree, _, _ = world(seed, 0)
    return list(TetrisScan(tree, BOX, sort_dim))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("schedule", ["eager"])  # the one schedule; ids kept
@pytest.mark.parametrize("sort_dim", [0, 1])
def test_sorted_scan_under_inserts(backend, depth, schedule, sort_dim):
    with kernels.use_backend(backend):
        for seed in SEEDS:
            for cut in CUTS:
                got = sorted_scan(seed, depth, sort_dim, cut)
                reference = reference_scan(seed, sort_dim)
                assert got == reference, (seed, cut)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_sorted_scan_under_inserts_into_warm_runs(backend, depth):
    """An earlier sweep has memoized every page's run, rows included,
    when the inserts land between two pulls: a page they change hands
    out its rows as they are now — its run equals the pure kernel's on
    the records afresh — and the sweep keeps the contract."""
    pure = kernels.backend("python")
    with kernels.use_backend(backend) as kernel:
        for seed in SEEDS[::4]:
            for cut in CUTS:
                tree, rows, inserts = world(seed, depth)
                list(TetrisScan(tree, BOX, 0))  # every page's run is warm
                scan = TetrisScan(tree, BOX, 0)
                stream = iter(scan)
                taken = [next(stream) for _ in range(cut)]
                for point, payload in inserts:
                    tree.insert(point, payload)
                curve = scan.tetris_curve
                for leaf in leaves(tree.tree):
                    assert run_entries(
                        kernel.scan_page_run(curve, BOX, leaf)
                    ) == run_entries(pure.scan_page_run(curve, BOX, leaf)), (
                        seed,
                        cut,
                        leaf.page_id,
                    )
                stream = taken + list(stream)
                assert_contract(stream, rows, inserts, BOX)
                keys = [curve.encode(point) for point, _ in stream]
                assert keys == sorted(keys), "sort order broken"
                present = [row for row in stream if row[1] < ROWS]
                assert present == reference_scan(seed, 0), (seed, cut)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_held_sweep_under_inserts(backend, depth):
    """The inserts land between a held sweep's first and second pull:
    its first slice is out, the rest of the walk is still ahead and is
    then read in one pull.  The rows present at the start come out
    exactly once, as the scan with nothing inserted hands them out."""
    with kernels.use_backend(backend):
        for seed in SEEDS[::2]:
            for sort_dim in (0, 1):
                tree, rows, inserts = world(seed, depth)
                scan = TetrisScan(tree, BOX, sort_dim)
                slices = scan.slices(held=True)
                _, stream = next(slices)
                for point, payload in inserts:
                    tree.insert(point, payload)
                stream += [row for _, held in slices for row in held]
                assert scan.stats.slices <= 2, "the sweep did not hold"
                assert_contract(stream, rows, inserts, BOX)
                keys = [scan.tetris_curve.encode(point) for point, _ in stream]
                assert keys == sorted(keys), "sort order broken"
                present = [row for row in stream if row[1] < ROWS]
                assert present == reference_scan(seed, sort_dim), (seed, sort_dim)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_range_query_under_inserts(backend, depth):
    with kernels.use_backend(backend):
        for seed in SEEDS:
            for cut in CUTS:
                tree, rows, inserts = world(seed, depth)
                pages = tree.range_query(BOX)
                stream = []
                while len(stream) < cut:
                    stream.extend(next(pages))
                for point, payload in inserts:
                    tree.insert(point, payload)
                for page in pages:
                    stream.extend(page)
                assert_contract(stream, rows, inserts, BOX)


def weighted(index):
    """A payload an aggregate can fold by its columns."""
    return (index, index % 7 - 3)


#: an aggregate over those payloads that folds a page at a time
FOLD = (Sum(ColumnProduct(0, 1)), Count())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("depth", DEPTHS)
def test_folding_range_query_under_inserts(backend, depth):
    """A folding step runs before the query suspends: each partial it
    yields is the fold of that page's survivors as the page was when
    pulled, and those survivors keep the range query's contract.  An
    earlier query has left every page's memo warm, so a page the
    inserts change must not be folded from what it held before."""
    with kernels.use_backend(backend) as kernel:

        def step(page, selection):
            records = page.records
            folded = tuple(agg.fold_page(0, page, selection, kernel) for agg in FOLD)
            return folded, [records[index][1] for index in selection]

        for seed in SEEDS:
            for cut in CUTS:
                tree, rows, inserts = world(seed, depth, weighted)
                for _ in tree.range_query(BOX, step):
                    pass
                pages = tree.range_query(BOX, step)
                pulled = []
                while sum(len(pairs) for _, pairs in pulled) < cut:
                    pulled.append(next(pages))
                for point, payload in inserts:
                    tree.insert(point, payload)
                pulled.extend(pages)
                for folded, pairs in pulled:
                    payloads = [payload for _, payload in pairs]
                    assert folded == (sum(i * w for i, w in payloads), len(pairs))
                stream = [(point, i) for _, pairs in pulled for point, (i, _) in pairs]
                index_of = [(point, payload[0]) for point, payload in rows + inserts]
                assert_contract(stream, index_of[:ROWS], index_of[ROWS:], BOX)


# ----------------------------------------------------------------------
# the other scans that yield across pulls
# ----------------------------------------------------------------------
SCHEMA = Schema(
    [
        Attribute("a1", IntEncoder(0, 15)),
        Attribute("a2", IntEncoder(0, 15)),
        Attribute("v", IntEncoder(0, 10**6)),
    ]
)


def table_rows(seed, count, start=0):
    rng = random.Random(seed)
    return [
        (rng.randrange(16), rng.randrange(16), start + index)
        for index in range(count)
    ]


@pytest.mark.parametrize("sort_attr", ["a1", "a2"])
def test_shard_leg_resumes_on_a_peer_after_inserts(sort_attr):
    """A leg killed after a few slices restarts on the other copy from
    its resume point; inserts between the two land on both copies.  The
    restart skips by key, so the contract holds across the failover."""
    for seed in range(20):
        for cut in (1, 2, 4):
            sdb = ShardedDatabase(
                SCHEMA, ("a1", "a2"), "a1",
                shards=1, copies=2, page_capacity=3, buffer_pages=16,
            )
            rows = table_rows(seed, ROWS)
            sdb.load(rows)
            inserts = table_rows(seed + 1000, INSERTS, start=ROWS)
            shard = sdb.shards[0]
            box = sdb._reference_table().build_query_box(None)
            resume = coordinator._ResumePoint()
            first = sdb._stream_copy(shard.copies[0], box, sort_attr, resume)
            keys, stream = [], []
            for _ in range(cut):
                slice_keys, slice_rows = next(first)
                keys += slice_keys
                stream += slice_rows
            first.close()
            sdb.insert_batch(inserts)
            for slice_keys, slice_rows in sdb._stream_copy(
                shard.copies[1], box, sort_attr, resume
            ):
                keys += slice_keys
                stream += slice_rows
            payloads = [payload for _, payload in stream]
            assert Counter(p for p in payloads if p[2] < ROWS) == Counter(rows)
            added = Counter(p for p in payloads if p[2] >= ROWS)
            assert set(added) <= set(inserts)
            assert max(added.values(), default=1) == 1
            assert keys == sorted(keys), (seed, cut)


def test_heap_scan_under_the_external_sort_with_appends():
    """The sort reads its whole input before its first batch, so rows
    appended between two pulls of its output never show; a bare heap
    scan sees an appended row at most once and every loaded row once."""
    def heap_table(rows):
        db = Database(buffer_pages=16)
        table = db.create_heap_table("h", SCHEMA, page_capacity=3)
        table.load(rows)
        return db, table

    for seed in range(20):
        for cut in CUTS:
            rows = table_rows(seed, ROWS)
            inserts = table_rows(seed + 1000, INSERTS, start=ROWS)
            db, table = heap_table(rows)
            sort = ExternalMergeSort(
                FullTableScan(table),
                key=lambda row: (row[1], row[0], row[2]),
                disk=db.disk,
                memory_pages=4,
                page_capacity=3,
            )
            stream = pull_then_insert(table, iter(sort), cut, inserts)
            assert stream == sorted(rows, key=lambda row: (row[1], row[0], row[2]))

            _, table = heap_table(rows)
            pages = table.heap.scan()
            stream = []
            while len(stream) < cut:
                stream.extend(next(pages))
            for row in inserts:
                table.insert(row)
            for page in pages:
                stream.extend(page)
            assert Counter(row for row in stream if row[2] < ROWS) == Counter(rows)
            added = Counter(row for row in stream if row[2] >= ROWS)
            assert set(added) <= set(inserts)
            assert max(added.values(), default=1) == 1
