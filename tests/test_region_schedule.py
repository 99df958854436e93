"""The batched Z-region schedule against the scalar walk it replaced.

``UBTree.scheduled_regions`` decides a whole scan's regions, pruning
verdicts and Tetris keys from the region directory in one kernel call
and reads no index page while the scan runs.  The reference here is the
walk as it stood before the directory existed — a descent, the pruning
tests and a BIGMIN per region (:func:`scalar_schedule`) — run on a twin
world, and the two must be indistinguishable at the data level: rows,
schedule, data-page fetches, priced statistics and fault sites.  The
only difference allowed is the reference's own index traffic, and it is
counted exactly.  The second half stales the directory in every way the
engine can and requires the answer not to move.
"""

import ast
import inspect
import random
import sys
import textwrap
import threading
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariants, kernels
from repro.btree.bptree import BPlusTree
from repro.core import QueryBox, TetrisScan, UBTree, ZSpace
from repro.core.curves import Curve
from repro.core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
)
from repro.invariants import InvariantViolation
from repro.relational.schema import Attribute, IntEncoder, Schema
from repro.relational.table import Database
from repro.shard import ShardedDatabase
from repro.storage import (
    BufferPool,
    FaultPlan,
    FaultyDisk,
    SimulatedCrashError,
    SimulatedDisk,
    StorageError,
)
from repro.txn import TransactionCoordinator

from oracles import PredicateSpace, checks, insert_all, rows_of

ALL = 1 << 30
BACKENDS = kernels.available_backends()


# ----------------------------------------------------------------------
# the scalar reference
# ----------------------------------------------------------------------
def scalar_schedule(tree, space, pushdown=None, sort_curve=None):
    """``UBTree.scheduled_regions`` by the scalar definitions alone: one
    descent, one :meth:`ZRegion.classify`, one pure ``region_min_keys``
    and one BIGMIN per region, no directory."""
    box = space.bounding_box() or tree.space.universe_box()
    lo, hi = box
    if any(a > b for a, b in zip(lo, hi)):
        return
    curve = tree.space.z
    z_address = curve.encode(lo)
    while z_address is not None:
        region, _ = tree.region_for(z_address, charge=False)
        in_space, in_cover = region.classify(curve, space, pushdown)
        key = None
        if in_cover and sort_curve is not None:
            (key,) = kernels.backend("python").region_min_keys(
                curve, sort_curve, [(region.first, region.last)], lo, hi
            )
        yield region, in_space, in_cover, key
        z_address = curve.next_in_box(region.last + 1, lo, hi)


def use_scalar_walk(tree):
    """Shadow the batched schedule with the scalar one on this tree only
    (``TetrisScan`` and ``regions_overlapping`` both go through it)."""
    tree.scheduled_regions = partial(scalar_schedule, tree)


def assert_matches_scalar_walk(tree, space=None, pushdown=None, sort_dim=0):
    """Directory and schedule agree with what the descents say right now.

    Checks are armed for the batched walk: a directory that is stale at
    an unchanged epoch would be repaired silently otherwise, and a
    structure change that forgot to advance the epoch must show here.
    """
    if space is None:
        space = QueryBox(*tree.space.universe_box())
    sort_curve = tree.space.tetris((sort_dim,))
    expected = list(scalar_schedule(tree, space, pushdown, sort_curve))
    with checks():
        assert list(tree.scheduled_regions(space, pushdown, sort_curve)) == expected
    directory = tree.region_directory()
    assert [directory.region(i) for i in range(len(directory))] == list(
        tree.regions()
    )


# ----------------------------------------------------------------------
# differential: batched vs scalar, observable by observable
# ----------------------------------------------------------------------
BIT_SHAPES = [
    (4, 4),
    (5, 3),
    (3, 4, 2),
    (4, 1, 5),
    (3, 3, 3, 3),
    (2, 5, 1, 4),
    (23, 22, 21),  # 66 address bits: the NumPy backend must fall back
]


@st.composite
def scan_cases(draw):
    bits = draw(st.sampled_from(BIT_SHAPES))
    dims = len(bits)
    coord_max = tuple((1 << b) - 1 for b in bits)

    def coordinate(dim):
        return draw(st.integers(0, coord_max[dim]))

    def box():
        corners = [sorted((coordinate(d), coordinate(d))) for d in range(dims)]
        return QueryBox([c[0] for c in corners], [c[1] for c in corners])

    kind = draw(st.sampled_from(["box", "triangle", "opaque", "box+opaque"]))
    if kind == "box":
        space = box()
    elif kind == "triangle":
        left, right = draw(st.permutations(range(dims)))[:2]
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        space = IntersectionSpace([box(), ComparisonSpace(dims, left, op, right)])
    else:
        modulus = draw(st.integers(2, 4))
        opaque = PredicateSpace(dims, lambda p, m=modulus: sum(p) % m != 0)
        space = opaque if kind == "opaque" else IntersectionSpace([box(), opaque])

    pushdown = None
    cover = draw(st.sampled_from(["none", "empty", "intervals"]))
    if cover != "none":
        dim = draw(st.integers(0, dims - 1))
        cuts = sorted(
            set(draw(st.lists(st.integers(0, coord_max[dim]), max_size=8)))
        )
        if len(cuts) % 2:
            cuts.pop()
        intervals = () if cover == "empty" else tuple(zip(cuts[::2], cuts[1::2]))
        pushdown = IntervalUnionSpace(coord_max, dim, intervals)

    sort = draw(st.permutations(range(dims)))[: draw(st.integers(1, 2))]
    return {
        "bits": bits,
        "seed": draw(st.integers(0, 10_000)),
        "count": draw(st.integers(0, 160)),
        "capacity": draw(st.integers(2, 6)),
        "bulk": draw(st.booleans()),
        "pool": draw(st.integers(2, 12)),
        "space": space,
        "pushdown": pushdown,
        "sort": tuple(sort),
    }


@dataclass(frozen=True)
class PagePlan(FaultPlan):
    """The rate plan, fired on ``pages`` only."""

    pages: frozenset = frozenset()

    def read_fault(self, page_id, access):
        if page_id not in self.pages:
            return None
        return super().read_fault(page_id, access)


def build_world(case):
    """A tree on a fault-injecting disk behind a small pool (so the
    reference's inner pages are evicted and its descents miss)."""
    disk = FaultyDisk()
    pool = BufferPool(disk, case["pool"])
    tree = UBTree(pool, ZSpace(case["bits"]), page_capacity=case["capacity"], fanout=4)
    rng = random.Random(case["seed"])
    rows = [
        (tuple(rng.randrange(1 << b) for b in case["bits"]), index)
        for index in range(case["count"])
    ]
    if case["bulk"]:
        tree.bulk_load(rows)
    else:
        insert_all(tree, rows)
    pool.drop_all()
    # on data pages only: a scan reads no inner page, so a fault there
    # could fire in the reference alone (see TestInnerPageFaults)
    disk.plan = PagePlan(
        seed=case["seed"],
        transient_rate=0.04,
        latency_rate=0.15,
        pages=frozenset(tree.region_directory().page_ids),
    )
    return tree, pool, disk


def record_fetches(tree, pool):
    """Every page the pool reads from disk from now on, split into data
    pages (in order) and inner pages (a count)."""
    seen = {"data": [], "inner": 0}
    fetch = pool._fetch

    def recorded(page_id, **kwargs):
        page = fetch(page_id, **kwargs)
        if tree.tree._is_leaf(page):
            seen["data"].append(page_id)
        else:
            seen["inner"] += 1
        return page

    pool._fetch = recorded
    return seen


def priced(stats):
    """``repr`` of an ``IOStats`` without its unpriced (index) reads —
    a category that only those touched is dropped — plus those reads."""
    stats = stats.copy()
    unpriced = 0
    for name, category in list(stats.categories.items()):
        unpriced += category.unpriced_reads
        category.unpriced_reads = 0
        if category == type(category)():
            del stats.categories[name]
    return repr(stats), unpriced


def observed_run(case, *, scalar):
    """Everything a sorted scan and a range query leave behind."""
    tree, pool, disk = build_world(case)
    if scalar:
        use_scalar_walk(tree)
    seen = {}
    fetched = record_fetches(tree, pool)
    disk.arm()
    scan = TetrisScan(tree, case["space"], case["sort"], pushdown=case["pushdown"])
    try:
        scan.cursor.upcoming_page_ids(0)  # takes the schedule
        seen["schedule"] = list(scan.cursor.entries)
        seen["rows"] = list(scan)
        # a pool without the reference's index pages keeps more data
        # pages resident: each query starts cold, so residency cannot
        # hide a difference in what a query itself reads
        pool.drop_all()
        seen["range"] = list(tree.range_query(case["space"]))
    except StorageError as error:
        seen["error"] = repr(error)
    seen["page_access_order"] = list(scan.page_access_order)
    seen["tetris_stats"] = vars(scan.stats)
    seen["io_stats"], unpriced = priced(disk.stats)
    seen["data_fetches"] = fetched["data"]
    seen["fault_log"] = list(disk.fault_log)
    return seen, fetched["inner"], unpriced


@pytest.mark.parametrize("backend", BACKENDS)
@given(scan_cases())
@settings(max_examples=60, deadline=None)
def test_batched_schedule_is_observationally_the_scalar_walk(backend, case):
    with kernels.use_backend(backend):
        batched, batched_inner, batched_unpriced = observed_run(case, scalar=False)
        scalar, scalar_inner, scalar_unpriced = observed_run(case, scalar=True)
    assert batched == scalar
    assert batched_inner == 0
    assert scalar_unpriced - batched_unpriced == scalar_inner


@pytest.mark.parametrize("backend", BACKENDS)
def test_lazy_interleaving_with_data_reads_is_kept(backend):
    """``range_query`` takes a region only when it is pulled, so the data
    reads land between batch pulls exactly as under the scalar walk, and
    no pull reads more than the one page it hands over plus the pages
    without a survivor before it."""

    def fetches_per_pull(scalar):
        tree = grown_tree(count=400, capacity=3)
        if scalar:
            use_scalar_walk(tree)
        pool = tree.tree.buffer
        fetched = record_fetches(tree, pool)
        trace = []
        for _ in tree.range_query(QueryBox((2, 1), (13, 14))):
            trace.append(len(fetched["data"]))
        return trace

    with kernels.use_backend(backend):
        batched = fetches_per_pull(scalar=False)
        assert batched == fetches_per_pull(scalar=True)
    assert len(batched) > 20 and batched == sorted(set(batched))


def test_range_query_filters_a_page_without_suspending():
    """The ``for`` over ``filter_space_page``'s survivors in
    ``UBTree.range_query`` holds no ``yield``: a page's rows are taken
    whole before the generator hands them over, so nothing a consumer
    does between two pulls can shift the page being read."""
    source = textwrap.dedent(inspect.getsource(UBTree.range_query))
    loops = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and isinstance(node.iter.func, ast.Attribute)
        and node.iter.func.attr == "filter_space_page"
    ]
    assert loops  # the function parsed is the real one
    for loop in loops:
        assert not any(
            isinstance(inner, (ast.Yield, ast.YieldFrom)) for inner in ast.walk(loop)
        )


class TestInnerPageFaults:
    """A restricted scan reads no index page, so a fault armed on an
    inner page fires only where the tree is descended: inserts and point
    queries."""

    def test_fires_on_inserts_and_point_queries_only(self):
        disk = FaultyDisk()
        pool = BufferPool(disk, 256)
        tree = UBTree(pool, ZSpace((4, 4)), page_capacity=3, fanout=4)
        rng = random.Random(2)
        insert_all(
            tree, [((rng.randrange(16), rng.randrange(16)), i) for i in range(200)]
        )
        assert tree.tree.height >= 3
        inner = frozenset(
            page.page_id for page in disk.iter_pages() if not tree.tree._is_leaf(page)
        )
        disk.plan = PagePlan(latency_rate=1.0, pages=inner)
        disk.arm()

        def faulted_pages(action):
            pool.drop_all()
            before = len(disk.fault_log)
            action()
            return {page_id for _, _, page_id, _ in disk.fault_log[before:]}

        box = QueryBox((1, 2), (13, 11))
        for scan in (
            lambda: list(tree.range_query(box)),
            lambda: list(tree.regions_overlapping(box)),
            lambda: list(TetrisScan(tree, box, 1)),
            lambda: list(TetrisScan(tree, box, (1, 0), pushdown=box)),
        ):
            assert faulted_pages(scan) == set()
        point = tree.space.z_address((5, 5))
        for descent in (
            lambda: tree.region_for(point),
            lambda: tree.insert((5, 5), "late"),
        ):
            faulted = faulted_pages(descent)
            assert tree.tree.root_id in faulted and faulted <= inner


# ----------------------------------------------------------------------
# count guard: scheduling is one kernel call, not per-region Python
# ----------------------------------------------------------------------
@pytest.mark.skipif("numpy" not in BACKENDS, reason="guards the NumPy path")
def test_restricted_scan_schedules_in_one_kernel_call(monkeypatch):
    bits = (6, 6, 6)
    tree = UBTree(BufferPool(SimulatedDisk(), 64), ZSpace(bits), page_capacity=4)
    rng = random.Random(3)
    tree.bulk_load(
        (tuple(rng.randrange(64) for _ in bits), index) for index in range(3000)
    )
    assert tree.region_count >= 500
    space = IntersectionSpace(
        [QueryBox((3, 0, 5), (60, 63, 58)), ComparisonSpace(3, 0, "<", 2)]
    )
    pushdown = IntervalUnionSpace((63, 63, 63), 1, ((4, 9), (20, 31), (50, 50)))

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar per-region primitive on the batched path")

    calls = {"schedule": 0, "descents": 0, "inner_lookups": 0}
    with kernels.use_backend("numpy") as backend, checks(False):
        tree.region_directory()
        backend._directory_arrays(tree.region_directory())  # built outside the guard
        monkeypatch.setattr(Curve, "next_in_box", forbidden)
        monkeypatch.setattr(Curve, "interval_boxes", forbidden)
        schedule_regions = backend.schedule_regions
        locate = tree.tree._locate
        pool = tree.tree.buffer
        get = pool.get

        def counted_schedule(*args):
            calls["schedule"] += 1
            return schedule_regions(*args)

        def counted_locate(*args, **kwargs):
            calls["descents"] += 1
            return locate(*args, **kwargs)

        def counted_get(page_id, **kwargs):
            page = tree.tree.disk.peek(page_id)
            calls["inner_lookups"] += not tree.tree._is_leaf(page)
            return get(page_id, **kwargs)

        monkeypatch.setattr(backend, "schedule_regions", counted_schedule)
        monkeypatch.setattr(tree.tree, "_locate", counted_locate)
        monkeypatch.setattr(pool, "get", counted_get)
        scan = TetrisScan(tree, space, 2, pushdown=pushdown)
        rows = list(scan)
    assert rows
    assert scan.stats.pages_skipped_by_pushdown and scan.stats.regions_skipped
    assert scan.stats.regions_examined >= 100
    assert calls == {"schedule": 1, "descents": 0, "inner_lookups": 0}


def test_scheduled_regions_makes_no_descent():
    """The schedule is the directory: ``UBTree.scheduled_regions`` calls
    no descent, so a scan's inner nodes never reach the buffer pool."""
    source = textwrap.dedent(inspect.getsource(UBTree.scheduled_regions))
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert "schedule_regions" in called  # the walk parsed is the real one
    assert not called & {"region_for", "leaf_for", "_locate"}


# ----------------------------------------------------------------------
# staleness: the directory is a verified hint
# ----------------------------------------------------------------------
BITS = (4, 4)
FULL = QueryBox((0, 0), (15, 15))


def grown_tree(count=120, capacity=4, seed=5, bulk=False):
    tree = UBTree(BufferPool(SimulatedDisk(), 256), ZSpace(BITS), page_capacity=capacity)
    rng = random.Random(seed)
    rows = [
        (tuple(rng.randrange(1 << b) for b in BITS), index) for index in range(count)
    ]
    tree.bulk_load(rows) if bulk else insert_all(tree, rows)
    return tree


def split_some_leaf(tree, seed=0):
    """Insert random points until the region count grows."""
    rng = random.Random(seed)
    before = tree.region_count
    while tree.region_count == before:
        tree.insert(tuple(rng.randrange(1 << b) for b in BITS), "late")


class TestDirectoryFollowsTheTree:
    def test_insert_driven_split(self):
        tree = grown_tree()
        before = tree.region_directory()
        split_some_leaf(tree)
        assert tree.region_directory() is not before
        assert_matches_scalar_walk(tree)

    def test_delete_leaves_the_partitioning_and_the_directory_alone(self):
        tree = grown_tree()
        before = tree.region_directory()
        rng = random.Random(5)
        points = [tuple(rng.randrange(16) for _ in BITS) for _ in range(120)]
        assert all(tree.delete(point) for point in points[:40])
        assert tree.region_directory() is before
        assert_matches_scalar_walk(tree)

    def test_bulk_load_into_a_tree_scanned_while_empty(self):
        tree = UBTree(BufferPool(SimulatedDisk(), 64), ZSpace(BITS), page_capacity=4)
        assert list(tree.range_query(FULL)) == []
        assert len(tree.region_directory()) == 1
        rng = random.Random(1)
        tree.bulk_load(
            (tuple(rng.randrange(16) for _ in BITS), index) for index in range(90)
        )
        assert len(tree.region_directory()) == tree.region_count > 1
        assert_matches_scalar_walk(tree)
        assert len(rows_of(tree.range_query(FULL))) == 90

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_insert_between_pulls_of_a_live_range_query(self, backend):
        """The schedule in hand predates the splits; the epoch has moved
        at the next pull, and the region cursor takes the schedule again
        from a fresh directory minus the regions already read, which
        ends where the per-region walk carrying on from the tree does."""

        def interleaved(scalar):
            tree = grown_tree(count=200, capacity=3, seed=8)
            if scalar:
                use_scalar_walk(tree)
            pool = tree.tree.buffer
            box = QueryBox((1, 0), (14, 15))
            rows = []
            query = tree.range_query(box)
            for _ in range(8):
                rows.extend(next(query))
            for value in range(16):  # splits ahead of and behind the cursor
                for other in (3, 9, 14):
                    tree.insert((value, other), "late")
            rows.extend(query)
            return rows, priced(pool.disk.stats)[0]

        with kernels.use_backend(backend):
            assert interleaved(scalar=False) == interleaved(scalar=True)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [5, 8, 15, 33])
    @pytest.mark.parametrize("cut", [1, 3, 5, 7, 11, 20])
    def test_an_insert_mid_page_loses_and_repeats_no_row(self, backend, seed, cut):
        """A consumer that stops ``cut`` rows in — mid-page — and inserts
        (splitting pages ahead of and behind the cursor, the one being
        read included) still gets every row that existed before exactly
        once, and each late row at most once.  A page's rows are a
        snapshot taken when it is pulled; holding the page's live record
        list and survivor indices across pulls instead loses a row on
        every one of these seeds (the inserts shift the indices)."""
        with kernels.use_backend(backend):
            tree = grown_tree(count=200, capacity=3, seed=seed)
            box = QueryBox((1, 0), (14, 15))
            existing = rows_of(tree.range_query(box))
            rows = chain.from_iterable(tree.range_query(box))
            seen = Counter(next(rows) for _ in range(cut))
            late = [((value, other), "late") for value in range(16) for other in (3, 9, 14)]
            for point, payload in late:
                tree.insert(point, payload)
            seen.update(rows)
        assert [seen[row] for row in existing] == [1] * len(existing)
        assert all(seen[row] <= 1 for row in late)
        assert seen.total() == len(existing) + sum(seen[row] for row in late)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_missed_epoch_bump_is_caught_under_checks(self, backend, monkeypatch):
        """(ii) without (i): with the epoch frozen the cached directory
        is stale.  A scan trusts a snapshot of the tree's epoch, as a
        page's key memo trusts ``Page.version``, so the bump nobody made
        is the checker's to find: it holds every entry to a ``disk.peek``
        descent of the tree."""
        tree = grown_tree()
        stale = tree.region_directory()
        monkeypatch.setattr(BPlusTree, "structure_changed", lambda self: None)
        split_some_leaf(tree)
        split_some_leaf(tree, seed=1)
        assert tree.region_directory() is stale  # the epoch did not notice
        sort_curve = tree.space.tetris((1,))
        with kernels.use_backend(backend), checks():
            with pytest.raises(InvariantViolation, match="did not advance the epoch"):
                list(tree.scheduled_regions(FULL, None, sort_curve))
            with pytest.raises(InvariantViolation, match="did not advance the epoch"):
                list(tree.range_query(FULL))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_schedules_are_lists_checked_at_the_call(self, backend, monkeypatch):
        """``scheduled_regions`` and ``regions_overlapping`` hand over a
        list decided when they are called, not a generator that takes
        its snapshot at the first pull: under checks a stale directory
        is caught at the call, before anything is iterated."""
        tree = grown_tree()
        with kernels.use_backend(backend):
            assert isinstance(tree.scheduled_regions(FULL), list)
            assert isinstance(tree.regions_overlapping(FULL), list)
            monkeypatch.setattr(BPlusTree, "structure_changed", lambda self: None)
            split_some_leaf(tree)
            split_some_leaf(tree, seed=1)
            with checks():
                for schedule in (tree.scheduled_regions, tree.regions_overlapping):
                    with pytest.raises(
                        InvariantViolation, match="did not advance the epoch"
                    ):
                        schedule(FULL)


def make_schema():
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def make_rows(count, seed=99):
    rng = random.Random(seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(count)]


def journaled_table(rows=200, fill=1.0):
    db = Database(wal=True, buffer_pages=64)
    table = db.create_ub_table("t", make_schema(), ("a1", "a2"), 4)
    table.bulk_load(make_rows(rows), fill=fill)
    return db, table


class TestDirectoryAcrossRollbacks:
    def test_wal_batch_abort(self):
        db, table = journaled_table()
        tree = table.ubtree
        baseline = list(tree.regions())
        db.wal.begin("doomed")
        for row in make_rows(40, seed=4):
            table.insert(row)  # the tree joins the open batch
        assert tree.region_count > len(baseline)
        assert_matches_scalar_walk(tree)  # directory of the open batch
        db.wal.abort()  # restores the descriptors along with the pages
        assert list(tree.regions()) == baseline
        assert_matches_scalar_walk(tree)

    def test_scan_in_batch_abort_then_split_elsewhere_repeats_the_cheap_key(self):
        """``(root_id, height, leaf_count)`` comes back to the value it
        had when the aborted batch's directory was built, over a
        different partitioning — the epoch is what tells them apart."""
        db, table = journaled_table()
        tree = table.ubtree
        regions = list(tree.regions())
        low = tree.space.z.decode(regions[1].first)
        high = tree.space.z.decode(regions[-2].first)

        def cheap_key():
            return tree.tree.root_id, tree.tree.height, tree.tree.leaf_count

        db.wal.begin("doomed")
        tree.insert(low, "in-batch")  # full leaves: this splits region 1
        in_batch_key = cheap_key()
        in_batch = tree.region_directory()
        assert len(in_batch) == len(regions) + 1
        db.wal.abort()
        tree.insert(high, "committed")  # splits a region at the other end
        assert cheap_key() == in_batch_key
        assert tree.region_directory().lasts != in_batch.lasts
        assert_matches_scalar_walk(tree)

    def test_crash_mid_insert_and_recover(self):
        db, table = journaled_table()
        tree = table.ubtree
        baseline = list(tree.regions())
        assert_matches_scalar_walk(tree)
        disk = db.disk
        while hasattr(disk, "inner"):
            disk = disk.inner
        a1, a2 = tree.space.z.decode(baseline[2].first)
        disk.crash_after_writes(1)
        with pytest.raises(SimulatedCrashError):
            # a full leaf: the insert splits it, then dies on its first write
            table.insert((a1, a2, 1))
        assert_matches_scalar_walk(tree)  # rolled back in-process
        before_recovery = tree.region_directory()
        db.recover()
        assert tree.region_directory() is not before_recovery
        assert list(tree.regions()) == baseline
        assert_matches_scalar_walk(tree)

    def test_two_phase_presumed_abort_on_every_copy(self):
        sdb = ShardedDatabase(
            make_schema(), ("a1", "a2"), "a1",
            shards=2, copies=2, page_capacity=4, wal=True,
        )
        txn = TransactionCoordinator(sdb)
        sdb.load(make_rows(160))
        trees = [copy.table.ubtree for shard in sdb.shards for copy in shard.copies]
        baselines = [list(tree.regions()) for tree in trees]
        for tree in trees:
            assert_matches_scalar_walk(tree)  # every copy has a directory now
        # the prepare roster is forced, the verdict never lands: every
        # participant's batch (splits included) is presumed aborted
        txn.crash_after("txn-log", 2)
        with pytest.raises(SimulatedCrashError):
            txn.atomic_insert(make_rows(120, seed=5))
        for tree, baseline in zip(trees, baselines):
            assert tree.region_count > len(baseline)  # in doubt, splits and all
            assert_matches_scalar_walk(tree)
        txn.recover()
        for tree, baseline in zip(trees, baselines):
            assert list(tree.regions()) == baseline
            assert_matches_scalar_walk(tree)


# ----------------------------------------------------------------------
# first touch from several threads
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_concurrent_first_touch_builds_valid_directories(backend):
    """Nothing is locked: racing builders each publish a complete
    snapshot with one reference store, so every thread schedules from a
    whole directory and the survivor is one of them."""
    tree = grown_tree(count=600, capacity=3, bulk=True)
    space = QueryBox((1, 2), (14, 12))
    sort_curve = tree.space.tetris((0,))
    lo, hi = space.bounding_box()
    start = tree.space.z.encode(lo)
    workers = 8
    gate = threading.Barrier(workers)
    results, errors = [], []

    def first_touch():
        try:
            gate.wait(timeout=10)
            directory = tree.region_directory()
            results.append(
                kernels.get_backend().schedule_regions(
                    directory, start, lo, hi, space, None, sort_curve
                )
            )
        except BaseException as error:  # surfaced below, never swallowed
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with kernels.use_backend(backend), checks():
            threads = [threading.Thread(target=first_touch) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    expected = [
        (region.first, region.last, region.page_id, in_space, in_cover, key)
        for region, in_space, in_cover, key in scalar_schedule(
            tree, space, None, sort_curve
        )
    ]
    assert len(results) == workers
    for rows in results:
        assert [row[1:] for row in rows] == expected
    assert_matches_scalar_walk(tree, space)
