"""The NumPy backend keys each page once: its memo against the uncached kernel.

``NumPyBackend.scan_page_run`` keeps, per page and sort curve, the
page's keys in ascending order with their stable permutation and its
``(point, payload)`` rows in that order, and serves a warm page from
them with a mask and two takes.  The property here holds that memo to
the pure backend's ``scan_page_run``, which keeps nothing between calls,
element for element (count, keys, rows), on random pages in one to
three dimensions, single and composite sort orders (among them orders
that share a leading dimension, such as ``(0, 1)`` and ``(0, 2)``) and
four kinds of query space — while the page is mutated between scans:
``Page.add``, ``Page.restore``, a torn write through ``FaultyDisk`` and
B+-tree leaf splits.

Two sabotages must fail it: a memo that ignores ``Page.version``, and
one keyed by the leading sort dimension alone (``(0, 1)`` and ``(0, 2)``
would share an entry).  With ``REPRO_CHECKS=1`` the sweep itself must
catch the first at the page that was mutated.  And the memo must die
with the pages it describes.

The view also carries the page's zone (per-dimension min and max), from
which the kernel decides a page whole, empty or masked.  Each of the
four mutations moves a page's min or max across a query bound, and the
decision must follow; a zone that ignores ``Page.version`` fails here
and, under ``REPRO_CHECKS=1``, in the sweep's own ``check_page_run``.
"""

import gc
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import invariants, kernels
from repro.core import QueryBox, UBTree, ZSpace
from repro.core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
)
from repro.core.tetris import TetrisScan
from repro.invariants import InvariantViolation
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import BufferPool, SimulatedDisk
from repro.storage.faults import FaultPlan, FaultyDisk

from oracles import checks, injecting, leaves
pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="the page-key memo belongs to the NumPy backend",
)

if "numpy" in kernels.available_backends():
    import numpy as np

    from repro.kernels.numpy_backend import (
        NumPyBackend,
        _PageView,
        _page_matrix,
        _zone,
    )

CAPACITY = 64


def backend():
    return kernels.backend("numpy")


# ----------------------------------------------------------------------
# the reference: the pure kernel on the page's records as they are
# ----------------------------------------------------------------------
def uncached(curve, space, page):
    """``(count, keys, rows)`` from the pure backend's ``scan_page_run``,
    which keeps nothing between calls."""
    count, run = kernels.backend("python").scan_page_run(curve, space, page)
    return count, [key for key, _ in run], [row for _, row in run]


def cached(curve, space, page):
    count, (keys, rows) = backend().scan_page_run(curve, space, page)
    assert keys.dtype == np.uint64 and rows.dtype == object
    return count, keys.tolist(), rows.tolist()


# ----------------------------------------------------------------------
# programs: a random page, then scans interleaved with mutations
# ----------------------------------------------------------------------
def points_of(bits):
    return st.tuples(*(st.integers(0, (1 << b) - 1) for b in bits))


@st.composite
def boxes(draw, bits):
    corners = [
        sorted(draw(st.lists(st.integers(0, (1 << b) - 1), min_size=2, max_size=2)))
        for b in bits
    ]
    return ("box", tuple(lo for lo, _ in corners), tuple(hi for _, hi in corners))


@st.composite
def spaces(draw, bits):
    dims = len(bits)
    kinds = ["box", "cover", "intersection"] + (["comparison"] if dims > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "box":
        return draw(boxes(bits))
    if kind == "comparison":
        left, right = draw(st.permutations(range(dims)))[:2]
        op = draw(st.sampled_from(["<", "<=", ">", ">="]))
        return ("comparison", left, op, right)
    if kind == "cover":
        dim = draw(st.integers(0, dims - 1))
        cuts = sorted(draw(st.sets(st.integers(0, (1 << bits[dim]) - 1), max_size=6)))
        intervals = tuple(zip(cuts[::2], cuts[1::2]))
        return ("cover", dim, intervals)
    parts = [draw(boxes(bits)), draw(spaces(bits))]
    return ("intersection", tuple(parts))


def build_space(spec, bits):
    kind = spec[0]
    if kind == "box":
        return QueryBox(spec[1], spec[2])
    if kind == "comparison":
        return ComparisonSpace(len(bits), spec[1], spec[2], spec[3])
    if kind == "cover":
        coord_max = tuple((1 << b) - 1 for b in bits)
        return IntervalUnionSpace(coord_max, spec[1], spec[2])
    return IntersectionSpace([build_space(part, bits) for part in spec[1]])


@st.composite
def sort_orders(draw, dims, lead=None):
    """A sort order over ``dims`` dimensions, led by ``lead`` if given."""
    order = draw(st.permutations(range(dims)))
    if lead is not None:
        order = [lead, *(dim for dim in order if dim != lead)]
    return tuple(order[: draw(st.integers(1, dims))])


@st.composite
def steps(draw, bits, orders):
    kind = draw(st.sampled_from(["scan", "scan", "scan", "add", "restore", "torn"]))
    if kind == "scan":
        return ("scan", draw(st.sampled_from(orders)), draw(spaces(bits)))
    if kind == "add":
        return ("add", draw(points_of(bits)))
    if kind == "restore":
        return ("restore", draw(st.integers(0, 2**32)))
    return ("torn",)


@st.composite
def programs(draw):
    bits = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    points = draw(st.lists(points_of(bits), min_size=1, max_size=24))
    # a small palette of sort orders, so a page meets one order again
    # as a sweep's pages do, and an order that shares the first one's
    # leading dimension but not its tail, as (0, 1) and (0, 2) do
    orders = draw(st.lists(sort_orders(len(bits)), min_size=1, max_size=2))
    orders.append(draw(sort_orders(len(bits), lead=orders[0][0])))
    return bits, points, draw(st.lists(steps(bits, orders), min_size=2, max_size=10))


def run_program(program):
    """Apply the program to one page; every scan must match the reference."""
    bits, points, program_steps = program
    zspace = ZSpace(bits)
    inner = SimulatedDisk()
    faulty = FaultyDisk(inner, FaultPlan(torn_write_rate=1.0))
    page = inner.allocate(CAPACITY)

    def record(point, payload):
        return (zspace.z_address(point), (point, payload))

    page.extend(sorted(record(point, index) for index, point in enumerate(points)))
    for index, step in enumerate(program_steps):
        kind = step[0]
        if kind == "scan":
            _, sort_dims, spec = step
            curve = zspace.tetris(sort_dims)
            space = build_space(spec, bits)
            assert cached(curve, space, page) == uncached(
                curve, space, page
            ), f"step {index}: {step!r}"
        elif kind == "add":
            if not page.is_full:
                page.add(record(step[1], 1000 + index))
        elif kind == "restore":
            rng = random.Random(step[1])
            kept = rng.sample(page.records, rng.randrange(len(page.records) + 1))
            page.restore(sorted(kept))
        else:
            with injecting(faulty):
                faulty.write(page)  # acknowledged, but only half the records stay


#: a page scanned in two orders that share their leading dimension but
#: not their tail: in three dimensions ``(0,)`` and ``(0, 1)`` key apart
LEAD_SHARING = (
    (3, 3, 3),
    [(1, 2, 3), (3, 1, 0), (2, 2, 2), (0, 7, 1), (5, 0, 6)],
    [
        ("scan", (0,), ("box", (0, 0, 0), (7, 7, 7))),
        ("scan", (0, 1), ("box", (0, 0, 0), (7, 7, 7))),
    ],
)

PROPERTY = settings(max_examples=150, deadline=None)(
    example(LEAD_SHARING)(given(programs())(run_program))
)


def test_cached_runs_equal_the_uncached_kernel():
    PROPERTY()


# deterministic copy for the sabotages: same strategy, replayable; one
# failure reported (a stale view may also index past a page a torn write
# cut short in place, a second, IndexError failure)
SABOTAGED = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    database=None,
    report_multiple_bugs=False,
)(example(LEAD_SHARING)(given(programs())(run_program)))


def stale_views(monkeypatch):
    """Sabotage: a view is reused whatever ``page.version`` says."""
    real = NumPyBackend._page_view

    def page_view(self, page):
        view = self._views.get(page)
        return view if view is not None else real(self, page)

    monkeypatch.setattr(NumPyBackend, "_page_view", page_view)


def keyed_by_leading_dimension(monkeypatch):
    """Sabotage: the first order a page was keyed in serves every order
    with the same leading dimension."""
    real = _PageView.keyed

    def keyed(self, tables, curve, records):
        for cached_curve, run in self.runs.items():
            if cached_curve.schedule[0][0] == curve.schedule[0][0]:
                return run
        return real(self, tables, curve, records)

    monkeypatch.setattr(_PageView, "keyed", keyed)


@pytest.mark.parametrize("sabotage", [stale_views, keyed_by_leading_dimension])
def test_sabotaged_memos_fail_the_property(monkeypatch, sabotage):
    SABOTAGED()  # honest memo: the deterministic copy passes
    sabotage(monkeypatch)
    with pytest.raises(AssertionError):
        SABOTAGED()


# ----------------------------------------------------------------------
# B+-tree splits: every leaf a split touched is keyed afresh
# ----------------------------------------------------------------------
@given(
    st.integers(0, 2**32),
    st.lists(st.integers(0, 2), min_size=1, max_size=2),
)
@settings(max_examples=25, deadline=None)
def test_leaf_splits_rekey_the_split_leaves(seed, sort_dims):
    bits = (4, 3, 5)
    sort_dims = tuple(dict.fromkeys(sort_dims))
    rng = random.Random(seed)
    ubtree = UBTree(BufferPool(SimulatedDisk(), 256), ZSpace(bits), page_capacity=5)

    def insert(count, offset):
        for index in range(count):
            point = tuple(rng.randrange(1 << b) for b in bits)
            ubtree.insert(point, offset + index)

    curve = ubtree.space.tetris(sort_dims)
    space = QueryBox(
        tuple(rng.randrange(1 << b) // 2 for b in bits), ubtree.space.coord_max
    )

    def check_every_leaf():
        for leaf in leaves(ubtree.tree):
            assert cached(curve, space, leaf) == uncached(
                curve, space, leaf
            ), leaf.page_id

    insert(40, 0)
    check_every_leaf()  # every leaf now has a view in this order
    leaves_before = len(list(leaves(ubtree.tree)))
    insert(40, 100)
    assert len(list(leaves(ubtree.tree))) > leaves_before
    check_every_leaf()
    # end to end: the sweep's own check agrees on every page
    with checks(), kernels.use_backend("numpy"):
        stream = list(TetrisScan(ubtree, space, sort_dims))
    with kernels.use_backend("python"):
        assert stream == list(TetrisScan(ubtree, space, sort_dims))


# ----------------------------------------------------------------------
# a warm page costs a mask and two takes
# ----------------------------------------------------------------------
def test_a_warm_page_is_neither_encoded_nor_sorted(monkeypatch):
    zspace = ZSpace((4, 4))
    rng = random.Random(5)
    page = SimulatedDisk().allocate(CAPACITY)
    points = [(rng.randrange(16), rng.randrange(16)) for _ in range(40)]
    page.extend(sorted((zspace.z_address(p), (p, i)) for i, p in enumerate(points)))
    curve = zspace.tetris(1)
    box = QueryBox((2, 0), (13, 15))
    expected = uncached(curve, box, page)
    assert cached(curve, box, page) == expected  # cold: keys the page

    def refuse(*args, **kwargs):
        raise AssertionError("a warm page was keyed again")

    with monkeypatch.context() as patch:
        patch.setattr(NumPyBackend, "_encode_columns", staticmethod(refuse))
        patch.setattr(np, "argsort", refuse)
        assert cached(curve, box, page) == expected
    # another sort order is a second entry, keyed on first use
    composite = zspace.tetris((0, 1))
    assert cached(composite, box, page) == uncached(composite, box, page)
    assert len(backend()._views[page].runs) == 2


class Subscripted(list):
    """A page's records, counting subscripts: how a Python gather of the
    survivors' rows reads them."""

    reads = 0

    def __getitem__(self, index):
        Subscripted.reads += 1
        return super().__getitem__(index)


def test_a_warm_sweep_hands_out_the_pages_own_rows(monkeypatch):
    """Once every page's run is memoized, a sweep's slices are the memo's
    rows: the very ``(point, payload)`` objects the pages hold, with no
    record subscripted (no Python gather) and no page keyed again."""
    ubtree = UBTree(BufferPool(SimulatedDisk(), 256), ZSpace((4, 4)), page_capacity=6)
    rng = random.Random(19)
    for index in range(80):
        ubtree.insert((rng.randrange(16), rng.randrange(16)), index)
    box = QueryBox((2, 1), (13, 15))  # some pages whole, some masked
    with checks(False), kernels.use_backend("numpy"):
        expected = list(TetrisScan(ubtree, box, 1))  # keys every page
        pairs = {}
        for leaf in leaves(ubtree.tree):
            leaf.records = Subscripted(leaf.records)  # same records, same version
            pairs.update((id(pair), pair) for _, pair in leaf.records)
        scan_page_run = NumPyBackend.scan_page_run
        encode = NumPyBackend._encode_columns
        inside, encoded = [], []

        def watched_scan(self, *args):
            inside.append(True)
            try:
                return scan_page_run(self, *args)
            finally:
                inside.pop()

        def counted_encode(tables, columns):
            if inside:  # the schedule keys its regions outside the kernel
                encoded.append(len(columns))
            return encode(tables, columns)

        monkeypatch.setattr(NumPyBackend, "scan_page_run", watched_scan)
        monkeypatch.setattr(
            NumPyBackend, "_encode_columns", staticmethod(counted_encode)
        )
        Subscripted.reads = 0
        slices = list(TetrisScan(ubtree, box, 1).slices())
    rows = [row for _, part in slices for row in part]
    assert rows == expected
    assert all(pairs.get(id(row)) is row for row in rows)
    assert Subscripted.reads == 0
    assert encoded == []


# ----------------------------------------------------------------------
# REPRO_CHECKS=1: the sweep holds every page's run to the pure backend's
# ----------------------------------------------------------------------
def test_the_sweep_catches_a_stale_memo_at_the_mutated_page(monkeypatch):
    ubtree = UBTree(BufferPool(SimulatedDisk(), 256), ZSpace((4, 4)), page_capacity=6)
    rng = random.Random(11)
    for index in range(60):
        ubtree.insert((rng.randrange(16), rng.randrange(16)), index)
    box = QueryBox((0, 0), (15, 15))
    with kernels.use_backend("numpy"):
        list(TetrisScan(ubtree, box, 0))  # warm every leaf's view
        leaf = next(p for p in leaves(ubtree.tree) if p.records)
        # a mutation that bumps the version: same count and selection,
        # one new point, so only the run's keys can tell
        z_address, (point, payload) = leaf.records[0]
        moved = ((point[0] + 1) % 16, point[1])
        leaf.restore([(z_address, (moved, payload)), *leaf.records[1:]])
        stale_views(monkeypatch)
        with checks():
            with pytest.raises(
                InvariantViolation,
                match=rf"diverges from `python` on page {leaf.page_id} \(entries\)",
            ):
                list(TetrisScan(ubtree, box, 0))
        monkeypatch.undo()
        with checks():
            list(TetrisScan(ubtree, box, 0))  # the honest memo re-keys it


# ----------------------------------------------------------------------
# zones: a page's value range follows Page.version
# ----------------------------------------------------------------------
ZONE_BOX = QueryBox((4, 0), (11, 15))  # dimension 0 is bounded on both sides
INSIDE = [(5, 1), (6, 0), (7, 2), (8, 1), (9, 3), (10, 0)]
OUTSIDE = [(13, 15), (14, 15)]  # past ZONE_BOX's hi, and last in Z-order
ZONE_KINDS = ["add", "restore", "torn", "split"]


def zone_decisions(page):
    """The narrowing's decision for ``ZONE_BOX`` from the page's view,
    and from a zone taken off the page's records as they are now."""
    numpy_backend = backend()
    view = numpy_backend._page_view(page)
    columns = _page_matrix(page.records)
    decisions = []
    for narrowed in (
        numpy_backend._narrow(ZONE_BOX, view.columns, view.lows, view.highs),
        numpy_backend._narrow(ZONE_BOX, columns, *_zone(columns)),
    ):
        decisions.append(narrowed if isinstance(narrowed, bool) else "mask")
    return decisions


def zone_scenario(kind):
    """``(page, mutate, before, after)``: a page, a mutation of ``kind``
    moving its min or max on dimension 0 across a bound of ``ZONE_BOX``,
    and the narrowing's decision before and after it."""
    zspace = ZSpace((4, 4))

    def records(points):
        return sorted((zspace.z_address(p), (p, i)) for i, p in enumerate(points))

    if kind == "split":  # the split moves the records past hi to a sibling
        tree = UBTree(BufferPool(SimulatedDisk(), 64), zspace, page_capacity=8)
        for index, point in enumerate(INSIDE + OUTSIDE):
            tree.insert(point, index)
        (page,) = leaves(tree.tree)
        return page, lambda: tree.insert((6, 3), 99), "mask", True
    inner = SimulatedDisk()
    page = inner.allocate(CAPACITY)
    if kind == "add":  # the max crosses hi
        page.extend(records(INSIDE))
        outlier = records(OUTSIDE)[0]
        return page, lambda: page.add(outlier), True, "mask"
    if kind == "restore":  # the min crosses hi: no row passes
        page.extend(records(INSIDE))
        return page, lambda: page.restore(records(OUTSIDE)), True, False
    # a torn write keeps the first half: the max falls back below hi
    page.extend(records(INSIDE + OUTSIDE))
    faulty = FaultyDisk(inner, FaultPlan(torn_write_rate=1.0))

    def tear():
        with injecting(faulty):
            faulty.write(page)

    return page, tear, "mask", True


def run_zone_scenario(kind):
    page, mutate, before, after = zone_scenario(kind)
    curve = ZSpace((4, 4)).tetris(0)
    assert zone_decisions(page) == [before, before], kind
    assert cached(curve, ZONE_BOX, page) == uncached(curve, ZONE_BOX, page)
    mutate()
    assert zone_decisions(page) == [after, after], kind
    assert cached(curve, ZONE_BOX, page) == uncached(curve, ZONE_BOX, page)


def stale_zones(monkeypatch):
    """Sabotage: a rebuilt view keeps the zone of the view it replaces."""
    real = NumPyBackend._page_view

    def page_view(self, page):
        old = self._views.get(page)
        view = real(self, page)
        if old is not None and view is not old:
            view.lows, view.highs = old.lows, old.highs
        return view

    monkeypatch.setattr(NumPyBackend, "_page_view", page_view)


@pytest.mark.parametrize("kind", ZONE_KINDS)
def test_zone_decisions_follow_the_page_version(kind):
    run_zone_scenario(kind)


@pytest.mark.parametrize("kind", ZONE_KINDS)
def test_a_zone_that_ignores_the_version_fails(monkeypatch, kind):
    stale_zones(monkeypatch)
    with pytest.raises(AssertionError):
        run_zone_scenario(kind)


def test_the_sweep_catches_a_stale_zone_at_the_mutated_page(monkeypatch):
    ubtree = UBTree(BufferPool(SimulatedDisk(), 256), ZSpace((4, 4)), page_capacity=6)
    rng = random.Random(11)
    for index in range(60):
        ubtree.insert((rng.randrange(12), rng.randrange(16)), index)
    box = QueryBox((0, 0), (11, 15))  # every leaf lies inside it whole
    with kernels.use_backend("numpy"):
        list(TetrisScan(ubtree, box, 0))  # warm every leaf's view
        leaf = next(p for p in leaves(ubtree.tree) if p.records)
        # one point moves past the bound: the page is no longer whole
        z_address, (point, payload) = leaf.records[0]
        leaf.restore([(z_address, ((14, point[1]), payload)), *leaf.records[1:]])
        stale_zones(monkeypatch)
        with checks():
            with pytest.raises(
                InvariantViolation,
                match=rf"diverges from `python` on page {leaf.page_id} \(count\)",
            ):
                list(TetrisScan(ubtree, box, 0))
        monkeypatch.undo()
        del backend()._views[leaf]  # the sabotage stored a poisoned view
        with checks():
            list(TetrisScan(ubtree, box, 0))  # the honest view zones it afresh


# ----------------------------------------------------------------------
# liveness: views die with their pages
# ----------------------------------------------------------------------
def test_views_die_with_the_database():
    views = backend()._views
    gc.collect()
    before = len(views)
    schema = Schema(
        [Attribute("a", IntEncoder(0, 255)), Attribute("b", IntEncoder(0, 255))]
    )
    db = Database(buffer_pages=64)
    table = db.create_ub_table("t", schema, ("a", "b"), 8)
    rng = random.Random(3)
    table.load([(rng.randrange(256), rng.randrange(256)) for _ in range(200)])
    with kernels.use_backend("numpy"):
        rows = list(table.tetris_scan(None, "b"))
    assert len(rows) == 200
    assert len(views) > before
    del db, table, rows
    gc.collect()
    assert len(views) == before
