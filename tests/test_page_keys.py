"""The NumPy backend keys each page once: its memo against the uncached kernel.

``NumPyBackend.scan_page_run`` keeps, per page and sort curve, the
page's keys in ascending order with their stable permutation, and serves
a warm page from them with a mask and two takes.  The property here
holds that memo to the uncached ``_select_and_key`` it replaced, element
for element (count, selection, keys, arrival orders), on random pages in
one to three dimensions, single and composite sort orders (among them
orders that share a leading dimension, such as ``(0, 1)`` and ``(0,
2)``), four kinds of query space and non-zero arrival bases — while the
page is mutated between scans: ``Page.add``, ``Page.restore``, a torn
write through ``FaultyDisk`` and B+-tree leaf splits.

Two sabotages must fail it: a memo that ignores ``Page.version``, and
one keyed by the leading sort dimension alone (``(0, 1)`` and ``(0, 2)``
would share an entry).  With ``REPRO_CHECKS=1`` the sweep itself must
catch the first at the page that was mutated.  And the memo must die
with the pages it describes.
"""

import gc
import random

import pytest
from hypothesis import given, settings
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

pytestmark = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="the page-key memo belongs to the NumPy backend",
)

if "numpy" in kernels.available_backends():
    import numpy as np

    from repro.kernels.numpy_backend import (
        NumPyBackend,
        _PagePoints,
        _PageView,
        _page_matrix,
    )

CAPACITY = 64


def backend():
    return kernels.backend("numpy")


# ----------------------------------------------------------------------
# the reference: the uncached kernel on freshly converted columns
# ----------------------------------------------------------------------
def uncached(curve, space, page, base):
    """``(count, selected, keys, orders)`` straight from ``_select_and_key``."""
    records = page.records
    if not records:
        return 0, [], [], []
    numpy_backend = backend()
    keyed = numpy_backend._select_and_key(
        numpy_backend._tables_for(curve),
        space,
        _page_matrix(records),
        _PagePoints(records),
    )
    if keyed is None:
        return 0, [], [], []
    selected, keys, perm = keyed
    return (
        int(selected.size),
        selected.tolist(),
        keys[perm].tolist(),
        (perm + base).tolist(),
    )


def cached(curve, space, page, base):
    count, selected, (keys, orders) = backend().scan_page_run(
        curve, space, page, base
    )
    assert keys.dtype == orders.dtype == np.uint64
    return count, list(selected), keys.tolist(), orders.tolist()


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
        return (
            "scan",
            draw(st.sampled_from(orders)),
            draw(spaces(bits)),
            draw(st.integers(0, 10_000)),
        )
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
            _, sort_dims, spec, base = step
            curve = zspace.tetris(sort_dims)
            space = build_space(spec, bits)
            assert cached(curve, space, page, base) == uncached(
                curve, space, page, base
            ), f"step {index}: {step!r}"
        elif kind == "add":
            if not page.is_full:
                page.add(record(step[1], 1000 + index))
        elif kind == "restore":
            rng = random.Random(step[1])
            kept = rng.sample(page.records, rng.randrange(len(page.records) + 1))
            page.restore(sorted(kept))
        else:
            with faulty.injecting():
                faulty.write(page)  # acknowledged, but only half the records stay


PROPERTY = settings(max_examples=150, deadline=None)(given(programs())(run_program))


def test_cached_runs_equal_the_uncached_kernel():
    PROPERTY()


# deterministic copy for the sabotages: same strategy, replayable
SABOTAGED = settings(
    max_examples=80, deadline=None, derandomize=True, database=None
)(given(programs())(run_program))


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

    def keyed(self, tables, curve):
        for cached_curve, run in self.runs.items():
            if cached_curve.schedule[0][0] == curve.schedule[0][0]:
                return run
        return real(self, tables, curve)

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
        for leaf in ubtree.tree.iterate_leaves(charge=False):
            base = rng.randrange(1000)
            assert cached(curve, space, leaf, base) == uncached(
                curve, space, leaf, base
            ), leaf.page_id

    insert(40, 0)
    check_every_leaf()  # every leaf now has a view in this order
    leaves_before = len(list(ubtree.tree.iterate_leaves(charge=False)))
    insert(40, 100)
    assert len(list(ubtree.tree.iterate_leaves(charge=False))) > leaves_before
    check_every_leaf()
    # end to end: the sweep's own check agrees on every page
    with invariants.checks(), kernels.use_backend("numpy"):
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
    expected = uncached(curve, box, page, 7)
    assert cached(curve, box, page, 7) == expected  # cold: keys the page

    def refuse(*args, **kwargs):
        raise AssertionError("a warm page was keyed again")

    with monkeypatch.context() as patch:
        patch.setattr(NumPyBackend, "_encode_columns", staticmethod(refuse))
        patch.setattr(np, "argsort", refuse)
        assert cached(curve, box, page, 7) == expected
    # another sort order is a second entry, keyed on first use
    composite = zspace.tetris((0, 1))
    assert cached(composite, box, page, 0) == uncached(composite, box, page, 0)
    assert len(backend()._views[page].runs) == 2


# ----------------------------------------------------------------------
# REPRO_CHECKS=1: the sweep holds every page's run to scan_page
# ----------------------------------------------------------------------
def test_the_sweep_catches_a_stale_memo_at_the_mutated_page(monkeypatch):
    ubtree = UBTree(BufferPool(SimulatedDisk(), 256), ZSpace((4, 4)), page_capacity=6)
    rng = random.Random(11)
    for index in range(60):
        ubtree.insert((rng.randrange(16), rng.randrange(16)), index)
    box = QueryBox((0, 0), (15, 15))
    with kernels.use_backend("numpy"):
        list(TetrisScan(ubtree, box, 0))  # warm every leaf's view
        leaf = next(p for p in ubtree.tree.iterate_leaves(charge=False) if p.records)
        # a mutation that bumps the version: same count and selection,
        # one new point, so only the run's keys can tell
        z_address, (point, payload) = leaf.records[0]
        moved = ((point[0] + 1) % 16, point[1])
        leaf.restore([(z_address, (moved, payload)), *leaf.records[1:]])
        stale_views(monkeypatch)
        with invariants.checks():
            with pytest.raises(
                InvariantViolation,
                match=rf"diverges from the uncached scan_page on page {leaf.page_id} "
                r"\(entries\)",
            ):
                list(TetrisScan(ubtree, box, 0))
        monkeypatch.undo()
        with invariants.checks():
            list(TetrisScan(ubtree, box, 0))  # the honest memo re-keys it


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
