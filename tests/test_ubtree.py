"""Tests for the UB-Tree: partitioning invariants, point/range queries."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import QueryBox, UBTree, ZSpace
from repro.core.query_space import ComparisonSpace, IntersectionSpace
from repro.storage import BufferPool, SimulatedDisk

from oracles import point_query, read_seeks, rows_of


def make_ubtree(bits=(4, 4), page_capacity=4, buffer_pages=256):
    disk = SimulatedDisk()
    pool = BufferPool(disk, buffer_pages)
    return UBTree(pool, ZSpace(bits), page_capacity=page_capacity), disk


def fill(ubtree, count, seed=0, bits=(4, 4)):
    rng = random.Random(seed)
    points = []
    for index in range(count):
        point = tuple(rng.randrange(1 << b) for b in bits)
        points.append(point)
        ubtree.insert(point, index)
    return points


class TestUBTreeBasics:
    def test_empty_tree_invariants(self):
        ubtree, _ = make_ubtree()
        ubtree.check_invariants()
        assert len(ubtree) == 0
        assert ubtree.region_count == 1

    def test_insert_and_point_query(self):
        ubtree, _ = make_ubtree()
        ubtree.insert((3, 5), "payload")
        assert point_query(ubtree, (3, 5)) == ["payload"]
        assert point_query(ubtree, (5, 3)) == []

    def test_point_query_distinguishes_same_z_neighbourhood(self):
        ubtree, _ = make_ubtree()
        ubtree.insert((1, 2), "a")
        ubtree.insert((2, 1), "b")
        assert point_query(ubtree, (1, 2)) == ["a"]
        assert point_query(ubtree, (2, 1)) == ["b"]

    def test_duplicate_points(self):
        ubtree, _ = make_ubtree()
        ubtree.insert((3, 3), "first")
        ubtree.insert((3, 3), "second")
        assert sorted(point_query(ubtree, (3, 3))) == ["first", "second"]

    def test_delete(self):
        ubtree, _ = make_ubtree()
        ubtree.insert((3, 3), "first")
        ubtree.insert((3, 3), "second")
        assert ubtree.delete((3, 3), "first")
        assert point_query(ubtree, (3, 3)) == ["second"]
        assert not ubtree.delete((9, 9))

    def test_regions_tile_universe_after_splits(self):
        ubtree, _ = make_ubtree(page_capacity=2)
        fill(ubtree, 100, seed=5)
        ubtree.check_invariants()  # includes tiling + containment checks
        assert ubtree.region_count > 10

    def test_region_for_bounds(self):
        ubtree, _ = make_ubtree(page_capacity=2)
        fill(ubtree, 60, seed=2)
        previous_last = -1
        for region in ubtree.regions():
            assert region.first == previous_last + 1
            previous_last = region.last
        assert previous_last == ubtree.space.address_max

    def test_region_for_any_address(self):
        ubtree, _ = make_ubtree(page_capacity=2)
        fill(ubtree, 40, seed=3)
        for z in range(0, 256, 17):
            region, page = ubtree.region_for(z, charge=False)
            assert region.contains(z)


class TestRangeQuery:
    def test_matches_brute_force(self):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 150, seed=7)
        box = QueryBox((2, 3), (11, 13))
        expected = sorted(
            (point, index)
            for index, point in enumerate(points)
            if box.contains_point(point)
        )
        got = sorted(rows_of(ubtree.range_query(box)))
        assert got == expected

    def test_each_region_read_once(self):
        ubtree, disk = make_ubtree(page_capacity=3, buffer_pages=4)
        fill(ubtree, 150, seed=7)
        ubtree.tree.buffer.drop_all()
        box = QueryBox((2, 3), (11, 13))
        overlapping = sum(1 for _ in ubtree.regions_overlapping(box))
        before = disk.snapshot()
        list(ubtree.range_query(box))
        delta = disk.snapshot() - before
        assert delta.pages_read == overlapping
        assert read_seeks(delta) == overlapping

    def test_empty_box(self):
        ubtree, _ = make_ubtree()
        fill(ubtree, 30)
        empty = QueryBox((5, 5), (3, 3))
        assert list(ubtree.range_query(empty)) == []

    def test_full_universe_box_returns_everything(self):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 80, seed=11)
        box = QueryBox.full(ubtree.space.coord_max)
        assert len(rows_of(ubtree.range_query(box))) == len(points)

    def test_point_box(self):
        ubtree, _ = make_ubtree(page_capacity=3)
        points = fill(ubtree, 80, seed=13)
        target = points[17]
        box = QueryBox(target, target)
        results = [payload for _, payload in rows_of(ubtree.range_query(box))]
        expected = [i for i, p in enumerate(points) if p == target]
        assert sorted(results) == expected

    def test_triangular_space_pruning(self):
        ubtree, disk = make_ubtree(page_capacity=3)
        points = fill(ubtree, 150, seed=17)
        triangle = IntersectionSpace(
            [
                QueryBox.full(ubtree.space.coord_max),
                ComparisonSpace(2, 0, "<", 1),
            ]
        )
        expected = sorted(
            (p, i) for i, p in enumerate(points) if p[0] < p[1]
        )
        assert sorted(rows_of(ubtree.range_query(triangle))) == expected
        # pruning reads fewer pages than the full region count
        ubtree.tree.buffer.drop_all()
        before = disk.snapshot()
        list(ubtree.range_query(triangle))
        delta = disk.snapshot() - before
        assert delta.pages_read < ubtree.region_count

    def test_three_dimensional(self):
        ubtree, _ = make_ubtree(bits=(3, 3, 3), page_capacity=4)
        points = fill(ubtree, 120, seed=19, bits=(3, 3, 3))
        box = QueryBox((1, 2, 0), (6, 7, 4))
        expected = sorted(
            (p, i) for i, p in enumerate(points) if box.contains_point(p)
        )
        assert sorted(rows_of(ubtree.range_query(box))) == expected
        assert len(rows_of(ubtree.range_query(box))) == len(expected)


@st.composite
def ubtree_cases(draw):
    dims = draw(st.integers(2, 3))
    bits = tuple(draw(st.integers(2, 4)) for _ in range(dims))
    count = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 10_000))
    lo = tuple(draw(st.integers(0, (1 << b) - 1)) for b in bits)
    hi = tuple(
        draw(st.integers(low, (1 << b) - 1)) for low, b in zip(lo, bits)
    )
    return bits, count, seed, lo, hi


@given(ubtree_cases())
@settings(max_examples=60, deadline=None)
def test_range_query_property(case):
    bits, count, seed, lo, hi = case
    ubtree, _ = make_ubtree(bits=bits, page_capacity=3)
    points = fill(ubtree, count, seed=seed, bits=bits)
    ubtree.check_invariants()
    box = QueryBox(lo, hi)
    expected = sorted(
        (p, i) for i, p in enumerate(points) if box.contains_point(p)
    )
    assert sorted(rows_of(ubtree.range_query(box))) == expected
