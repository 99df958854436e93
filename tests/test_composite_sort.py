"""Tests for composite (multi-attribute) Tetris sort orders."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Curve, QueryBox, UBTree, ZSpace, tetris_sorted
from repro.core.curves import tetris_schedule
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import BufferPool, SimulatedDisk

from oracles import event_point_order


class TestCompositeSchedule:
    def test_two_leading_dims(self):
        schedule = tetris_schedule([2, 2, 2], (1, 0))
        assert schedule[:4] == ((1, 0), (1, 1), (0, 0), (0, 1))
        assert schedule[4:] == ((2, 0), (2, 1))

    def test_all_dims_is_plain_lexicographic(self):
        curve = Curve.tetris_curve([2, 2], (0, 1))
        addresses = sorted(
            (curve.encode((x, y)), (x, y)) for x in range(4) for y in range(4)
        )
        points = [p for _, p in addresses]
        assert points == sorted(points)  # lexicographic tuple order

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            tetris_schedule([2, 2], (0, 0))
        with pytest.raises(ValueError):
            tetris_schedule([2, 2], ())
        with pytest.raises(ValueError):
            tetris_schedule([2, 2], (0, 5))

    def test_zspace_caches_by_dims_tuple(self):
        space = ZSpace([3, 3, 3])
        assert space.tetris((0, 1)) is space.tetris((0, 1))
        assert space.tetris((0, 1)) is not space.tetris((1, 0))
        assert space.tetris(0) is space.tetris(0)


def build_tree(bits=(4, 4, 4), count=300, seed=9, page_capacity=4):
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 256), ZSpace(bits), page_capacity=page_capacity)
    rng = random.Random(seed)
    points = []
    for index in range(count):
        point = tuple(rng.randrange(1 << b) for b in bits)
        points.append(point)
        tree.insert(point, index)
    return tree, points


class TestCompositeTetris:
    def test_sorted_by_composite_key(self):
        tree, points = build_tree()
        box = QueryBox((1, 0, 2), (14, 15, 13))
        out = list(tetris_sorted(tree, box, (1, 2)))
        keys = [(p[1], p[2]) for p, _ in out]
        assert keys == sorted(keys)
        assert len(out) == sum(1 for p in points if box.contains_point(p))

    def test_strategies_agree_on_composite(self):
        """A composite order reads the event-point loop's pages in its
        order."""
        tree, _ = build_tree(count=200)
        box = QueryBox((0, 3, 0), (15, 12, 15))
        scan = tetris_sorted(tree, box, (0, 2))
        list(scan)
        assert scan.page_access_order == event_point_order(tree, box, (0, 2))

    def test_single_dim_equals_one_tuple(self):
        tree, _ = build_tree(count=150)
        box = QueryBox.full(tree.space.coord_max)
        single = list(tetris_sorted(tree, box, 1))
        as_tuple = list(tetris_sorted(tree, box, (1,)))
        assert single == as_tuple

    def test_each_page_once_still_holds(self):
        tree, _ = build_tree(count=250)
        box = QueryBox((2, 2, 2), (13, 13, 13))
        scan = tetris_sorted(tree, box, (1, 0))
        list(scan)
        assert len(scan.page_access_order) == len(set(scan.page_access_order))

    def test_rejects_bad_composite(self):
        tree, _ = build_tree(count=10)
        box = QueryBox.full(tree.space.coord_max)
        with pytest.raises(ValueError):
            tetris_sorted(tree, box, (0, 0))
        with pytest.raises(ValueError):
            tetris_sorted(tree, box, ())
        with pytest.raises(ValueError):
            tetris_sorted(tree, box, (0, 7))


class TestTableCompositeSort:
    def test_sort_attr_sequence(self):
        schema = Schema(
            [
                Attribute("a", IntEncoder(0, 31)),
                Attribute("b", IntEncoder(0, 31)),
                Attribute("c", IntEncoder(0, 999)),
            ]
        )
        db = Database()
        table = db.create_ub_table("t", schema, dims=("a", "b"), page_capacity=8)
        rng = random.Random(10)
        rows = [(rng.randrange(32), rng.randrange(32), i) for i in range(200)]
        table.load(rows)
        out = [row for _, row in table.tetris_scan(None, ("b", "a"))]
        keys = [(r[1], r[0]) for r in out]
        assert keys == sorted(keys)
        assert len(out) == 200


@st.composite
def composite_cases(draw):
    dims = draw(st.integers(2, 4))
    bits = tuple(draw(st.integers(2, 3)) for _ in range(dims))
    count = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 5000))
    order = draw(st.permutations(range(dims)))
    prefix_len = draw(st.integers(1, dims))
    return bits, count, seed, tuple(order[:prefix_len])


@given(composite_cases())
@settings(max_examples=50, deadline=None)
def test_composite_property(case):
    bits, count, seed, sort_dims = case
    tree, points = build_tree(bits=bits, count=count, seed=seed)
    box = QueryBox.full(tree.space.coord_max)
    out = list(tetris_sorted(tree, box, sort_dims))
    keys = [tuple(p[d] for d in sort_dims) for p, _ in out]
    assert keys == sorted(keys)
    assert len(out) == len(points)
