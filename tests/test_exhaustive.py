"""Exhaustive small-universe verification.

Inserts *every* point of a small universe (and random multisets of it)
and checks every access path against brute force for a systematic grid
of query boxes — the strongest correctness evidence short of a proof,
complementing the randomized hypothesis suites.
"""

import itertools
import random

import pytest

from repro.core import QueryBox, UBTree, ZSpace, tetris_sorted
from repro.storage import BufferPool, SimulatedDisk

from oracles import event_point_order, rows_of


def full_universe_tree(bits, page_capacity=3):
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 256), ZSpace(bits), page_capacity=page_capacity)
    points = list(itertools.product(*[range(1 << b) for b in bits]))
    for index, point in enumerate(points):
        tree.insert(point, index)
    return tree, points


def all_boxes(side):
    for x_lo in range(side):
        for x_hi in range(x_lo, side):
            for y_lo in range(side):
                for y_hi in range(y_lo, side):
                    yield (x_lo, y_lo), (x_hi, y_hi)


class TestExhaustive2D:
    @pytest.fixture(scope="class")
    def world(self):
        return full_universe_tree((2, 2))

    def test_every_box_range_query(self, world):
        tree, points = world
        for lo, hi in all_boxes(4):
            box = QueryBox(lo, hi)
            got = sorted(p for p, _ in rows_of(tree.range_query(box)))
            expected = sorted(p for p in points if box.contains_point(p))
            assert got == expected, (lo, hi)

    @pytest.mark.parametrize("schedule", ["eager"])  # the one schedule; ids kept
    @pytest.mark.parametrize("dim", [0, 1])
    def test_every_box_tetris(self, world, schedule, dim):
        tree, points = world
        for lo, hi in all_boxes(4):
            box = QueryBox(lo, hi)
            scan = tetris_sorted(tree, box, dim)
            out = [p for p, _ in scan]
            assert scan.page_access_order == event_point_order(tree, box, dim)
            expected = sorted(
                (p for p in points if box.contains_point(p)),
                key=lambda p: (p[dim], p[1 - dim]),
            )
            assert sorted(out) == sorted(expected), (lo, hi)
            values = [p[dim] for p in out]
            assert values == sorted(values), (lo, hi)


class TestExhaustiveUnequalBits:
    def test_8x2_universe(self):
        tree, points = full_universe_tree((3, 1))
        for x_lo in range(8):
            for x_hi in range(x_lo, 8):
                for y_lo in range(2):
                    for y_hi in range(y_lo, 2):
                        box = QueryBox((x_lo, y_lo), (x_hi, y_hi))
                        got = sorted(p for p, _ in rows_of(tree.range_query(box)))
                        expected = sorted(
                            p for p in points if box.contains_point(p)
                        )
                        assert got == expected


class TestExhaustiveMultiset:
    """Random multisets (duplicates!) of a small universe, all boxes."""

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_heavy_workload(self, seed):
        rng = random.Random(seed)
        disk = SimulatedDisk()
        tree = UBTree(BufferPool(disk, 128), ZSpace((2, 2)), page_capacity=2)
        points = [
            (rng.randrange(4), rng.randrange(4)) for _ in range(60)
        ]  # ~4 copies of each cell on average
        for index, point in enumerate(points):
            tree.insert(point, index)
        tree.check_invariants()
        for lo, hi in all_boxes(4):
            box = QueryBox(lo, hi)
            got = sorted(rows_of(tree.range_query(box)))
            expected = sorted(
                (p, i) for i, p in enumerate(points) if box.contains_point(p)
            )
            assert got == expected, (lo, hi)
            out = list(tetris_sorted(tree, box, 1))
            assert len(out) == len(expected)
            values = [p[1] for p, _ in out]
            assert values == sorted(values)


class TestExhaustive3D:
    def test_3d_universe_sampled_boxes(self):
        tree, points = full_universe_tree((2, 2, 2), page_capacity=4)
        rng = random.Random(9)
        for _ in range(60):
            lo = tuple(rng.randrange(4) for _ in range(3))
            hi = tuple(rng.randrange(l, 4) for l in lo)
            box = QueryBox(lo, hi)
            got = sorted(p for p, _ in rows_of(tree.range_query(box)))
            expected = sorted(p for p in points if box.contains_point(p))
            assert got == expected
            for dim in range(3):
                out = [p for p, _ in tetris_sorted(tree, box, dim)]
                values = [p[dim] for p in out]
                assert values == sorted(values)
                assert len(out) == len(expected)
