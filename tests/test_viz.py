"""Tests for the ASCII visualizations."""

import random

import pytest

from repro.core import QueryBox, UBTree, ZSpace, tetris_sorted
from repro.storage import BufferPool, SimulatedDisk
from repro.viz import render_partitioning, render_sweep


def make_tree(bits=(3, 3), page_capacity=2, count=20, seed=0):
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 64), ZSpace(bits), page_capacity=page_capacity)
    rng = random.Random(seed)
    for index in range(count):
        tree.insert(tuple(rng.randrange(1 << b) for b in bits), index)
    return tree


def test_partitioning_dimensions():
    tree = make_tree()
    art = render_partitioning(tree)
    lines = art.splitlines()
    assert len(lines) == 8
    assert all(len(line) == 8 for line in lines)


def test_partitioning_labels_match_regions():
    tree = make_tree()
    art = render_partitioning(tree)
    # number of distinct glyphs equals the number of regions (small tree)
    glyphs = {ch for line in art.splitlines() for ch in line}
    assert len(glyphs) == tree.region_count


def test_single_region_tree_uniform():
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 16), ZSpace((2, 2)), page_capacity=64)
    tree.insert((0, 0), "x")
    art = render_partitioning(tree)
    assert set(art.replace("\n", "")) == {"0"}


def test_sweep_rendering_marks_progress():
    tree = make_tree(count=40)
    box = QueryBox((1, 1), (6, 6))
    scan = tetris_sorted(tree, box, 1)
    list(scan)
    art = render_sweep(tree, box, scan.page_access_order[:2])
    assert "#" in art  # something retrieved
    assert " " in art  # something outside the box
    full = render_sweep(tree, box, scan.page_access_order)
    assert "·" not in full  # everything in-box retrieved at the end


def test_rejects_non_2d():
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 16), ZSpace((2, 2, 2)), page_capacity=4)
    with pytest.raises(ValueError):
        render_partitioning(tree)
    with pytest.raises(ValueError):
        render_sweep(tree, QueryBox((0, 0, 0), (1, 1, 1)), [])


def test_rejects_oversized_universe():
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 16), ZSpace((8, 8)), page_capacity=4)
    tree.insert((0, 0), "x")
    with pytest.raises(ValueError):
        render_partitioning(tree)
