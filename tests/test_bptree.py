"""Tests for the B+-tree substrate: ordering, splits, accounting."""

import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree import BPlusTree, TOP
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import BufferPool, SimulatedDisk

from oracles import read_seeks, rows_of, search


def make_tree(leaf_capacity=4, fanout=4, buffer_pages=256):
    disk = SimulatedDisk()
    pool = BufferPool(disk, buffer_pages)
    return BPlusTree(pool, leaf_capacity=leaf_capacity, fanout=fanout), disk


class TestBPlusTree:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert tree.record_count == 0
        assert search(tree, 5) == []
        assert rows_of(tree.range_scan()) == []

    def test_insert_and_search(self):
        tree, _ = make_tree()
        for key in [5, 3, 8, 1, 9, 2]:
            tree.insert(key, f"v{key}")
        assert search(tree, 8) == ["v8"]
        assert search(tree, 4) == []
        tree.check_invariants()

    def test_duplicates(self):
        tree, _ = make_tree()
        for _ in range(3):
            tree.insert(7, "same")
        tree.insert(7, "other")
        assert len(search(tree, 7)) == 4

    def test_splits_build_height(self):
        tree, _ = make_tree(leaf_capacity=2, fanout=3)
        for key in range(50):
            tree.insert(key, key)
        assert tree.height > 2
        assert tree.leaf_count > 10
        tree.check_invariants()
        assert [k for k, _ in rows_of(tree.range_scan())] == list(range(50))

    def test_random_insert_order(self):
        tree, _ = make_tree(leaf_capacity=5, fanout=5)
        keys = list(range(300))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 2)
        tree.check_invariants()
        scanned = rows_of(tree.range_scan())
        assert [k for k, _ in scanned] == list(range(300))
        assert all(v == k * 2 for k, v in scanned)

    def test_range_scan_bounds(self):
        tree, _ = make_tree()
        for key in range(0, 100, 2):  # even keys
            tree.insert(key, key)
        assert [k for k, _ in rows_of(tree.range_scan(10, 20))] == [10, 12, 14, 16, 18, 20]
        assert [k for k, _ in rows_of(tree.range_scan(9, 21))] == [10, 12, 14, 16, 18, 20]
        assert [k for k, _ in rows_of(tree.range_scan(90))] == [90, 92, 94, 96, 98]
        assert [k for k, _ in rows_of(tree.range_scan(None, 4))] == [0, 2, 4]

    def test_delete(self):
        tree, _ = make_tree()
        for key in range(20):
            tree.insert(key, key)
        assert tree.delete(7)
        assert not tree.delete(7)
        assert search(tree, 7) == []
        assert tree.record_count == 19
        tree.check_invariants()

    def test_delete_specific_value(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.delete(1, "b")
        assert search(tree, 1) == ["a"]

    def test_all_equal_keys_overflow_instead_of_split(self):
        tree, _ = make_tree(leaf_capacity=3)
        for _ in range(10):
            tree.insert(42, "x")
        assert tree.overflow_pages > 0
        assert len(search(tree, 42)) == 10
        tree.check_invariants()

    def test_split_never_separates_equal_keys(self):
        tree, _ = make_tree(leaf_capacity=4)
        for key in [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]:
            tree.insert(key, key)
        tree.check_invariants()
        for key in (1, 2, 3, 4):
            assert len(search(tree, key)) == 3

    def test_leaf_for_bounds(self):
        tree, _ = make_tree(leaf_capacity=2)
        for key in range(16):
            tree.insert(key, key)
        leaf, low, high = tree.leaf_for(0, charge=False)
        assert low is None
        leaf, low, high = tree.leaf_for(15, charge=False)
        assert high is None
        # middle leaves have both bounds and contain their key range
        leaf, low, high = tree.leaf_for(8, charge=False)
        assert low is not None and high is not None
        assert low < 8 <= high

    def test_leaf_reads_are_random_priced(self):
        tree, disk = make_tree(leaf_capacity=2)
        for key in range(40):
            tree.insert(key, key)
        before = disk.snapshot()
        rows_of(tree.range_scan())
        delta = disk.snapshot() - before
        assert delta.pages_read == tree.leaf_count
        assert read_seeks(delta) == tree.leaf_count  # one seek per leaf

    def test_inner_reads_unpriced(self):
        tree, disk = make_tree(leaf_capacity=2, fanout=3, buffer_pages=1)
        for key in range(64):
            tree.insert(key, key)
        before = disk.snapshot()
        search(tree, 10)
        delta = disk.snapshot() - before
        assert delta.pages_read == 1  # only the leaf is priced

    def test_rejects_bad_parameters(self):
        disk = SimulatedDisk()
        pool = BufferPool(disk, 8)
        with pytest.raises(ValueError):
            BPlusTree(pool, leaf_capacity=1)
        with pytest.raises(ValueError):
            BPlusTree(pool, leaf_capacity=4, fanout=2)


@given(
    st.lists(st.integers(0, 500), min_size=0, max_size=200),
    st.integers(0, 500),
    st.integers(0, 500),
)
@settings(max_examples=100, deadline=None)
def test_bptree_matches_sorted_list_model(keys, lo, hi):
    tree, _ = make_tree(leaf_capacity=4, fanout=4)
    for key in keys:
        tree.insert(key, key)
    tree.check_invariants()
    lo, hi = min(lo, hi), max(lo, hi)
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert [k for k, _ in rows_of(tree.range_scan(lo, hi))] == expected


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 50)), max_size=120))
@settings(max_examples=100, deadline=None)
def test_bptree_insert_delete_model(operations):
    from collections import Counter

    tree, _ = make_tree(leaf_capacity=4, fanout=4)
    model: Counter = Counter()
    for is_insert, key in operations:
        if is_insert:
            tree.insert(key, key)
            model[key] += 1
        else:
            removed = tree.delete(key)
            assert removed == (model[key] > 0)
            if removed:
                model[key] -= 1
    tree.check_invariants()
    expected = sorted(model.elements())
    assert [k for k, _ in rows_of(tree.range_scan())] == expected


def make_iot(key, page_capacity=4):
    """An empty index-organized table over two small integer columns."""
    schema = Schema([Attribute("a", IntEncoder(0, 63)), Attribute("b", IntEncoder(0, 63))])
    return Database(buffer_pages=64).create_iot("t", schema, key, page_capacity)


class TestIOT:
    def test_composite_key_order(self):
        iot = make_iot(key=("b", "a"))
        rows = [(i, i % 3) for i in range(30)]
        random.Random(1).shuffle(rows)
        for row in rows:
            iot.insert(row)
        iot.tree.check_invariants()
        out = rows_of(iot.scan_leading())
        assert out == sorted(rows, key=lambda r: (r[1], r[0]))
        assert len(iot) == 30

    def test_prefix_range_with_sentinels(self):
        iot = make_iot(key=("a", "b"))
        rows = [(a, b) for a in range(5) for b in range(5)]
        for row in rows:
            iot.insert(row)
        # the leading range [2, 2] is the keys from (2,) up to (2, TOP)
        out = rows_of(iot.scan_leading(2, 2))
        assert out == [(2, b) for b in range(5)]
        assert rows_of(iot.tree.range_scan((2,), (2, TOP))) == [
            ((2, b), (2, b)) for b in range(5)
        ]

    def test_sentinel_ordering(self):
        # what a key comparison against ``(hi, TOP)`` reaches: no value
        # equals TOP and every value sorts below it
        assert not (10**9 > TOP) and not (10**9 == TOP)
        assert TOP == type(TOP)()
        assert not ((2, 10**9) > (2, TOP))
        assert (3, 0) > (2, TOP)

    @pytest.mark.parametrize("cut", [1, 3, 5, 7, 11])
    def test_inserts_between_pulls_repeat_and_lose_no_row(self, cut):
        """A leaf's records and its ``next`` link are one snapshot taken
        when the leaf is read: inserts between two pulls of a scan, into
        the leaf being read or splitting it, neither shift its rows nor
        re-serve them from the new right sibling."""
        for seed in range(40):
            rng = random.Random(seed)
            tree = BPlusTree(
                BufferPool(SimulatedDisk(), 64), leaf_capacity=3, fanout=4
            )
            rows = [(rng.randrange(64), index) for index in range(150)]
            for row in rows:
                tree.insert((row[0],), row)
            scan = (row for leaf in tree.range_scan((5,), (58, TOP)) for _, row in leaf)
            pulled = list(islice(scan, cut))
            late = [(rng.randrange(64), 150 + index) for index in range(30)]
            for row in late:
                tree.insert((row[0],), row)
            pulled += scan
            seen = Counter(pulled)
            before = [row for row in rows if 5 <= row[0] <= 58]
            assert [seen[row] for row in before] == [1] * len(before), seed
            assert all(seen[row] <= 1 for row in late), seed
            assert set(seen) <= set(before) | set(late), seed

    def test_delete_row(self):
        iot = make_iot(key=("a",))
        for row in [(1, 2), (2, 3)]:
            iot.insert(row)
        assert iot.tree.delete(iot.key_of((1, 2)), (1, 2))
        assert not iot.tree.delete(iot.key_of((1, 2)), (1, 2))
        assert rows_of(iot.scan_leading()) == [(2, 3)]
        assert len(iot) == 1
