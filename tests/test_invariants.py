"""Corruption-injection tests: every invariant check provably fires.

Each test builds a healthy structure, verifies the validator accepts it,
injects one targeted corruption, and asserts the matching
:class:`~repro.invariants.InvariantViolation` (or ``TypeError``) is
raised with a diagnostic that names the broken contract.  A final group
checks the ``REPRO_CHECKS`` gate itself: corrupted structures must run
*silently* when checks are off.
"""

import random
import re

import pytest

from repro import invariants, kernels
from repro.core import QueryBox, UBTree, ZSpace, curves
from repro.core.tetris import TetrisScan
from repro.invariants import (
    CoverageChecker,
    FetchOnceChecker,
    InvariantViolation,
    StreamChecker,
    require_instance,
    validate_bptree,
    validate_buffer_pool,
    validate_ubtree,
)
from repro.storage import BufferPool, IOScheduler, SimulatedDisk, SweepPrefetcher

from oracles import checks, leaves, page_cursor, set_enabled

BITS = (4, 4)


@pytest.fixture(autouse=True)
def checks_off_between_tests():
    """Each test opts in explicitly; never leak the flag across tests."""
    previous = set_enabled(False)
    yield
    set_enabled(previous)


def make_ubtree(count=80, page_capacity=4, seed=7, *, prefetch_depth=0):
    disk = SimulatedDisk()
    scheduler = (
        IOScheduler(disk, 2, prefetch_depth=prefetch_depth) if prefetch_depth else None
    )
    pool = BufferPool(disk, capacity=256, scheduler=scheduler)
    ubtree = UBTree(pool, ZSpace(BITS), page_capacity=page_capacity)
    rng = random.Random(seed)
    rows = [
        (tuple(rng.randrange(1 << b) for b in BITS), index)
        for index in range(count)
    ]
    ubtree.bulk_load(rows)
    return ubtree, pool


def leaf_pages(ubtree):
    return list(leaves(ubtree.tree))


# ----------------------------------------------------------------------
# B+-tree structure
# ----------------------------------------------------------------------
class TestBPTreeCorruption:
    def test_healthy_tree_validates(self):
        ubtree, _ = make_ubtree()
        validate_bptree(ubtree.tree)

    def test_leaf_key_order_violation_fires(self):
        ubtree, _ = make_ubtree()
        leaf = next(p for p in leaf_pages(ubtree) if len(p.records) >= 2)
        leaf.records.reverse()
        leaf.version += 1
        with pytest.raises(InvariantViolation, match="order"):
            validate_bptree(ubtree.tree)

    def test_separator_containment_violation_fires(self):
        ubtree, _ = make_ubtree()
        tree = ubtree.tree
        assert tree.height > 1, "need inner nodes for this corruption"
        # move the first leaf's smallest record into the last leaf: its
        # key now sits far below that leaf's lower separator bound
        leaves = leaf_pages(ubtree)
        record = leaves[0].records[0]
        leaves[-1].records.insert(0, record)
        leaves[-1].version += 1
        del leaves[0].records[0]
        leaves[0].version += 1
        with pytest.raises(InvariantViolation, match="separator"):
            validate_bptree(tree)

    def test_record_count_mismatch_fires(self):
        ubtree, _ = make_ubtree()
        ubtree.tree.record_count += 1
        with pytest.raises(InvariantViolation, match="record_count"):
            validate_bptree(ubtree.tree)

    def test_leaf_count_mismatch_fires(self):
        ubtree, _ = make_ubtree()
        ubtree.tree.leaf_count += 1
        with pytest.raises(InvariantViolation, match="leaf_count"):
            validate_bptree(ubtree.tree)

    def test_broken_sibling_chain_fires(self):
        ubtree, _ = make_ubtree()
        leaves = leaf_pages(ubtree)
        assert len(leaves) >= 3
        # short-circuit the chain past one leaf
        leaves[0].payload["next"] = leaves[2].page_id
        with pytest.raises(InvariantViolation):
            validate_bptree(ubtree.tree)

    def test_unaccounted_overflow_fires(self):
        # distinct points -> distinct Z-addresses -> no legitimate
        # overflow pages from equal-key runs
        disk = SimulatedDisk()
        pool = BufferPool(disk, capacity=256)
        ubtree = UBTree(pool, ZSpace(BITS), page_capacity=4)
        rng = random.Random(11)
        universe = [(x, y) for x in range(16) for y in range(16)]
        ubtree.bulk_load(
            [(point, i) for i, point in enumerate(rng.sample(universe, 60))]
        )
        assert ubtree.tree.overflow_pages == 0
        # stuff a leaf beyond capacity by duplicating its largest key
        leaf = leaf_pages(ubtree)[0]
        key, value = leaf.records[-1]
        while len(leaf.records) <= leaf.capacity:
            leaf.records.append((key, value))
            leaf.version += 1
        ubtree.tree.record_count = sum(
            len(p.records) for p in leaf_pages(ubtree)
        )
        with pytest.raises(InvariantViolation, match="capacity"):
            validate_bptree(ubtree.tree)


# ----------------------------------------------------------------------
# UB-Tree Z-region contract
# ----------------------------------------------------------------------
class TestUBTreeCorruption:
    def test_healthy_ubtree_validates(self):
        ubtree, _ = make_ubtree()
        validate_ubtree(ubtree)

    def test_stored_address_inconsistent_with_point_fires(self):
        ubtree, _ = make_ubtree()
        leaf = next(p for p in leaf_pages(ubtree) if p.records)
        z_address, (point, payload) = leaf.records[0]
        other = tuple((c + 1) % (1 << b) for c, b in zip(point, BITS))
        assert ubtree.space.z_address(other) != z_address
        leaf.records[0] = (z_address, (other, payload))
        leaf.version += 1
        with pytest.raises(InvariantViolation, match="inconsistent"):
            validate_ubtree(ubtree)

    def test_check_invariants_entry_point_raises_unconditionally(self):
        # the explicit debug entry point must not depend on REPRO_CHECKS
        assert not invariants.enabled()
        ubtree, _ = make_ubtree()
        ubtree.tree.record_count += 1
        with pytest.raises(AssertionError):
            ubtree.check_invariants()


# ----------------------------------------------------------------------
# buffer-pool accounting
# ----------------------------------------------------------------------
class TestBufferAccounting:
    def test_healthy_pool_validates(self):
        ubtree, pool = make_ubtree()
        list(ubtree.range_query(QueryBox((0, 0), (15, 15))))
        validate_buffer_pool(pool)
        assert pool.lookups == pool.hits + pool.misses
        assert pool.disk_fetches == pool.misses

    def test_tampered_hit_counter_fires(self):
        ubtree, pool = make_ubtree()
        list(ubtree.range_query(QueryBox((0, 0), (15, 15))))
        pool.hits += 1
        with pytest.raises(InvariantViolation):
            validate_buffer_pool(pool)

    def test_tampered_fetch_counter_fires(self):
        ubtree, pool = make_ubtree()
        list(ubtree.range_query(QueryBox((0, 0), (15, 15))))
        pool.disk_fetches += 1
        with pytest.raises(InvariantViolation):
            validate_buffer_pool(pool)

    def test_get_validates_when_enabled(self):
        ubtree, pool = make_ubtree()
        first = leaf_pages(ubtree)[0].page_id
        pool.drop_all()
        pool.misses -= 1  # corrupt: one historical miss vanishes
        with checks():
            with pytest.raises(InvariantViolation):
                pool.get(first)


# ----------------------------------------------------------------------
# Tetris output stream
# ----------------------------------------------------------------------
class TestStreamChecker:
    SPACE = QueryBox((0, 0), (10, 10))

    def test_ordered_stream_passes(self):
        checker = StreamChecker((0,), self.SPACE)
        for point in [(1, 9), (2, 0), (2, 4), (7, 7)]:
            checker.observe(point)

    def test_out_of_order_emission_fires(self):
        checker = StreamChecker((0,), self.SPACE)
        checker.observe((5, 5))
        with pytest.raises(InvariantViolation, match="nondecreasing"):
            checker.observe((4, 9))

    def test_composite_sort_key(self):
        checker = StreamChecker((1, 0), self.SPACE)
        checker.observe((9, 2))
        checker.observe((0, 3))
        with pytest.raises(InvariantViolation):
            checker.observe((8, 2))

    def test_non_member_emission_fires(self):
        checker = StreamChecker((0,), self.SPACE)
        with pytest.raises(InvariantViolation, match="outside"):
            checker.observe((11, 0))

    def test_wired_into_tetris_scan(self):
        ubtree, _ = make_ubtree()
        box = QueryBox((2, 1), (13, 12))
        expected = list(TetrisScan(ubtree, box, 0))
        with checks():
            observed = list(TetrisScan(ubtree, box, 0))
        assert observed == expected


# ----------------------------------------------------------------------
# slice keys against the paper's T_j formula
# ----------------------------------------------------------------------
class TestSliceOracle:
    """``SliceChecker`` recomputes every slice key as ``T_j(x)`` from the
    point, without the bit schedule the sweep runs on.  A schedule that
    breaks ties in another (still monotone) order than ``Z_rest`` keeps
    every stream contract — sorted on the sort attribute, inside the
    space, keys ascending — so only the formula can tell."""

    BITS = (3, 3, 3)
    BOX = QueryBox((1, 0, 2), (6, 7, 7))

    @staticmethod
    def swap_tie_break(monkeypatch):
        """Swap the first two non-sort bits of every Tetris schedule; they
        belong to different dimensions, so each stays monotone."""
        original = curves.tetris_schedule

        def sabotaged(bit_lengths, sort_dims):
            schedule = list(original(bit_lengths, sort_dims))
            leading = {sort_dims} if isinstance(sort_dims, int) else set(sort_dims)
            head = sum(bit_lengths[dim] for dim in leading)
            assert schedule[head][0] != schedule[head + 1][0]
            schedule[head], schedule[head + 1] = schedule[head + 1], schedule[head]
            return tuple(schedule)

        monkeypatch.setattr(curves, "tetris_schedule", sabotaged)

    def make_tree(self):
        pool = BufferPool(SimulatedDisk(), capacity=256)
        ubtree = UBTree(pool, ZSpace(self.BITS), page_capacity=4)
        rng = random.Random(11)
        rows = [
            (tuple(rng.randrange(1 << b) for b in self.BITS), index)
            for index in range(240)
        ]
        ubtree.bulk_load(rows)
        return ubtree

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_swapped_tie_break_bits_are_caught(self, backend, monkeypatch):
        paper = curves.Curve.tetris_curve(self.BITS, 0)
        self.swap_tie_break(monkeypatch)
        with kernels.use_backend(backend):
            ubtree = self.make_tree()
            rows = list(TetrisScan(ubtree, self.BOX, 0))
            # the sabotage moved ties, and the stream contract misses it
            points = [point for point, _ in rows]
            assert points != sorted(points, key=paper.encode)
            checker = StreamChecker((0,), self.BOX)
            for point in points:
                checker.observe(point)
            with checks():
                with pytest.raises(InvariantViolation, match="T_j formula"):
                    list(TetrisScan(ubtree, self.BOX, 0))

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_paper_schedule_passes(self, backend):
        with kernels.use_backend(backend), checks():
            ubtree = self.make_tree()
            for sort_dims in ((0,), (2,), (1, 0), (0, 1, 2)):
                list(TetrisScan(ubtree, self.BOX, sort_dims))


# ----------------------------------------------------------------------
# each page fetched at most once per Tetris scan
# ----------------------------------------------------------------------
class TestFetchOnce:
    def make_prefetching_ubtree(self):
        ubtree, pool = make_ubtree(prefetch_depth=4)
        pool.drop_all()
        return ubtree, pool

    def test_distinct_pages_pass_and_a_repeat_fires(self):
        checker = FetchOnceChecker()
        checker.observe(3, None)
        checker.observe(4, None)
        with pytest.raises(InvariantViolation, match="page 3 twice"):
            checker.observe(3, None)

    def test_claiming_a_pending_prefetch_is_the_one_fetch(self):
        ubtree, pool = self.make_prefetching_ubtree()
        window = SweepPrefetcher(pool)
        page_id = leaf_pages(ubtree)[0].page_id
        pool.drop_all()
        assert window.top_up(page_cursor([page_id])[0]) == 1
        FetchOnceChecker().observe(page_id, window)  # still resident: a claim
        window.close()

    def test_cancelled_then_demand_read_fires(self):
        ubtree, pool = self.make_prefetching_ubtree()
        window = SweepPrefetcher(pool)
        page_id = leaf_pages(ubtree)[0].page_id
        pool.drop_all()
        assert window.top_up(page_cursor([page_id])[0]) == 1
        pool.drop_all()  # the async transfer is thrown away ...
        with pytest.raises(InvariantViolation, match="second time"):
            FetchOnceChecker().observe(page_id, window)  # ... then re-read
        window.close()

    def test_wired_into_tetris_scan(self):
        box = QueryBox((0, 0), (15, 15))
        ubtree, pool = self.make_prefetching_ubtree()
        expected = list(TetrisScan(ubtree, box, 0))
        assert pool.disk.stats.prefetch.prefetch_hits > 0  # read-ahead is live
        pool.drop_all()
        with checks():
            assert list(TetrisScan(ubtree, box, 0)) == expected
            pool.drop_all()
            scan = iter(TetrisScan(ubtree, box, 0))
            next(scan)
            pool.drop_all()  # empties the sweep's read-ahead window under it
            with pytest.raises(InvariantViolation, match="second time"):
                list(scan)

    def test_silent_when_checks_off(self):
        box = QueryBox((0, 0), (15, 15))
        ubtree, pool = self.make_prefetching_ubtree()
        expected = list(TetrisScan(ubtree, box, 0))
        pool.drop_all()
        scan = iter(TetrisScan(ubtree, box, 0))
        first = next(scan)
        pool.drop_all()
        assert [first, *scan] == expected


# ----------------------------------------------------------------------
# each owed region read at least once per restricted scan
# ----------------------------------------------------------------------
class TestCoverage:
    BOX = QueryBox((2, 1), (13, 12))

    def owed(self, ubtree):
        return [
            region
            for region, _, in_cover, _ in ubtree.scheduled_regions(self.BOX)
            if in_cover
        ]

    def test_every_owed_region_read_passes(self):
        ubtree, _ = make_ubtree()
        checker = CoverageChecker(ubtree, self.BOX)
        for region in self.owed(ubtree):
            checker.observe(region.first, region.page_id)
        checker.finish()

    def test_an_unread_region_fires(self):
        ubtree, _ = make_ubtree()
        checker = CoverageChecker(ubtree, self.BOX)
        for region in self.owed(ubtree)[1:]:
            checker.observe(region.first, region.page_id)
        with pytest.raises(InvariantViolation, match="without reading"):
            checker.finish()

    def test_a_stale_region_counts_only_what_its_page_holds_now(self):
        # read a region's page after it split: the page covers only the
        # lower half now, so the new right sibling is still owed
        ubtree, _ = make_ubtree(page_capacity=3)
        owed = self.owed(ubtree)
        target = next(r for r in owed if r.last - r.first > 8)
        lo = ubtree.space.z.decode(target.first)
        for _ in range(4):
            ubtree.insert(lo, "split")
        checker = CoverageChecker(ubtree, self.BOX)
        for region in owed:
            checker.observe(region.first, region.page_id)
        with pytest.raises(InvariantViolation, match="without reading"):
            checker.finish()

    def test_wired_into_both_scans(self):
        ubtree, _ = make_ubtree()
        with checks():
            list(TetrisScan(ubtree, self.BOX, 0))
            list(ubtree.range_query(self.BOX))


# ----------------------------------------------------------------------
# cross-backend kernel parity
# ----------------------------------------------------------------------
@pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="parity spot checks need a second backend",
)
class TestKernelParity:
    def test_missed_version_bump_is_caught(self):
        """The defect class R003 exists for, caught at runtime.

        Prime the NumPy backend's columnar cache with one scan, mutate a
        page's stored point *without* bumping ``Page.version``, and
        re-scan: the stale cache and the pure-Python reference now
        disagree, and the parity check localizes it to the page.
        """
        ubtree, _ = make_ubtree()
        box = QueryBox((0, 0), (15, 15))
        with kernels.use_backend("numpy"):
            list(TetrisScan(ubtree, box, 0))  # populate the page cache
            leaf = next(p for p in leaf_pages(ubtree) if p.records)
            z_address, (point, payload) = leaf.records[0]
            other = tuple((c + 1) % (1 << b) for c, b in zip(point, BITS))
            leaf.records[0] = (z_address, (other, payload))  # no bump!
            with checks():
                with pytest.raises(InvariantViolation, match="diverge"):
                    list(TetrisScan(ubtree, box, 0))

    def test_honest_mutation_passes(self):
        ubtree, _ = make_ubtree()
        box = QueryBox((0, 0), (15, 15))
        with kernels.use_backend("numpy"):
            list(TetrisScan(ubtree, box, 0))
            leaf = next(p for p in leaf_pages(ubtree) if p.records)
            z_address, (point, payload) = leaf.records[0]
            leaf.records[0] = (z_address, (point, "renamed"))
            leaf.version += 1  # honest mutation: cache invalidated
            with checks():
                list(TetrisScan(ubtree, box, 0))


    @pytest.mark.skipif(
        "numpy" not in kernels.available_backends(),
        reason="the page check holds one backend to the other",
    )
    @pytest.mark.parametrize("active", ["numpy", "python"])
    def test_a_kernel_that_drops_a_row_is_caught_at_its_page(self, monkeypatch, active):
        """One sabotage per backend: NumPy's narrowing drops a box's lower
        bound on dimension 0, or the pure space filter drops a page's last
        qualifying row.  The other backend's run then differs, and the
        sweep names a page the sabotage changed."""
        from repro.kernels import PurePythonBackend
        from repro.kernels.numpy_backend import NumPyBackend

        ubtree, _ = make_ubtree()
        box = QueryBox((3, 2), (13, 12))
        if active == "numpy":
            narrow = NumPyBackend._narrow

            def dropped_bound(self, space, columns, lows, highs):
                if isinstance(space, QueryBox):
                    space = QueryBox((0, *space.lo[1:]), space.hi)
                return narrow(self, space, columns, lows, highs)

            monkeypatch.setattr(NumPyBackend, "_narrow", dropped_bound)

            def changed(point):  # a row the dropped bound lets in
                return point[0] < 3 and 2 <= point[1] <= 12

        else:
            keep = PurePythonBackend.filter_space_batch

            def dropped_row(self, space, points):
                return keep(self, space, points)[:-1]

            monkeypatch.setattr(PurePythonBackend, "filter_space_batch", dropped_row)
            changed = box.contains_point  # the page lost one of these
        with kernels.use_backend(active), checks():
            with pytest.raises(
                InvariantViolation,
                match=rf"`{active}` scan_page_run diverges from `\w+` on page",
            ) as caught:
                list(TetrisScan(ubtree, box, 0))
        page_id = int(re.search(r"on page (\d+)", str(caught.value)).group(1))
        (page,) = [leaf for leaf in leaf_pages(ubtree) if leaf.page_id == page_id]
        assert any(changed(point) for _, (point, _) in page.records)


# ----------------------------------------------------------------------
# batched region schedules vs. the scalar definitions
# ----------------------------------------------------------------------
class TestRegionSchedule:
    BOX = QueryBox((1, 2), (13, 12))

    def test_honest_schedule_passes(self):
        ubtree, _ = make_ubtree()
        with checks():
            assert list(TetrisScan(ubtree, self.BOX, 0))

    def test_sabotaged_directory_entry_fires(self):
        """An entry that disagrees with the tree at an unchanged epoch
        is a structure change nobody announced."""
        ubtree, _ = make_ubtree()
        expected = list(TetrisScan(ubtree, self.BOX, 0))
        region = list(ubtree.regions_overlapping(self.BOX))[2]
        ubtree._directory = None  # a fresh snapshot no backend has seen yet
        directory = ubtree.region_directory()
        directory.page_ids[directory.firsts.index(region.first)] += 1000
        with checks():
            with pytest.raises(InvariantViolation, match="did not advance the epoch"):
                list(TetrisScan(ubtree, self.BOX, 0))
        # checks off, a snapshot at the tree's epoch is trusted (as a
        # page's key memo trusts Page.version) and only the check above
        # stands between a missed bump and the answer; the next structure
        # change replaces the snapshot
        ubtree._directory = directory
        ubtree.tree.structure_changed()
        assert list(TetrisScan(ubtree, self.BOX, 0)) == expected
        assert ubtree.region_directory() is not directory

    @pytest.mark.skipif(
        "numpy" not in kernels.available_backends(),
        reason="block boxes are the NumPy backend's derived geometry",
    )
    def test_sabotaged_block_box_fires(self):
        ubtree, _ = make_ubtree()
        with kernels.use_backend("numpy") as backend:
            directory = ubtree.region_directory()
            arrays = backend._directory_arrays(directory)
            region = list(ubtree.regions_overlapping(self.BOX))[2]
            victim = directory.firsts.index(region.first)
            rows = slice(arrays.offsets[victim], arrays.offsets[victim + 1])
            # every box of one examined region moves out of the query box
            arrays.los[rows] = arrays.his[rows] = 15
            with checks():
                with pytest.raises(InvariantViolation, match="BIGMIN walk continues"):
                    list(TetrisScan(ubtree, self.BOX, 0))

    def test_sabotaged_key_fires(self, monkeypatch):
        ubtree, _ = make_ubtree()
        backend = kernels.get_backend()
        honest = backend.schedule_regions

        def off_by_one(*args):
            rows = honest(*args)
            *head, key = rows[1]
            rows[1] = (*head, key + 1)
            return rows

        monkeypatch.setattr(backend, "schedule_regions", off_by_one)
        with checks():
            with pytest.raises(InvariantViolation, match="scalar region_min_keys"):
                list(TetrisScan(ubtree, self.BOX, 0))

    def test_sabotaged_verdict_fires(self, monkeypatch):
        ubtree, _ = make_ubtree()
        backend = kernels.get_backend()
        honest = backend.schedule_regions

        def pruned(*args):
            rows = honest(*args)
            probe, first, last, page_id, _, _, _ = rows[1]
            rows[1] = (probe, first, last, page_id, False, False, None)
            return rows

        monkeypatch.setattr(backend, "schedule_regions", pruned)
        with checks():
            with pytest.raises(InvariantViolation, match="ZRegion.classify"):
                list(TetrisScan(ubtree, self.BOX, 0))


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------
class TestGate:
    def test_disabled_checks_stay_silent_on_corruption(self):
        ubtree, pool = make_ubtree()
        ubtree.tree.record_count += 1
        pool.hits += 5
        assert not invariants.enabled()
        # engine paths run the corrupted structures without complaint
        list(ubtree.range_query(QueryBox((0, 0), (15, 15))))
        list(TetrisScan(ubtree, QueryBox((0, 0), (15, 15)), 0))

    def test_checks_context_manager_restores(self):
        assert not invariants.enabled()
        with checks():
            assert invariants.enabled()
            with checks(False):
                assert not invariants.enabled()
            assert invariants.enabled()
        assert not invariants.enabled()

    def test_engine_mutations_validate_under_checks(self):
        with checks():
            ubtree, _ = make_ubtree(count=40)  # bulk_load validates
            ubtree.insert((3, 9), "late")
            assert ubtree.delete((3, 9), "late")
            validate_ubtree(ubtree)

    def test_require_instance_narrows_or_raises(self):
        assert require_instance(3, int, "test") == 3
        with pytest.raises(TypeError, match="test requires a int"):
            require_instance("3", int, "test")

    def test_violation_is_assertion_error(self):
        assert issubclass(InvariantViolation, AssertionError)
