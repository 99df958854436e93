"""Tests for slab-parallel Tetris execution: slab planning and the
bit-identical-stream contract across slab counts, sort directions,
composite orders and non-box query spaces.

The CI parallel matrix sets ``REPRO_PARALLEL_WORKERS`` (2 and 4); the
identity tests honour it, so both default slab counts are exercised.
"""

import os
import random
import threading

import pytest

from repro import kernels, telemetry
from repro.core.query_space import QueryBox
from repro.planner import (
    ExecutorFallbackEvent,
    ParallelScanResult,
    SweepSlab,
    parallel_tetris_scan,
    plan_slabs,
    select_executor,
)
from repro.core.ubtree import UBTree
from repro.invariants import InvariantViolation
from repro.relational import Attribute, Database, IntEncoder, Schema

from oracles import checks

#: default slab count under test — the CI matrix sweeps 2 and 4
WORKERS = int(os.environ.get("REPRO_PARALLEL_WORKERS", "2"))

SEED = 20260806


def make_table(rows=800, seed=SEED, **storage):
    schema = Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )
    rng = random.Random(seed)
    data = [(rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)]
    db = Database(buffer_pages=64, **storage)
    ub = db.create_ub_table("ub", schema, dims=("a1", "a2"), page_capacity=40)
    ub.load(data)
    db.reset_measurement()
    return ub


# ----------------------------------------------------------------------
# slab planning
# ----------------------------------------------------------------------
class TestPlanSlabs:
    def test_slabs_are_disjoint_contiguous_and_cover_the_range(self):
        box = QueryBox((0, 100), (1023, 900))
        slabs = plan_slabs(box, 1, (1023, 1023), 4)
        assert slabs[0].lo == 100
        assert slabs[-1].hi == 900
        for earlier, later in zip(slabs, slabs[1:]):
            assert later.lo == earlier.hi + 1
        assert sum(slab.hi - slab.lo + 1 for slab in slabs) == 801

    def test_narrow_range_yields_fewer_slabs(self):
        box = QueryBox((0, 10), (1023, 12))
        slabs = plan_slabs(box, 1, (1023, 1023), 8)
        assert len(slabs) == 3
        assert [(slab.lo, slab.hi) for slab in slabs] == [(10, 10), (11, 11), (12, 12)]

    def test_empty_box_yields_no_slabs(self):
        box = QueryBox((5, 500), (3, 600))  # lo > hi on dim 0
        assert plan_slabs(box, 1, (1023, 1023), 4) == []

    def test_single_slab_is_the_whole_range(self):
        box = QueryBox((0, 0), (1023, 1023))
        (slab,) = plan_slabs(box, 0, (1023, 1023), 1)
        assert (slab.lo, slab.hi) == (0, 1023)

    def test_invalid_slab_count_rejected(self):
        box = QueryBox((0, 0), (1023, 1023))
        with pytest.raises(ValueError):
            plan_slabs(box, 0, (1023, 1023), 0)

    def test_slab_indices_are_sequential(self):
        box = QueryBox((0, 0), (1023, 1023))
        slabs = plan_slabs(box, 0, (1023, 1023), 4)
        assert [slab.index for slab in slabs] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# the contract: concatenated slab streams == the serial stream, bit for bit
# ----------------------------------------------------------------------
class TestBitIdenticalStreams:
    @pytest.fixture(scope="class")
    def table(self):
        return make_table()

    def test_restricted_ascending(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS
        )
        assert result.rows == serial
        assert sum(result.per_slab_counts) == len(serial)

    def test_unrestricted_full_space(self, table):
        serial = list(table.tetris_scan(None, "a1"))
        result = parallel_tetris_scan(table, None, "a1", workers=WORKERS)
        assert result.rows == serial

    def test_composite_sort_order(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, ("a2", "a1")))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, ("a2", "a1"), workers=WORKERS
        )
        assert result.rows == serial

    def test_slabs_read_through_the_page_walk(self, monkeypatch):
        """Each slab's pages come through ``UBTree.walk``, read-ahead and
        the fetch-once and coverage checks included, and a prefetching
        pool leaves the stream as it is."""
        table = make_table(devices=2, prefetch_depth=4)
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        walked = []
        walk = UBTree.walk

        def counting_walk(ubtree, cursor, space, pushdown=None):
            walked.append(space)
            return walk(ubtree, cursor, space, pushdown)

        monkeypatch.setattr(UBTree, "walk", counting_walk)
        table.db.buffer.drop_all()
        prefetch = table.db.disk.stats.prefetch
        issued = prefetch.prefetch_issued
        with checks():
            result = parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=WORKERS
            )
        assert result.rows == serial
        assert len(walked) == len(result.slabs) > 1
        assert prefetch.prefetch_issued > issued
        assert prefetch.prefetch_wasted == 0

    def test_half_space_query(self, table):
        space = table.comparison_space("a1", "<", "a2")
        serial = list(table.tetris_scan(space, "a2"))
        result = parallel_tetris_scan(table, space, "a2", workers=WORKERS)
        assert result.rows == serial

    def test_more_slabs_than_workers(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, slabs=7
        )
        assert result.rows == serial
        assert len(result.slabs) == 7

    def test_single_worker_runs_inline(self, table):
        serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
        result = parallel_tetris_scan(table, {"a1": (100, 900)}, "a2", workers=1)
        assert result.rows == serial
        assert len(result.slabs) == 1

    def test_empty_query_yields_empty_result(self, table):
        result = parallel_tetris_scan(
            table, {"a1": (900, 100)}, "a2", workers=WORKERS
        )
        assert result.rows == []
        assert result.slabs == []

    def test_worker_counts_agree_with_each_other(self, table):
        streams = [
            parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=workers
            ).rows
            for workers in (1, 2, 4)
        ]
        assert streams[0] == streams[1] == streams[2]


# ----------------------------------------------------------------------
# result surface and validation
# ----------------------------------------------------------------------
class TestResultSurface:
    def test_result_iterates_and_measures(self):
        result = ParallelScanResult(
            slabs=[SweepSlab(0, 0, 10)],
            per_slab_counts=[2],
            rows=[((1,), "x"), ((2,), "y")],
        )
        assert len(result) == 2

    def test_invalid_worker_count_rejected(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError):
            parallel_tetris_scan(table, None, "a1", workers=0)

    def test_empty_sort_attrs_rejected(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError):
            parallel_tetris_scan(table, None, (), workers=2)

    def test_zero_slabs_rejected(self):
        # ``slabs=0`` is a slab count, not "one per worker"
        table = make_table(rows=50)
        with pytest.raises(ValueError, match="slab count must be >= 1"):
            parallel_tetris_scan(table, None, "a1", workers=2, slabs=0)


# ----------------------------------------------------------------------
# executor selection policy
# ----------------------------------------------------------------------
class TestSelectExecutor:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            select_executor("gpu", "numpy", 4)

    def test_single_worker_auto_is_inline_without_event(self):
        # auto deciding on inline for one worker is policy, not a fallback
        assert select_executor("auto", "numpy", 1) == ("inline", None)

    @pytest.mark.parametrize("requested", ("fork",))
    def test_single_worker_explicit_request_emits_event(self, requested):
        selected, event = select_executor(requested, "python", 1)
        assert selected == "inline"
        assert event is not None
        assert (event.requested, event.selected) == (requested, "inline")
        assert "process execution was removed" in event.reason

    def test_explicit_inline(self):
        assert select_executor("inline", "numpy", 4) == ("inline", None)

    def test_auto_picks_inline_for_pure_python(self):
        assert select_executor("auto", "python", 4) == ("inline", None)

    def test_auto_picks_inline_for_numpy(self):
        assert select_executor("auto", "numpy", 4) == ("inline", None)

    def test_threads_is_an_unknown_executor(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError, match="unknown executor 'threads'"):
            parallel_tetris_scan(table, None, "a1", workers=2, executor="threads")

    def test_fork_unavailable_degrades_with_event(self):
        # on every platform: process execution was removed, and a request
        # for it is answered by the cannot-be-honoured rung, never silently
        selected, event = select_executor("fork", "python", 4)
        assert selected == "inline"
        assert event is not None
        assert event.requested == "fork"
        assert event.selected == "inline"
        assert "fork" in event.describe()


# ----------------------------------------------------------------------
# the parity contract: every executor request yields the serial stream
# ----------------------------------------------------------------------
EXECUTORS = ("inline",)
BACKENDS = tuple(kernels.available_backends())


class TestExecutorParity:
    @pytest.fixture(scope="class")
    def table(self):
        return make_table()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_stream_bit_identical_to_serial(self, table, backend, executor):
        with kernels.use_backend(backend):
            serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
            result = parallel_tetris_scan(
                table,
                {"a1": (100, 900)},
                "a2",
                workers=WORKERS,
                executor=executor,
            )
        assert result.rows == serial
        assert result.fallbacks == ()

    def test_executor_none_means_auto(self, table):
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, executor=None
        )
        auto = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, executor="auto"
        )
        assert result.rows == auto.rows
        assert result.fallbacks == auto.fallbacks == ()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_scan_starts_no_thread(self, table, backend, monkeypatch):
        """Every slab runs in the caller: no worker thread is started."""

        def no_thread(thread):
            raise AssertionError(f"the scan started thread {thread.name!r}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        with kernels.use_backend(backend):
            serial = list(table.tetris_scan({"a1": (100, 900)}, "a2"))
            result = parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=4, slabs=4
            )
        assert result.rows == serial
        assert len(result.slabs) == 4


# ----------------------------------------------------------------------
# serialization accounting: slabs in the caller's memory ship zero bytes
# ----------------------------------------------------------------------
class TestSerializationAccounting:
    @pytest.fixture(scope="class")
    def table(self):
        return make_table()

    def test_not_measured_by_default(self, table):
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS
        )
        assert result.serialized_bytes_per_slab is None

    @pytest.mark.parametrize("executor", ("inline",))
    def test_zero_copy_executors_ship_zero_bytes(self, table, executor):
        result = parallel_tetris_scan(
            table,
            {"a1": (100, 900)},
            "a2",
            workers=WORKERS,
            executor=executor,
            measure_serialization=True,
        )
        assert result.serialized_bytes_per_slab == [0] * len(result.slabs)


# ----------------------------------------------------------------------
# fallback events: downgrades are structured, never silent
# ----------------------------------------------------------------------
class TestFallbackEvents:
    def test_fallback_surfaces_on_result_and_observer(self):
        table = make_table(rows=200)
        seen = []
        telemetry.subscribe(seen.append, ExecutorFallbackEvent)
        try:
            result = parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=WORKERS, executor="fork"
            )
        finally:
            telemetry.unsubscribe(seen.append, ExecutorFallbackEvent)
        assert len(result.fallbacks) == 1
        event = result.fallbacks[0]
        assert isinstance(event, ExecutorFallbackEvent)
        assert (event.requested, event.selected) == ("fork", "inline")
        assert seen == [event]
        # the downgraded run still honours the stream contract
        assert result.rows == list(table.tetris_scan({"a1": (100, 900)}, "a2"))

    def test_single_worker_explicit_request_emits_one_event(self):
        """One worker adds no event of its own to a downgraded request."""
        table = make_table(rows=200)
        seen = []
        telemetry.subscribe(seen.append, ExecutorFallbackEvent)
        try:
            result = parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=1, executor="fork"
            )
        finally:
            telemetry.unsubscribe(seen.append, ExecutorFallbackEvent)
        assert len(result.fallbacks) == 1
        event = result.fallbacks[0]
        assert (event.requested, event.selected, event.workers) == ("fork", "inline", 1)
        assert seen == [event]

    def test_single_slab_explicit_request_emits_one_event(self):
        """One planned slab adds no event of its own to a downgraded request."""
        table = make_table(rows=200)
        seen = []
        telemetry.subscribe(seen.append, ExecutorFallbackEvent)
        try:
            result = parallel_tetris_scan(
                table,
                {"a1": (100, 900)},
                "a2",
                workers=WORKERS,
                slabs=1,
                executor="fork",
            )
        finally:
            telemetry.unsubscribe(seen.append, ExecutorFallbackEvent)
        assert len(result.slabs) == 1
        assert len(result.fallbacks) == 1
        assert result.fallbacks[0].reason == (
            "process execution was removed from the engine"
        )
        assert seen == list(result.fallbacks)

    def test_observer_exceptions_after_unregister_cannot_fire(self):
        # unregister removes by identity-equality of the bound method
        events = []
        telemetry.subscribe(events.append, ExecutorFallbackEvent)
        telemetry.unsubscribe(events.append, ExecutorFallbackEvent)
        telemetry.emit(ExecutorFallbackEvent("fork", "inline", "test", "pure", 1))
        assert events == []

    def test_unregister_unknown_observer_is_noop(self):
        telemetry.unsubscribe(lambda event: None, ExecutorFallbackEvent)

    def test_result_surface_defaults(self):
        result = ParallelScanResult(slabs=[], per_slab_counts=[], rows=[])
        assert result.fallbacks == ()
        assert result.serialized_bytes_per_slab is None


# ----------------------------------------------------------------------
# what the caller is charged
# ----------------------------------------------------------------------
QUERY = {"a1": (100, 900)}


def cold_scan(executor):
    """One restricted scan of a freshly built table on a cold pool.

    Returns the result and what the caller was charged for
    it: the ``IOStats`` delta and the pool's hit/miss/fetch deltas.
    Tables are rebuilt per call (same seed), so two calls are comparable.
    """
    table = make_table()
    disk, pool = table.db.disk, table.db.buffer

    def counters():
        return (pool.hits, pool.misses, pool.disk_fetches)

    stats_before, pool_before = disk.stats.copy(), counters()
    result = parallel_tetris_scan(table, QUERY, "a2", workers=2, executor=executor)
    pool_delta = tuple(
        after - before for after, before in zip(counters(), pool_before)
    )
    return result, disk.stats - stats_before, pool_delta


class TestExecutorAccountingMatrix:
    """Every executor request on every backend charges the caller the
    same I/O; ``None`` is what a caller who says nothing gets."""

    @pytest.fixture(scope="class")
    def reference(self):
        with kernels.use_backend("python"):
            _result, stats, pool = cold_scan("inline")
        assert stats.pages_read > 0 and pool[1] > 0
        return stats, pool

    @pytest.mark.parametrize("executor", EXECUTORS + (None,))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_caller_is_charged_identically(self, reference, backend, executor):
        with kernels.use_backend(backend):
            result, stats, pool = cold_scan(executor)
        assert result.fallbacks == ()
        assert (stats, pool) == reference


# ----------------------------------------------------------------------
# slab streams from page runs: the checks and the NumPy page memos
# ----------------------------------------------------------------------
needs_numpy = pytest.mark.skipif(
    "numpy" not in kernels.available_backends(),
    reason="the page memos and the other backend need NumPy",
)


def staged_pages(monkeypatch):
    """The pages every scan from here on walks, in walk order."""
    staged = []
    walk = UBTree.walk

    def recording_walk(ubtree, cursor, space, pushdown=None):
        for region, page in walk(ubtree, cursor, space, pushdown):
            staged.append(page)
            yield region, page

    monkeypatch.setattr(UBTree, "walk", recording_walk)
    return staged


class TestSlabStreamChecks:
    @pytest.mark.parametrize("backend", ("python", "numpy"))
    def test_swapped_slab_chunks_fail_the_cross_slab_check(self, monkeypatch, backend):
        """Each slab's stream is in order on its own; only one checker over
        the concatenation sees two chunks swapped."""
        if backend not in kernels.available_backends():
            pytest.skip("NumPy is not installed")
        from repro.planner import parallel

        table = make_table()
        monkeypatch.setattr(
            parallel, "plan_slabs", lambda *args: plan_slabs(*args)[::-1]
        )
        with kernels.use_backend(backend):
            with checks(False):
                swapped = parallel_tetris_scan(table, QUERY, "a2", workers=2, slabs=2)
            assert swapped.rows != list(table.tetris_scan(QUERY, "a2"))
            with checks(), pytest.raises(InvariantViolation, match="nondecreasing"):
                parallel_tetris_scan(table, QUERY, "a2", workers=2, slabs=2)

    @needs_numpy
    @pytest.mark.parametrize("active", ("python", "numpy"))
    def test_a_block_kernel_that_drops_a_row_is_caught(self, monkeypatch, active):
        from repro.kernels import PurePythonBackend
        from repro.kernels.numpy_backend import NumPyBackend

        owner = NumPyBackend if active == "numpy" else PurePythonBackend
        scan_block = owner.scan_block

        def dropped_row(self, curve, space, pages):
            return scan_block(self, curve, space, pages)[:-1]

        monkeypatch.setattr(owner, "scan_block", dropped_row)
        table = make_table()
        with kernels.use_backend(active), checks():
            with pytest.raises(
                InvariantViolation, match=rf"`{active}` scan_block diverges"
            ):
                parallel_tetris_scan(table, QUERY, "a2", workers=2)

    @needs_numpy
    def test_missed_version_bump_is_caught_at_the_slab(self, monkeypatch):
        table = make_table()
        staged = staged_pages(monkeypatch)
        with kernels.use_backend("numpy"):
            parallel_tetris_scan(table, QUERY, "a2", workers=2)  # memoizes
            page, slot = next(
                (page, slot)
                for page in staged
                for slot, (_, (point, _)) in enumerate(page.records)
                if 100 <= point[0] <= 900
            )
            z_address, ((a1, a2), payload) = page.records[slot]
            page.records[slot] = (z_address, ((a1, a2 ^ 1), payload))  # no bump!
            with checks(), pytest.raises(InvariantViolation, match="diverges"):
                parallel_tetris_scan(table, QUERY, "a2", workers=2)


@needs_numpy
class TestSlabPageMemos:
    def test_an_insert_into_a_staged_page_is_seen(self, monkeypatch):
        """The keyed run, rows included, follows ``Page.version``."""
        table = make_table()
        staged = staged_pages(monkeypatch)
        with kernels.use_backend("numpy") as backend:
            first = parallel_tetris_scan(table, QUERY, "a2", workers=2)
            keyed = {page: page.version for page in staged if page.records}
            assert all(backend._views[page].runs for page in keyed)
            table.insert((500, 512, 10**9))
            assert any(page.version != version for page, version in keyed.items())
            second = parallel_tetris_scan(table, QUERY, "a2", workers=2)
            serial = list(table.tetris_scan(QUERY, "a2"))
        assert second.rows == serial
        assert len(second.rows) == len(first.rows) + 1

    def test_a_warm_slab_scan_encodes_nothing(self, monkeypatch):
        """A warm slab reads each page's memoized run: no key is encoded
        inside ``scan_block`` once a scan has walked the pages."""
        from repro.kernels.numpy_backend import NumPyBackend

        table = make_table()
        encode = NumPyBackend._encode_columns
        encoded, per_block = [], []

        def counted_encode(tables, columns):
            encoded.append(len(columns))
            return encode(tables, columns)

        with kernels.use_backend("numpy") as backend:
            serial = list(table.tetris_scan(QUERY, "a2"))
            parallel_tetris_scan(table, QUERY, "a2", workers=2)  # warm
            scan_block = backend.scan_block

            def counted_block(*args):
                before = len(encoded)
                rows = scan_block(*args)
                per_block.append(len(encoded) - before)
                return rows

            monkeypatch.setattr(
                NumPyBackend, "_encode_columns", staticmethod(counted_encode)
            )
            monkeypatch.setattr(backend, "scan_block", counted_block)
            result = parallel_tetris_scan(
                table, QUERY, "a2", workers=2, executor="inline"
            )
        assert result.rows == serial
        assert encoded  # the staging walk still keys its region schedule
        assert per_block == [0] * len(result.slabs)

    def test_a_direct_block_call_memoizes_its_runs(self, monkeypatch):
        """``scan_block`` on cold pages keeps the views and runs it builds:
        a second call over the same pages encodes nothing."""
        from repro.kernels import PurePythonBackend
        from repro.kernels.numpy_backend import NumPyBackend

        table = make_table()
        blocks = []
        pure_block = PurePythonBackend.scan_block

        def recorded_block(self, curve, space, pages):
            rows = pure_block(self, curve, space, pages)
            blocks.append((curve, space, pages, rows))
            return rows

        monkeypatch.setattr(PurePythonBackend, "scan_block", recorded_block)
        with kernels.use_backend("python"):
            parallel_tetris_scan(table, QUERY, "a2", workers=2)
        monkeypatch.undo()
        assert len(blocks) == 2

        encode = NumPyBackend._encode_columns
        encoded = []

        def counted_encode(tables, columns):
            encoded.append(len(columns))
            return encode(tables, columns)

        monkeypatch.setattr(
            NumPyBackend, "_encode_columns", staticmethod(counted_encode)
        )
        backend = NumPyBackend()  # no page has a view on it yet
        for curve, space, pages, rows in blocks:
            assert backend.scan_block(curve, space, pages) == rows
        assert encoded
        encoded.clear()
        for curve, space, pages, rows in blocks:
            assert backend.scan_block(curve, space, pages) == rows
        assert encoded == []
