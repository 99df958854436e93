"""Tests for slab-parallel Tetris execution: slab planning and the
bit-identical-stream contract across worker counts, sort directions,
composite orders and non-box query spaces.

The CI parallel matrix sets ``REPRO_PARALLEL_WORKERS`` (2 and 4); the
identity tests honour it so both pool widths are exercised.
"""

import os
import random

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
from repro.relational import Attribute, Database, IntEncoder, Schema

#: pool width under test — the CI matrix sweeps 2 and 4
WORKERS = int(os.environ.get("REPRO_PARALLEL_WORKERS", "2"))

SEED = 20260806


def make_table(rows=800, seed=SEED):
    schema = Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )
    rng = random.Random(seed)
    data = [(rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)]
    db = Database(buffer_pages=64)
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
        assert sum(slab.width for slab in slabs) == 801

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

    def test_sweep_strategy(self, table):
        serial = list(
            table.tetris_scan({"a1": (100, 900)}, "a2", strategy="sweep")
        )
        # the parallel layer always runs the eager schedule: its slabs
        # must reproduce the paper's literal sweep loop, run serially
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS
        )
        assert result.rows == serial

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
        assert result.workers == 1

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
            workers=1,
        )
        assert len(result) == 2
        assert list(result) == result.rows

    def test_slab_width(self):
        assert SweepSlab(0, 10, 19).width == 10

    def test_invalid_worker_count_rejected(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError):
            parallel_tetris_scan(table, None, "a1", workers=0)

    def test_empty_sort_attrs_rejected(self):
        table = make_table(rows=50)
        with pytest.raises(ValueError):
            parallel_tetris_scan(table, None, (), workers=2)


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

    @pytest.mark.parametrize("requested", ("threads", "fork"))
    def test_single_worker_explicit_request_emits_event(self, requested):
        selected, event = select_executor(requested, "python", 1)
        assert selected == "inline"
        assert event is not None
        assert (event.requested, event.selected) == (requested, "inline")
        expected = {"threads": "2 workers", "fork": "process execution was removed"}
        assert expected[requested] in event.reason

    def test_explicit_inline(self):
        assert select_executor("inline", "numpy", 4) == ("inline", None)

    def test_threads_always_honoured(self):
        assert select_executor("threads", "python", 4) == ("threads", None)

    def test_auto_picks_threads_for_numpy(self):
        assert select_executor("auto", "numpy", 4) == ("threads", None)

    def test_auto_picks_inline_for_pure_python(self):
        # the pure backend's bytecode holds the GIL: policy, not a fallback
        assert select_executor("auto", "python", 4) == ("inline", None)

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
# the parity contract: every executor yields the serial stream
# ----------------------------------------------------------------------
EXECUTORS = ("inline", "threads")
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
        assert result.executor == executor

    def test_executor_none_means_auto(self, table):
        expected, _ = select_executor("auto", kernels.get_backend().name, WORKERS)
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=WORKERS, executor=None
        )
        assert result.executor == expected

    def test_single_slab_downgrades_to_inline(self, table):
        result = parallel_tetris_scan(
            table, {"a1": (100, 900)}, "a2", workers=4, slabs=1, executor="threads"
        )
        assert result.executor == "inline"
        assert len(result.slabs) == 1


# ----------------------------------------------------------------------
# serialization accounting: zero-copy means zero bytes
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

    @pytest.mark.parametrize("executor", ("inline", "threads"))
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
        assert result.executor == "inline"
        assert len(result.fallbacks) == 1
        event = result.fallbacks[0]
        assert isinstance(event, ExecutorFallbackEvent)
        assert (event.requested, event.selected) == ("fork", "inline")
        assert seen == [event]
        # the downgraded run still honours the stream contract
        assert result.rows == list(table.tetris_scan({"a1": (100, 900)}, "a2"))

    def test_single_worker_explicit_request_emits_one_event(self):
        table = make_table(rows=200)
        seen = []
        telemetry.subscribe(seen.append, ExecutorFallbackEvent)
        try:
            result = parallel_tetris_scan(
                table, {"a1": (100, 900)}, "a2", workers=1, executor="threads"
            )
        finally:
            telemetry.unsubscribe(seen.append, ExecutorFallbackEvent)
        assert result.executor == "inline"
        assert len(result.fallbacks) == 1
        event = result.fallbacks[0]
        assert (event.requested, event.selected) == ("threads", "inline")
        assert "at least 2 workers" in event.reason
        assert seen == [event]

    def test_single_slab_explicit_request_emits_one_event(self):
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
                executor="threads",
            )
        finally:
            telemetry.unsubscribe(seen.append, ExecutorFallbackEvent)
        assert result.executor == "inline"
        assert len(result.fallbacks) == 1
        event = result.fallbacks[0]
        assert event.reason == "the query planned a single sweep slab"
        assert seen == [event]

    def test_observer_exceptions_after_unregister_cannot_fire(self):
        # unregister removes by identity-equality of the bound method
        events = []
        telemetry.subscribe(events.append, ExecutorFallbackEvent)
        telemetry.unsubscribe(events.append, ExecutorFallbackEvent)
        telemetry.emit(
            ExecutorFallbackEvent("threads", "inline", "test", "pure", 1)
        )
        assert events == []

    def test_unregister_unknown_observer_is_noop(self):
        telemetry.unsubscribe(lambda event: None, ExecutorFallbackEvent)

    def test_result_surface_defaults(self):
        result = ParallelScanResult(
            slabs=[], per_slab_counts=[], rows=[], workers=1
        )
        assert result.executor == "inline"
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
    """Every executor on every backend charges the caller the same I/O.

    ``None`` is what a caller who says nothing gets: ``threads`` on the
    NumPy backend, ``inline`` on the pure one.
    """

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
        default = "threads" if backend == "numpy" else "inline"
        assert result.executor == (executor or default)
        assert (stats, pool) == reference
