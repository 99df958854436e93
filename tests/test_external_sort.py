"""The external sort merges key columns in chunk steps; this file holds
it to the row-at-a-time sort it replaced.

``ExternalMergeSort`` used to spool every run row by row
(``HeapFile.append``) and to merge with ``heapq.merge`` over chunked
run readers, calling the sort key on every row of every pass.  It now
keys each row once, writes pages a page at a time and merges sorted key
columns one read-ahead chunk at a time.  The old operator survives only
here (:class:`HeapqMergeSort`), as the reference every observable of the
new one must equal: the rows and the disk clock at each of them, the
error a fault raises, :class:`SortStats`, the full ``IOStats`` (every
category's reads, seeks and writes, and the ``FaultStats``) and the
disk's trace of page reads and writes — on both kernel backends, with
duplicate, composite, wide-integer, string and date keys, under seeded
fault plans on the temp reads.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace
from datetime import date
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import invariants, kernels
from repro.invariants import InvariantViolation
from repro.kernels import pure
from repro.relational.operators import ExternalMergeSort
from repro.relational.operators.base import Operator, Row
from repro.relational.operators.sort import SortStats
from repro.storage import (
    CorruptPageError,
    DiskParameters,
    FaultPlan,
    FaultyDisk,
    HeapFile,
    SimulatedDisk,
    StorageError,
)
from repro.storage.faults import CORRUPT
from repro.storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy, read_page_resilient

from oracles import allocated_pages, checks, injecting

BACKENDS = kernels.available_backends()


# ----------------------------------------------------------------------
# the reference: per-row spooling, heapq.merge over chunked readers
# ----------------------------------------------------------------------
class HeapqMergeSort(Operator):
    """``ExternalMergeSort`` as it was before key columns."""

    def __init__(
        self,
        child: Iterable[Row],
        key: Callable[[Row], Any],
        disk: SimulatedDisk,
        memory_pages: int,
        page_capacity: int,
        merge_degree: int = 2,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.child = child
        self.key = key
        self.disk = disk
        self.memory_pages = memory_pages
        self.page_capacity = page_capacity
        self.merge_degree = merge_degree
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.stats = SortStats()
        self._live_temp_pages = 0

    def __iter__(self) -> Iterator[Row]:
        memory_rows = self.memory_pages * self.page_capacity
        runs: list[HeapFile] = []
        buffer: list[Row] = []

        for row in self.child:
            self.stats.input_rows += 1
            buffer.append(row)
            if len(buffer) >= memory_rows:
                runs.append(self._write_run(buffer))
                buffer = []

        if not runs:
            yield from self._sorted_rows(buffer)
            return

        self.stats.spilled = True
        if buffer:
            runs.append(self._write_run(buffer))

        while len(runs) > self.merge_degree:
            self.stats.merge_passes += 1
            next_runs: list[HeapFile] = []
            for start in range(0, len(runs), self.merge_degree):
                batch = runs[start : start + self.merge_degree]
                if len(batch) == 1:
                    next_runs.append(batch[0])
                    continue
                merged = self._write_stream(self._merge(batch))
                for run in batch:
                    self._drop_run(run)
                next_runs.append(merged)
            runs = next_runs

        self.stats.merge_passes += 1
        try:
            yield from self._merge(runs)
        finally:
            for run in runs:
                self._drop_run(run)

    def _sorted_rows(self, rows: list[Row]) -> list[Row]:
        keys = [self.key(row) for row in rows]
        permutation = kernels.get_backend().argsort_keys(keys)
        return [rows[index] for index in permutation]

    def _merge(self, runs: list[HeapFile]) -> Iterator[Row]:
        readers = [self._read_run(run) for run in runs]
        return heapq.merge(*readers, key=self.key)

    def _write_run(self, rows: list[Row]) -> HeapFile:
        run = self._write_stream(iter(self._sorted_rows(rows)))
        self.stats.runs_created += 1
        return run

    def _write_stream(self, rows: Iterator[Row]) -> HeapFile:
        run = HeapFile(self.disk, self.page_capacity, extent_pages=16)
        for row in rows:
            run.append(row)
        for page in run._pages:
            self.disk.write(page, sequential=True, category="temp")
        self._live_temp_pages += run.page_count
        self.stats.peak_temp_pages = max(
            self.stats.peak_temp_pages, self._live_temp_pages
        )
        return run

    def _read_run(self, run: HeapFile) -> Iterator[Row]:
        chunk = self.disk.params.prefetch
        pages = run._pages
        for start in range(0, len(pages), chunk):
            batch = pages[start : start + chunk]
            loaded = [
                read_page_resilient(
                    self.disk,
                    page.page_id,
                    policy=self.retry_policy,
                    sequential=True,
                    category="temp",
                )[0]
                for page in batch
            ]
            for page in loaded:
                yield from page.records

    def _drop_run(self, run: HeapFile) -> None:
        self._live_temp_pages -= run.page_count
        run.drop()


# ----------------------------------------------------------------------
# one observed run
# ----------------------------------------------------------------------
class TracingDisk(SimulatedDisk):
    """A disk that logs every page read and write it serves, in order."""

    def __init__(self, params: DiskParameters) -> None:
        super().__init__(params)
        self.trace: list[tuple[str, int, str]] = []

    def read(self, page_id, *, sequential=False, category="data", charge=True):
        self.trace.append(("read", page_id, category))
        return super().read(
            page_id, sequential=sequential, category=category, charge=charge
        )

    def write(self, page, *, sequential=False, category="data"):
        self.trace.append(("write", page.page_id, category))
        super().write(page, sequential=sequential, category=category)


#: key kinds: (value strategy, key function, row width before the id)
KEYS: dict[str, tuple[st.SearchStrategy, Callable[[Row], Any], int]] = {
    "int": (st.integers(-3, 6), itemgetter(0), 1),
    # int64 arrays for some runs, Python lists for the runs past 2**63
    "wide": (
        st.one_of(st.integers(0, 5), st.integers(2**63 - 2, 2**63 + 1)),
        itemgetter(0),
        1,
    ),
    "pair": (st.tuples(st.integers(0, 3), st.integers(-2, 2)), itemgetter(0, 1), 2),
    "mixed": (
        st.tuples(st.integers(0, 2), st.text("ab", max_size=2)),
        itemgetter(0, 1),
        2,
    ),
    "str": (st.text("abc", max_size=3), itemgetter(0), 1),
    "date": (
        st.dates(min_value=date(2000, 1, 1), max_value=date(2000, 1, 9)),
        itemgetter(0),
        1,
    ),
}


@dataclass(frozen=True)
class Case:
    kind: str
    values: tuple
    memory_pages: int = 1
    page_capacity: int = 4
    prefetch: int = 2
    merge_degree: int = 2
    plan: FaultPlan = field(default_factory=FaultPlan)
    backend: str = "python"

    def rows(self) -> list[Row]:
        """One row per value: its key fields, then a unique id."""
        width = KEYS[self.kind][2]
        return [
            (*(value if width > 1 else (value,)), index)
            for index, value in enumerate(self.values)
        ]


def observe(sort_class: type, case: Case) -> dict:
    base = TracingDisk(DiskParameters(t_pi=0.01, t_tau=0.001, prefetch=case.prefetch))
    disk = FaultyDisk(base, case.plan)
    sort = sort_class(
        case.rows(),
        key=KEYS[case.kind][1],
        disk=disk,
        memory_pages=case.memory_pages,
        page_capacity=case.page_capacity,
        merge_degree=case.merge_degree,
    )
    rows: list[Row] = []
    clocks: list[float] = []
    error = None
    with kernels.use_backend(case.backend), injecting(disk):
        try:
            for row in sort:
                rows.append(row)
                clocks.append(disk.clock)
        except StorageError as exc:
            error = (type(exc).__name__, str(exc))
    return {
        "rows": rows,
        "clocks": clocks,
        "error": error,
        "stats": vars(sort.stats),
        "io": repr(disk.stats),
        "faults": vars(disk.stats.faults),
        "trace": base.trace,
        "end": disk.clock,
        # the reference leaks the runs of a sort that fails before its
        # final merge (tested below); the two agree on every finished one
        "allocated": None if error else allocated_pages(disk),
        "live": None if error else sort._live_temp_pages,
    }


def assert_sorts_agree(case: Case) -> dict:
    expected = observe(HeapqMergeSort, case)
    got = observe(ExternalMergeSort, case)
    for name in expected:
        assert got[name] == expected[name], f"{name} differs for {case}"
    return got


# ----------------------------------------------------------------------
# the differential
# ----------------------------------------------------------------------
@st.composite
def cases(draw) -> Case:
    kind = draw(st.sampled_from(sorted(KEYS)))
    plan = draw(
        st.one_of(
            st.just(FaultPlan()),
            st.builds(
                FaultPlan,
                seed=st.integers(0, 2**16),
                transient_rate=st.sampled_from((0.0, 0.1, 0.3)),
                corrupt_rate=st.sampled_from((0.0, 0.0, 0.01)),
                latency_rate=st.sampled_from((0.0, 0.2)),
            ),
        )
    )
    return Case(
        kind=kind,
        values=tuple(draw(st.lists(KEYS[kind][0], max_size=260))),
        memory_pages=draw(st.integers(1, 3)),
        page_capacity=draw(st.integers(1, 5)),
        prefetch=draw(st.one_of(st.integers(1, 6), st.just(16))),
        merge_degree=draw(st.integers(2, 5)),
        plan=plan,
        backend=draw(st.sampled_from(BACKENDS)),
    )


def duplicates(count: int, distinct: int, seed: int) -> tuple:
    values = [index % distinct for index in range(count)]
    random.Random(seed).shuffle(values)
    return tuple(values)


#: long runs of few keys, three intermediate passes: ties meet at
#: almost every chunk end, and every run is read in several chunks
TIES = [
    Case("int", duplicates(150, 3, seed), prefetch=2, merge_degree=m,
         backend=backend)
    for seed, m in ((1, 2), (2, 3))
    for backend in BACKENDS
]
#: composite keys (2-D columns on NumPy), under transient and latency faults
PAIRS = [
    Case("pair", tuple((v % 4, v % 3) for v in duplicates(200, 12, 3)),
         memory_pages=2, page_capacity=3, prefetch=3, merge_degree=2,
         plan=FaultPlan(seed=1, transient_rate=0.1, latency_rate=0.2),
         backend=backend)
    for backend in BACKENDS
]


def _pinned(test):
    for case in TIES + PAIRS:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(cases())
@_pinned
def test_the_sort_equals_the_heapq_merge_sort(case):
    assert_sorts_agree(case)


def test_the_pinned_examples_merge_in_several_passes_and_chunks():
    """Not vacuous: the pinned cases run intermediate passes, their
    final merge reads chunks between output rows, and they hit faults."""
    for case in TIES + PAIRS:
        got = assert_sorts_agree(case)
        assert got["error"] is None
        assert got["stats"]["merge_passes"] >= 3
        assert len(set(got["clocks"])) > 2
    faults = assert_sorts_agree(PAIRS[0])["faults"]
    assert faults["transient_errors"] > 0 and faults["latency_spikes"] > 0


# ----------------------------------------------------------------------
# teeth
# ----------------------------------------------------------------------
def test_a_chunk_loaded_one_step_late_fails(monkeypatch):
    """Sabotage: a run's next chunk is read one merge step after the
    step that ended at its last loaded row."""
    real = ExternalMergeSort._load
    waiting: dict[int, Any] = {}

    def one_step_late(self, cursor, checker):
        if cursor.next_page == 0:  # a merge reads its first chunks up front
            waiting.pop(id(self), None)  # ... and the previous merge is over
            real(self, cursor, checker)
            return
        late = waiting.pop(id(self), None)
        if late is not None:
            real(self, late, checker)
        waiting[id(self)] = cursor

    monkeypatch.setattr(ExternalMergeSort, "_load", one_step_late)
    with pytest.raises(AssertionError):
        test_the_sort_equals_the_heapq_merge_sort()


def _ties_by_key_alone(monkeypatch) -> None:
    """Every run's share of a step is cut on the same side of the
    closing key: the key alone decides, and a tie no longer goes to the
    lower run."""
    monkeypatch.setattr(pure, "bisect_right", pure.bisect_left)
    if "numpy" in BACKENDS:
        from repro.kernels import numpy_backend

        real = numpy_backend._count_before

        def strictly_before(column, key, ties):
            return real(column, key, False)

        monkeypatch.setattr(numpy_backend, "_count_before", strictly_before)


def test_ties_broken_by_key_alone_fail(monkeypatch):
    _ties_by_key_alone(monkeypatch)
    with pytest.raises(AssertionError):
        test_the_sort_equals_the_heapq_merge_sort()


# ----------------------------------------------------------------------
# REPRO_CHECKS=1: the merge checker
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_checks_catch_a_tie_out_of_run_order(monkeypatch, backend):
    _ties_by_key_alone(monkeypatch)
    with checks(), pytest.raises(InvariantViolation, match="ties key"):
        observe(ExternalMergeSort, replace(TIES[0], backend=backend))


@pytest.mark.parametrize("backend", BACKENDS)
def test_checks_catch_a_stored_key_that_is_not_its_rows_key(monkeypatch, backend):
    real = ExternalMergeSort._spool

    def rotated(self, run, keys):
        # the right keys, one row off: still sorted, but not the rows'
        real(self, run, self._backend.concat_key_columns([keys[:1], keys[:-1]]))

    monkeypatch.setattr(ExternalMergeSort, "_spool", rotated)
    case = Case("int", tuple(range(60)), backend=backend)
    with checks(), pytest.raises(InvariantViolation, match="stored"):
        observe(ExternalMergeSort, case)


def case_id(case: Case) -> str:
    return f"{case.kind}-m{case.merge_degree}-{case.backend}"


@pytest.mark.parametrize("case", TIES + PAIRS, ids=case_id)
def test_checks_pass_on_an_honest_merge(case):
    with checks():
        assert_sorts_agree(case)


# ----------------------------------------------------------------------
# a failed sort frees its temp runs
# ----------------------------------------------------------------------
class TestAFailedSortFreesItsRuns:
    def test_an_input_that_raises(self):
        disk = SimulatedDisk()

        def rows():
            for index in range(150):
                yield (index * 37 % 150, index)
            raise RuntimeError("input failed after row 150")

        sort = ExternalMergeSort(
            rows(), key=itemgetter(0), disk=disk, memory_pages=2, page_capacity=4
        )
        before = allocated_pages(disk)
        with pytest.raises(RuntimeError, match="after row 150"):
            list(sort)
        assert sort.stats.runs_created == 18
        assert allocated_pages(disk) == before
        assert sort._live_temp_pages == 0

    def test_a_corrupt_temp_page_in_an_intermediate_pass(self):
        # a fresh disk places the first run's first page at address 0;
        # the first (intermediate) merge pass is its first read
        disk = FaultyDisk(SimulatedDisk(), FaultPlan(scripted_reads=((0, 0, CORRUPT),)))
        rows = [(index * 37 % 100, index) for index in range(100)]
        sort = ExternalMergeSort(
            rows, key=itemgetter(0), disk=disk, memory_pages=1, page_capacity=4
        )
        before = allocated_pages(disk)
        with injecting(disk), pytest.raises(CorruptPageError):
            list(sort)
        assert sort.stats.runs_created == 25 and sort.stats.merge_passes == 1
        assert allocated_pages(disk) == before
        assert sort._live_temp_pages == 0

    def test_an_abandoned_stream(self):
        disk = SimulatedDisk()
        rows = [(index * 37 % 100, index) for index in range(100)]
        sort = ExternalMergeSort(
            rows, key=itemgetter(0), disk=disk, memory_pages=1, page_capacity=4
        )
        stream = iter(sort)
        assert next(stream) == (0, 0)
        stream.close()
        assert allocated_pages(disk) == 0
        assert sort._live_temp_pages == 0
