"""External merge sort: the baseline the Tetris algorithm replaces.

Implements the classic two-phase sort of Section 4.2: a *retrieval
phase* creates sorted initial runs of ``memory_pages`` pages each, and a
*sort phase* merges them ``merge_degree`` ways until one run remains.
Runs live in temporary heap files on the simulated disk, written a page
at a time and read sequentially in prefetch-sized chunks, so the
measured cost matches the paper's ``P_sort = 2 · (P·Πs_i) · log_m(p/M ·
Πs_i)`` model priced at ``c_scan``.

Every row is keyed once.  A run keeps its sorted keys as a kernel key
column (:meth:`~repro.kernels.base.KernelBackend.sort_key_column`)
beside its pages, and a merge works on those columns in chunk steps
(:meth:`~repro.kernels.base.KernelBackend.merge_key_columns`): a step
merges what is loaded of each run up to the earliest loaded chunk end
of a run with more on disk, then reads exactly that run's next chunk.
That is where a row-at-a-time priority-queue merge over chunked run
readers reads, so pages are read in the same order and at the same
points of the output stream, and the simulated clock is the same.

The operator is *blocking*: no row is emitted before the final merge
pass begins — which is precisely the behavioural difference to the
Tetris algorithm that Figure 4-4 and Table 5-1 quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from ... import invariants, kernels
from ...invariants import MergeChecker
from ...storage.disk import SimulatedDisk
from ...storage.heap import HeapFile
from ...storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy, read_page_resilient
from .base import Operator, Row, batches_of


@dataclass
class SortStats:
    """Temporary-storage and phase accounting of one external sort."""

    input_rows: int = 0
    runs_created: int = 0
    merge_passes: int = 0
    peak_temp_pages: int = 0  #: max pages of live temp files at any time
    spilled: bool = False  #: False when the input fit into work memory


@dataclass(eq=False)
class _Run:
    """A sorted run on temp pages, with its sorted key column beside it."""

    heap: HeapFile
    keys: Any = None


class _Cursor:
    """A merge's position in one run: the rows loaded but not yet merged."""

    __slots__ = ("run", "rows", "keys", "start", "next_page")

    def __init__(self, run: _Run) -> None:
        self.run = run
        self.rows: list[Row] = []
        self.keys: Any = None
        self.start = 0  #: run position of ``rows[0]``
        self.next_page = 0

    @property
    def more(self) -> bool:
        """Whether pages of the run are still unread."""
        return self.next_page < self.run.heap.page_count


class ExternalMergeSort(Operator):
    """Sort an arbitrary row stream with bounded work memory.

    Parameters
    ----------
    child:
        Input row stream.
    key:
        Sort key function.
    disk:
        The simulated disk for temporary runs.
    memory_pages:
        Work memory in pages (the paper's ``M``).
    page_capacity:
        Rows per temp page (same as the base table for comparability).
    merge_degree:
        Fan-in ``m`` of each merge pass (the paper analyses ``m = 2``).
    """

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
        if memory_pages < 1:
            raise ValueError("work memory must be at least one page")
        if merge_degree < 2:
            raise ValueError("merge degree must be at least 2")
        self.child = child
        self.key = key
        self.disk = disk
        self.memory_pages = memory_pages
        self.page_capacity = page_capacity
        self.merge_degree = merge_degree
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.stats = SortStats()
        self._backend = kernels.get_backend()
        #: every temp run not yet dropped -> its pages written so far
        self._live: dict[_Run, int] = {}

    @property
    def _live_temp_pages(self) -> int:
        return sum(self._live.values())

    # ------------------------------------------------------------------
    def batches(self) -> Iterator[list[Row]]:
        """One batch per merge step of the final merge (the whole sorted
        input when it fit in work memory)."""
        self._backend = kernels.get_backend()
        memory_rows = self.memory_pages * self.page_capacity
        source = chain.from_iterable(batches_of(self.child))
        rows = list(islice(source, memory_rows))
        self.stats.input_rows += len(rows)
        if len(rows) < memory_rows:
            # everything fit in memory: the merge factor drops to zero
            if rows:
                yield self._sort(rows)[0]
            return

        # one finally owns every temp run from the first one spilled on:
        # a failing input, a failed read or an abandoned stream frees them
        try:
            runs: list[_Run] = []
            while len(rows) == memory_rows:
                runs.append(self._write_run(rows))
                rows = list(islice(source, memory_rows))
                self.stats.input_rows += len(rows)
            self.stats.spilled = True
            if rows:
                runs.append(self._write_run(rows))

            # merge passes until at most merge_degree runs remain; the
            # final merge streams to the consumer instead of writing a run
            while len(runs) > self.merge_degree:
                self.stats.merge_passes += 1
                batches = [
                    runs[start : start + self.merge_degree]
                    for start in range(0, len(runs), self.merge_degree)
                ]
                runs = [
                    self._merge_run(batch) if len(batch) > 1 else batch[0]
                    for batch in batches
                ]

            self.stats.merge_passes += 1
            for rows, _ in self._merge(runs):
                if rows:
                    yield rows
        finally:
            for run in list(self._live):
                self._drop(run)

    # ------------------------------------------------------------------
    def _sort(self, rows: list[Row]) -> tuple[list[Row], Any]:
        """Sort one in-memory run: its rows in order and its key column.

        Keys are extracted once for the whole run and the permutation is
        computed by the kernel layer (vectorized for integer keys, e.g.
        Z-addresses or encoded attributes), mirroring how the Tetris path
        batches its key computation — the baselines stay comparable.
        """
        order, keys = self._backend.sort_key_column(list(map(self.key, rows)))
        return list(map(rows.__getitem__, order)), keys

    def _write_run(self, rows: list[Row]) -> _Run:
        ordered, keys = self._sort(rows)
        run = self._new_run()
        run.heap.load(ordered)
        self._spool(run, keys)
        self.stats.runs_created += 1
        return run

    def _merge_run(self, batch: list[_Run]) -> _Run:
        """One intermediate merge, loaded into a new run a step at a time;
        the batch's runs are dropped once it is written."""
        run = self._new_run()
        pieces = []
        for rows, keys in self._merge(batch):
            run.heap.load(rows)
            pieces.append(keys)
        for done in batch:
            done.keys = None  # merged: only its pages stay until the write
        self._spool(run, self._backend.concat_key_columns(pieces))
        for done in batch:
            self._drop(done)
        return run

    def _merge(self, runs: list[_Run]) -> Iterator[tuple[list[Row], Any]]:
        """Merge ``runs`` in chunk steps: each step's rows and key column.

        The first chunk of every run is read up front, in run order; the
        chunk a step stops at is read only when the consumer asks for the
        next step — after the row that ended the chunk has been taken.
        """
        checker = MergeChecker(self.key) if invariants.enabled() else None
        cursors = [_Cursor(run) for run in runs]
        for cursor in cursors:
            self._load(cursor, checker)
        while True:
            stop, taken, order, keys = self._backend.merge_key_columns(
                [cursor.keys for cursor in cursors],
                [cursor.more for cursor in cursors],
            )
            heads = list(
                chain.from_iterable(
                    map(islice, [cursor.rows for cursor in cursors], taken)
                )
            )
            if checker is not None:
                checker.observe_step(
                    [cursor.start for cursor in cursors],
                    taken,
                    order,
                    self._backend.list_key_column(keys),
                )
            for cursor, count in zip(cursors, taken):
                del cursor.rows[:count]
                cursor.keys = cursor.keys[count:]
                cursor.start += count
            yield list(map(heads.__getitem__, order)), keys
            if stop is None:
                return
            self._load(cursors[stop], checker)

    def _load(self, cursor: _Cursor, checker: MergeChecker | None) -> None:
        """Read the cursor's next chunk: ``prefetch`` sequential page reads.

        Chunked reading models per-run read-ahead buffers: interleaved
        consumption by the merge still pays only ``ceil(pages/C)``
        positioning operations per run, as the paper's ``c_scan`` assumes.
        A cursor is loaded only once its loaded rows are all merged.
        """
        first = cursor.next_page
        pages = cursor.run.heap._pages[first : first + self.disk.params.prefetch]
        cursor.next_page += len(pages)
        loaded = [
            read_page_resilient(
                self.disk,
                page.page_id,
                policy=self.retry_policy,
                sequential=True,
                category="temp",
            )[0]
            for page in pages
        ]
        cursor.rows = list(chain.from_iterable(page.records for page in loaded))
        cursor.keys = cursor.run.keys[cursor.start : cursor.start + len(cursor.rows)]
        if checker is not None:
            checker.observe_chunk(
                cursor.rows, self._backend.list_key_column(cursor.keys)
            )

    def _new_run(self) -> _Run:
        run = _Run(HeapFile(self.disk, self.page_capacity, extent_pages=16))
        self._live[run] = 0
        return run

    def _spool(self, run: _Run, keys: Any) -> None:
        """Write a filled run out, priced as sequential writes."""
        for page in run.heap._pages:
            self.disk.write(page, sequential=True, category="temp")
        run.keys = keys
        self._live[run] = run.heap.page_count
        self.stats.peak_temp_pages = max(
            self.stats.peak_temp_pages, self._live_temp_pages
        )

    def _drop(self, run: _Run) -> None:
        del self._live[run]
        run.heap.drop()
        run.keys = None
