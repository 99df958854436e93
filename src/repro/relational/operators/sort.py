"""External merge sort: the baseline the Tetris algorithm replaces.

Implements the classic two-phase sort of Section 4.2: a *retrieval
phase* creates sorted initial runs of ``memory_pages`` pages each, and a
*sort phase* merges them ``merge_degree`` ways until one run remains.
Runs live in temporary heap files on the simulated disk, written and
read sequentially in prefetch-sized chunks, so the measured cost matches
the paper's ``P_sort = 2 · (P·Πs_i) · log_m(p/M · Πs_i)`` model priced at
``c_scan``.

The operator is *blocking*: no row is emitted before the final merge
pass begins — which is precisely the behavioural difference to the
Tetris algorithm that Figure 4-4 and Table 5-1 quantify.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ... import kernels
from ...storage.disk import SimulatedDisk
from ...storage.heap import HeapFile
from ...storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy, read_page_resilient
from .base import Operator, Row


@dataclass
class SortStats:
    """Temporary-storage and phase accounting of one external sort."""

    input_rows: int = 0
    runs_created: int = 0
    merge_passes: int = 0
    peak_temp_pages: int = 0  #: max pages of live temp files at any time
    spilled: bool = False  #: False when the input fit into work memory


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
        descending: bool = False,
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
        self.descending = descending
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.stats = SortStats()
        self._live_temp_pages = 0

    # ------------------------------------------------------------------
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
            # everything fit in memory: the merge factor drops to zero
            yield from self._sorted_rows(buffer)
            return

        self.stats.spilled = True
        if buffer:
            runs.append(self._write_run(buffer))

        # merge passes until at most merge_degree runs remain; the final
        # merge streams to the consumer instead of writing a run
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

    # ------------------------------------------------------------------
    def _sorted_rows(self, rows: list[Row]) -> list[Row]:
        """Sort one in-memory run: batch key extraction + one argsort.

        Keys are extracted once for the whole run and the permutation is
        computed by the kernel layer (vectorized for integer keys, e.g.
        Z-addresses or encoded attributes), mirroring how the Tetris path
        batches its key computation — the baselines stay comparable.
        """
        keys = [self.key(row) for row in rows]
        permutation = kernels.get_backend().argsort_keys(
            keys, reverse=self.descending
        )
        return [rows[index] for index in permutation]

    def _merge(self, runs: list[HeapFile]) -> Iterator[Row]:
        readers = [self._read_run(run) for run in runs]
        return heapq.merge(*readers, key=self.key, reverse=self.descending)

    def _write_run(self, rows: list[Row]) -> HeapFile:
        run = self._write_stream(iter(self._sorted_rows(rows)))
        self.stats.runs_created += 1
        return run

    def _write_stream(self, rows: Iterator[Row]) -> HeapFile:
        """Spool a sorted stream to a temp heap, priced as sequential writes."""
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
        """Read a run in prefetch-sized chunks of sequential page reads.

        Chunked reading models per-run read-ahead buffers: interleaved
        consumption by the merge still pays only ``ceil(pages/C)``
        positioning operations per run, as the paper's ``c_scan`` assumes.
        """
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
