"""Heap files: the physical layout behind a full table scan.

A heap file appends records into pages allocated in physically contiguous
extents, so a scan reads consecutive addresses and benefits from the
disk's prefetch window — this is what makes the paper's FTS "ten times
faster" per page than an index scan and the baseline to beat.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .disk import SimulatedDisk
from .page import Page
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, read_page_resilient
from .wal import active_wal

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .scheduler import IOScheduler

DEFAULT_EXTENT_PAGES = 64


class HeapFile:
    """An append-only, extent-allocated record file on the simulated disk."""

    def __init__(
        self,
        disk: SimulatedDisk,
        page_capacity: int,
        extent_pages: int = DEFAULT_EXTENT_PAGES,
        *,
        retry_policy: RetryPolicy | None = None,
        scheduler: "IOScheduler | None" = None,
    ) -> None:
        if page_capacity < 1:
            raise ValueError("page capacity must be positive")
        self.disk = disk
        self.page_capacity = page_capacity
        self.extent_pages = extent_pages
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.scheduler = scheduler
        self._pages: list[Page] = []
        self._free: list[Page] = []  # allocated but unused pages of last extent
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def page_ids(self) -> list[int]:
        return [page.page_id for page in self._pages]

    def append(self, record: Any) -> int:
        """Append one record; returns the page id it was placed on."""
        if not self._pages or self._pages[-1].is_full:
            self._extend()
        page = self._pages[-1]
        page.add(record)
        self._count += 1
        return page.page_id

    def load(self, records: Iterable[Any]) -> None:
        """Bulk-append records a page at a time.

        Each page takes one :meth:`Page.extend`; a page (and an extent)
        is allocated only once a record needs it, so pages and extents
        come out exactly as per-record :meth:`append` calls place them.
        """
        source = iter(records)
        while True:
            room = self._pages[-1].free_slots if self._pages else 0
            batch = list(islice(source, room or self.page_capacity))
            if not batch:
                return
            if not room:
                self._extend()
            self._pages[-1].extend(batch)
            self._count += len(batch)

    def bulk_load(self, records: Iterable[Any], *, category: str = "data") -> None:
        """Bulk-append under WAL protection when a log is armed.

        Without a log this is exactly :meth:`load`.  With one, the whole
        load is a single WAL batch the heap joins: every extent
        allocation and every first-touched page is journaled, each
        filled page's redo image precedes its (tearable) sequential
        write, and on any failure — including a simulated crash
        mid-batch — the batch abort returns the disk to the pre-load
        state and the page directory to its :meth:`meta_snapshot`.
        """
        wal = active_wal(self.disk)
        if wal is None:
            self.load(records)
            return
        pre_pages = len(self._pages)
        tail = self._pages[-1] if self._pages and not self._pages[-1].is_full else None
        with wal.journaled("heap.bulk_load", self):
            if tail is not None:
                wal.touch(tail)
            self.load(records)
            first_written = pre_pages - (1 if tail is not None else 0)
            for page in self._pages[first_written:]:
                wal.log_image(page)
                self.disk.write(page, sequential=True, category=category)

    def meta_snapshot(self) -> tuple[int, int, list[Page]]:
        """The page directory's extent (pages, rows, spare extent pages):
        what a rolled-back WAL batch hands back to :meth:`meta_restore`."""
        return len(self._pages), self._count, list(self._free)

    def meta_restore(self, meta: tuple[int, int, list[Page]]) -> None:
        """Shrink the directory back to a :meth:`meta_snapshot`."""
        pages, self._count, self._free = meta
        del self._pages[pages:]

    def scan(self, *, category: str = "data") -> Iterator[list[Any]]:
        """Yield the records in physical order with sequential page reads,
        one list per non-empty page (a snapshot taken when it is read)."""
        for page in self.scan_pages(category=category):
            if page.records:
                yield list(page.records)

    def scan_pages(self, *, category: str = "data") -> Iterator[Page]:
        """Yield pages in physical order, priced as a sequential scan.

        Transient read errors are retried through the heap's retry
        policy and every fetched page is checksum-verified, so a scan
        either yields true content or raises a typed
        :class:`~repro.storage.errors.StorageError`.  With an
        :class:`~repro.storage.scheduler.IOScheduler` attached (and
        prefetching enabled), the scan keeps a window of async reads in
        flight ahead of its cursor so transfers overlap across the
        striped device queues.  The cursor's own read claims the page's
        in-flight transfer, so a corrupt prefetched page degrades
        exactly like a corrupt demand-fetched one, and a transient fault
        on the async attempt leaves the page to the normal retry loop.
        """
        scheduler = self.scheduler
        source = scheduler if scheduler is not None else self.disk
        outstanding: set[int] = set()
        next_submit = 1
        try:
            for position, page in enumerate(self._pages):
                outstanding.discard(page.page_id)
                fetched, _ = read_page_resilient(
                    source,
                    page.page_id,
                    policy=self.retry_policy,
                    sequential=True,
                    category=category,
                )
                # top up *after* the cursor's own read so submission
                # order stays strictly sequential (page 0 first) and the
                # disk's prefetch-window amortization is undisturbed
                next_submit = max(next_submit, position + 1)
                while (
                    scheduler is not None
                    and len(outstanding) < scheduler.prefetch_depth
                    and next_submit < len(self._pages)
                ):
                    ahead = self._pages[next_submit].page_id
                    next_submit += 1
                    submitted = scheduler.submit(
                        ahead, sequential=True, category=category
                    )
                    if submitted is not None:
                        outstanding.add(ahead)
                yield fetched
        finally:
            if scheduler is not None:
                for page_id in outstanding:
                    scheduler.cancel(page_id)

    def drop(self) -> None:
        """Free all pages (used for temporary sort runs after merging)."""
        for page in self._pages:
            self.disk.free(page.page_id)
        for page in self._free:
            self.disk.free(page.page_id)
        self._pages.clear()
        self._free.clear()
        self._count = 0

    def _extend(self) -> None:
        """Hand out the next page of the extent, allocating one when it is
        used up; with a log armed, journal each allocation as it happens
        and touch the page (no-ops outside a batch)."""
        wal = active_wal(self.disk)
        if not self._free:
            # page by page: a crash on an ALLOC record leaks no page
            for _ in range(self.extent_pages):
                page = self.disk.allocate(self.page_capacity)
                self._free.append(page)
                if wal is not None:
                    wal.log_alloc(page)
        page = self._free.pop(0)
        if wal is not None:
            wal.touch(page)
        self._pages.append(page)
