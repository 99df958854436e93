"""A simulated hard disk with the ICDE'99 paper's cost model.

Section 4.1 of the paper prices I/O with two device constants: the
positioning time ``t_pi`` of a random access and the transfer time
``t_tau`` of one page, with the file system prefetching ``C`` consecutive
pages per positioning operation.  Reading ``k`` consecutive pages thus
costs ``ceil(k / C) * t_pi + k * t_tau``, while ``k`` random page accesses
cost ``k * (t_pi + t_tau)``.

:class:`SimulatedDisk` implements exactly that model and maintains a
simulated clock, so all reproduced experiments report deterministic
"response times" computed from the same formulas the paper uses, rather
than wall-clock noise.  Pages live in memory (this is a simulation), but
every access is routed through :meth:`read` / :meth:`write` so that access
*patterns* are identical to a disk-resident implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import MissingPageError, SimulatedCrashError
from .page import Page
from .stats import IOStats

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .wal import WriteAheadLog


@dataclass(frozen=True)
class DiskParameters:
    """Device constants of the simulated disk.

    ``t_pi`` and ``t_tau`` are in seconds; ``prefetch`` is the number of
    consecutive pages fetched per positioning operation (the paper's ``C``).
    """

    t_pi: float = 0.010
    t_tau: float = 0.001
    prefetch: int = 16
    page_bytes: int = 8192

    def scan_cost(self, pages: int) -> float:
        """Cost of reading ``pages`` consecutive pages (paper's ``c_scan``)."""
        if pages <= 0:
            return 0.0
        seeks = -(-pages // self.prefetch)  # ceil division
        return seeks * self.t_pi + pages * self.t_tau

    def random_cost(self, pages: int) -> float:
        """Cost of ``pages`` independent random page accesses."""
        return pages * (self.t_pi + self.t_tau)


#: Parameters used for the analytic figures of Section 4.3.
ICDE99_ANALYSIS = DiskParameters(t_pi=0.010, t_tau=0.001, prefetch=16)

#: Parameters of the SUN Ultra SPARC II testbed of Section 5.
ICDE99_TESTBED = DiskParameters(t_pi=0.008, t_tau=0.0007, prefetch=16)


class SimulatedDisk:
    """Page store with physical addresses, prefetch modelling and a clock.

    Addresses are allocated monotonically; data structures that interleave
    their allocations (e.g. B+-tree splits during bulk load) therefore end
    up physically scattered, while a heap file that reserves extents stays
    consecutive — reproducing why a full table scan enjoys prefetching and
    an index-organized table does not.
    """

    def __init__(self, params: DiskParameters | None = None) -> None:
        self.params = params or ICDE99_ANALYSIS
        self.stats = IOStats()
        #: the write-ahead log journaling this disk's mutations, if one
        #: has been armed (:class:`~repro.storage.wal.WriteAheadLog`
        #: registers itself here; wrapper disks proxy the attribute)
        self.wal: "WriteAheadLog | None" = None
        self._pages: dict[int, Page] = {}
        self._next_address = 0
        # Sequential-read state: physical position of the head and how many
        # pages of the current prefetch window have been consumed.
        self._head_after_read = -2
        self._read_run = 0
        self._head_after_write = -2
        self._write_run = 0
        self._writes_total = 0
        self._write_crash_countdown: int | None = None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, capacity: int) -> Page:
        """Allocate a single page at the next free physical address."""
        page = Page(self._next_address, capacity)
        self._pages[page.page_id] = page
        self._next_address += 1
        return page

    def allocate_extent(self, count: int, capacity: int) -> list[Page]:
        """Allocate ``count`` physically consecutive pages (a heap extent)."""
        return [self.allocate(capacity) for _ in range(count)]

    def free(self, page_id: int) -> None:
        """Release a page (temporary sort runs are freed after merging)."""
        self._pages.pop(page_id, None)

    def page_exists(self, page_id: int) -> bool:
        return page_id in self._pages

    def iter_pages(self) -> Iterator[Page]:
        """All allocated pages in allocation order (unaccounted; admin use)."""
        return iter(list(self._pages.values()))

    def repair_page(self, page_id: int) -> bool:
        """Restore a damaged page from redundancy, if any exists.

        The base disk has no redundancy and always reports failure;
        :class:`~repro.storage.replica.ReplicatedDisk` overrides this
        with replica-driven repair.  Callers (buffer pool, resilient
        reads) treat ``False`` as "the damage stands".
        """
        return False

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        """Simulated elapsed time in seconds."""
        return self.stats.time

    def advance_clock(self, seconds: float) -> None:
        """Advance the clock without I/O (e.g. modelled CPU cost)."""
        self.stats.time += seconds

    def snapshot(self) -> IOStats:
        """Copy of the current statistics, for before/after differencing."""
        return self.stats.copy()

    # ------------------------------------------------------------------
    # the deterministic write-crash hook (crash-schedule exploration)
    # ------------------------------------------------------------------
    @property
    def write_count(self) -> int:
        """Total write attempts this disk has seen (crash-grid indexing)."""
        return self._writes_total

    def crash_after_writes(self, writes: int) -> None:
        """Raise :class:`SimulatedCrashError` on the ``writes``-th next
        write attempt (that write is *lost* from the accounting's point of
        view), then disarm — the data-disk analogue of
        :meth:`~repro.storage.wal.WriteAheadLog.crash_after_appends`, so
        the crash-schedule explorer can place a crash on every device of
        a transaction, not just its logs."""
        if writes < 1:
            raise ValueError("crash countdown must be >= 1")
        self._write_crash_countdown = writes

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def read(
        self,
        page_id: int,
        *,
        sequential: bool = False,
        category: str = "data",
        charge: bool = True,
    ) -> Page:
        """Fetch a page from disk.

        ``sequential=True`` marks the access as part of a scan: if it
        continues the current physical run and the prefetch window is not
        exhausted, no positioning cost is charged.  ``charge=False``
        records the access but prices it at zero — used for index-level
        pages, which the paper assumes to be resident in the DBMS cache.
        """
        try:
            page = self._pages[page_id]
        except KeyError:
            raise MissingPageError(f"no page at address {page_id}") from None

        bucket = self.stats.category(category)
        if not charge:
            bucket.unpriced_reads += 1
            return page

        bucket.pages_read += 1
        cost = self.params.t_tau
        contiguous = sequential and page_id == self._head_after_read + 1
        if contiguous and self._read_run < self.params.prefetch:
            self._read_run += 1
        else:
            cost += self.params.t_pi
            bucket.read_seeks += 1
            self._read_run = 1
        self._head_after_read = page_id
        # Any priced read moves the head, breaking a concurrent write run.
        self._head_after_write = -2
        self.stats.time += cost
        return page

    def write(
        self,
        page: Page,
        *,
        sequential: bool = False,
        category: str = "data",
    ) -> None:
        """Write a page back to disk, priced like a read."""
        if page.page_id not in self._pages:
            raise MissingPageError(f"no page at address {page.page_id}")
        self._writes_total += 1
        if self._write_crash_countdown is not None:
            self._write_crash_countdown -= 1
            if self._write_crash_countdown <= 0:
                self._write_crash_countdown = None
                raise SimulatedCrashError(
                    f"simulated crash: write #{self._writes_total} "
                    f"(page {page.page_id}) never reached the platter"
                )

        bucket = self.stats.category(category)
        bucket.pages_written += 1
        cost = self.params.t_tau
        contiguous = sequential and page.page_id == self._head_after_write + 1
        if contiguous and self._write_run < self.params.prefetch:
            self._write_run += 1
        else:
            cost += self.params.t_pi
            bucket.write_seeks += 1
            self._write_run = 1
        self._head_after_write = page.page_id
        self._head_after_read = -2
        self.stats.time += cost

    def peek(self, page_id: int) -> Page:
        """Access a page without any accounting (test/setup use only)."""
        try:
            return self._pages[page_id]
        except KeyError:
            raise MissingPageError(f"no page at address {page_id}") from None


class _DelegatingDisk(SimulatedDisk):
    """One wrapper layer of a disk stack (fault injection, replication).

    It *is* a ``SimulatedDisk`` to every consumer's type signature, but
    all allocation, clock, statistics and I/O state live in ``inner``.
    ``params`` and ``stats`` are the inner disk's own objects, so the
    cost model and accounting are shared, not mirrored, and the
    inherited clock/snapshot methods stay correct.  Everything below is
    a pass-through; a subclass overrides only what its layer changes.
    """

    def __init__(
        self, inner: SimulatedDisk | None, params: DiskParameters | None
    ) -> None:
        # deliberately no super().__init__(): see the class docstring
        self.inner = inner if inner is not None else SimulatedDisk(params)
        self.params = self.inner.params
        self.stats = self.inner.stats

    @property
    def wal(self) -> "WriteAheadLog | None":  # type: ignore[override]
        """WAL registration proxies to the base disk (shared stack)."""
        return self.inner.wal

    @wal.setter
    def wal(self, value: "WriteAheadLog | None") -> None:
        self.inner.wal = value

    def allocate(self, capacity: int) -> Page:
        return self.inner.allocate(capacity)

    def allocate_extent(self, count: int, capacity: int) -> list[Page]:
        return self.inner.allocate_extent(count, capacity)

    def free(self, page_id: int) -> None:
        self.inner.free(page_id)

    def page_exists(self, page_id: int) -> bool:
        return self.inner.page_exists(page_id)

    def peek(self, page_id: int) -> Page:
        return self.inner.peek(page_id)

    def iter_pages(self) -> Iterator[Page]:
        return self.inner.iter_pages()

    def repair_page(self, page_id: int) -> bool:
        return self.inner.repair_page(page_id)

    def read(
        self,
        page_id: int,
        *,
        sequential: bool = False,
        category: str = "data",
        charge: bool = True,
    ) -> Page:
        return self.inner.read(
            page_id, sequential=sequential, category=category, charge=charge
        )


def disk_layers(disk: SimulatedDisk) -> list[SimulatedDisk]:
    """Every layer of a disk stack: outermost wrapper first, base device last."""
    layers = [disk]
    while isinstance(disk, _DelegatingDisk):
        disk = disk.inner
        layers.append(disk)
    return layers
