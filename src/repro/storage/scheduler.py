"""A simulated multi-queue I/O scheduler: striped devices, overlapped reads.

The Tetris sweep makes future page accesses *predictable*, which is
worthless on a single synchronous device: every read still serializes
behind the previous one.  :class:`IOScheduler` models what a real engine
buys with that predictability — ``devices`` independent disk queues over
which pages are striped (``page_id % devices``), so asynchronous reads
submitted ahead of the sweep overlap with each other and with compute.

The model keeps the paper's Section 4.1 cost formulas untouched: every
access is still priced by the wrapped disk stack (``t_pi``/``t_tau``,
prefetch windows, fault latency, replica mirror delay).  The scheduler
merely redistributes *when* that service time elapses: the priced cost of
a read occupies one device queue starting at ``max(now, queue_free)``,
and the simulated clock only advances when someone actually *waits* for
the transfer — a demand read, or a claim of an in-flight prefetch.  The
elapsed time of a scan therefore becomes ``max`` over per-queue busy
intervals (plus any unoverlapped compute) instead of the sum of all
service times.  With ``devices=1`` and no prefetching the redistribution
is an identity: each synchronous read starts on an idle queue at ``now``
and the clock lands exactly where the bare disk would have put it, which
the scheduler parity tests assert.

Fault/WAL/replica compatibility falls out of delegation: the scheduler
calls ``disk.read`` on the *top* of the wrapper stack, so transient
faults still raise (and charge) exactly as before, corrupt pages are
returned for the caller's integrity check (a prefetched page is verified
at claim time, not at submit time), and latency spikes simply lengthen
the queue occupancy of that one transfer.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from ..invariants.sanitizer import guarded_by, tracked_lock
from .errors import MissingPageError, TransientIOError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .disk import SimulatedDisk
    from .page import Page
    from .stats import IOStats

__all__ = [
    "IOScheduler",
    "armed_scheduler_count",
]

#: IOScheduler instances with prefetching enabled, so the benchmark guard
#: can refuse to time a process whose page-access interleaving (and
#: simulated clock) is being reshaped by async reads — mirrors the
#: REPRO_CHECKS and armed-FaultyDisk guards
_ARMED: "weakref.WeakSet[IOScheduler]" = weakref.WeakSet()


def armed_scheduler_count() -> int:
    """Number of live schedulers with a non-zero prefetch depth."""
    return len(_ARMED)


@guarded_by("_lock", "_inflight", "_free_at")
class IOScheduler:
    """``devices`` independent queues over one (stacked) simulated disk.

    The in-flight table and per-device drain times are guarded by the
    ``io-scheduler`` lock — ranked *after* ``buffer-pool`` in the global
    lock order, because the pool issues reads and submits prefetches
    while holding its own lock.

    Parameters
    ----------
    disk:
        Top of the disk wrapper stack (fault/replica layers included) —
        all reads delegate to it, so injection and pricing are unchanged.
    devices:
        Number of independent device queues pages are striped across.
    prefetch_depth:
        Advisory bound on outstanding async reads per consumer; ``0``
        disables prefetching (the sweep layers then never submit).
    """

    def __init__(
        self,
        disk: "SimulatedDisk",
        devices: int = 1,
        *,
        prefetch_depth: int = 0,
    ) -> None:
        if devices < 1:
            raise ValueError("scheduler needs at least one device queue")
        if prefetch_depth < 0:
            raise ValueError("prefetch depth must be >= 0")
        self._lock = tracked_lock("io-scheduler")
        self.disk = disk
        self.devices = devices
        self.prefetch_depth = prefetch_depth
        #: absolute simulated time at which each device queue drains
        self._free_at = [0.0] * devices
        #: in-flight async reads: page_id -> (ready_at, fetched page)
        self._inflight: "dict[int, tuple[float, Page]]" = {}
        if prefetch_depth > 0:
            _ARMED.add(self)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def device_of(self, page_id: int) -> int:
        """The device queue a page is striped onto."""
        return page_id % self.devices

    def pending(self, page_id: int) -> float | None:
        """Ready time of an in-flight async read, or ``None``."""
        entry = self._inflight.get(page_id)
        return entry[0] if entry is not None else None

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def queue_free_times(self) -> list[float]:
        """Per-device drain times (absolute simulated seconds)."""
        return list(self._free_at)

    # ------------------------------------------------------------------
    # disk-stack delegation — the scheduler is a drop-in page source for
    # the shared retry loop (read through the queues, everything else
    # straight to the wrapped stack)
    # ------------------------------------------------------------------
    @property
    def stats(self) -> "IOStats":
        return self.disk.stats

    def advance_clock(self, seconds: float) -> None:
        self.disk.advance_clock(seconds)

    def repair_page(self, page_id: int) -> bool:
        return self.disk.repair_page(page_id)

    # ------------------------------------------------------------------
    # the queue model
    # ------------------------------------------------------------------
    def _occupy(self, page_id: int, start_floor: float, cost: float) -> float:
        """Occupy the page's queue for ``cost`` seconds; return ready time."""
        queue = page_id % self.devices
        start = max(start_floor, self._free_at[queue])
        ready = start + cost
        self._free_at[queue] = ready
        self.disk.stats.prefetch.queue_busy_time += cost
        return ready

    def _wait_until(self, ready: float) -> None:
        stats = self.disk.stats
        wait = ready - stats.time
        if wait > 0:
            stats.prefetch.queue_wait_time += wait
            self.disk.advance_clock(wait)

    # ------------------------------------------------------------------
    # synchronous (demand) reads
    # ------------------------------------------------------------------
    def read(
        self,
        page_id: int,
        *,
        sequential: bool = False,
        category: str = "data",
        charge: bool = True,
    ) -> "Page":
        """Demand-read a page through its device queue.

        An in-flight async read of the same page is *claimed* instead of
        re-issued: the caller waits (at most) for the remaining transfer
        time and the overlap is recorded as a prefetch hit.  Transient
        faults propagate exactly as from the bare disk — the failed
        attempt's charge stays on the global clock and no queue state
        changes, so retry semantics are unchanged.
        """
        with self._lock:
            entry = self._inflight.pop(page_id, None)
            if entry is not None:
                ready, page = entry
                self._wait_until(ready)
                self.disk.stats.prefetch.prefetch_hits += 1
                return page
            stats = self.disk.stats
            start = stats.time
            page = self.disk.read(
                page_id, sequential=sequential, category=category, charge=charge
            )
            cost = stats.time - start
            if cost <= 0:
                return page  # unpriced (index-cache) read: no queue occupancy
            stats.time = start
            ready = self._occupy(page_id, start, cost)
            self._wait_until(ready)
            return page

    # ------------------------------------------------------------------
    # asynchronous (prefetch) reads
    # ------------------------------------------------------------------
    def submit(
        self,
        page_id: int,
        *,
        sequential: bool = False,
        category: str = "data",
        charge: bool = True,
    ) -> "Page | None":
        """Issue an async read ahead of demand; returns the fetched page.

        The transfer occupies the page's device queue but the caller does
        not wait — the clock is untouched, which is the whole point.  A
        transient fault on the async attempt returns ``None`` (the queue
        still spun for the failed attempt, and the later demand read runs
        the normal retry path); the page content is *not* integrity-
        checked here — corruption must surface at claim time with
        exactly the demand-path semantics.
        """
        with self._lock:
            entry = self._inflight.get(page_id)
            if entry is not None:
                return entry[1]
            stats = self.disk.stats
            start = stats.time
            stats.prefetch.prefetch_issued += 1
            try:
                page = self.disk.read(
                    page_id, sequential=sequential, category=category, charge=charge
                )
            except TransientIOError:
                cost = stats.time - start
                stats.time = start
                if cost > 0:
                    self._occupy(page_id, start, cost)
                stats.prefetch.prefetch_wasted += 1
                return None
            cost = stats.time - start
            stats.time = start
            ready = self._occupy(page_id, start, cost) if cost > 0 else start
            self._inflight[page_id] = (ready, page)
            return page

    def claim(self, page_id: int) -> "Page":
        """Consume an in-flight async read, waiting out its remaining time."""
        with self._lock:
            entry = self._inflight.pop(page_id, None)
            if entry is None:
                raise MissingPageError(
                    f"no in-flight read of page {page_id} to claim"
                )
            ready, page = entry
            self._wait_until(ready)
            self.disk.stats.prefetch.prefetch_hits += 1
            return page

    def cancel(self, page_id: int) -> bool:
        """Drop an in-flight async read whose demand will never come.

        The service time already spent on the queue stands (the device
        really did the work); the page is accounted as a wasted prefetch.
        """
        with self._lock:
            if self._inflight.pop(page_id, None) is None:
                return False
            self.disk.stats.prefetch.prefetch_wasted += 1
            return True

    def cancel_all(self) -> int:
        """Cancel every in-flight read (end of a scan, cache drop)."""
        cancelled = 0
        for page_id in list(self._inflight):
            if self.cancel(page_id):
                cancelled += 1
        return cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<IOScheduler devices={self.devices} "
            f"depth={self.prefetch_depth} inflight={len(self._inflight)}>"
        )
