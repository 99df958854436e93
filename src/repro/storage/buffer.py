"""A simple LRU buffer pool on top of the simulated disk.

The pool caches pages so that repeated accesses within one query are free,
mirroring a DBMS buffer cache.  Experiments size it to hold index levels
plus a working set, so that base-table page waves still hit the disk —
which is the regime the paper's cost model describes.

The pool is also the engine's resilience gate: transient read errors are
retried through a :class:`~repro.storage.retry.RetryPolicy` (backoff
charged to the *simulated* clock), every page fetched from disk is
verified against its stored checksum, and a page that keeps failing —
or fails once with corruption — is *quarantined*: further lookups raise
:class:`~repro.storage.errors.QuarantinedPageError` without touching the
disk, and the planner degrades onto a surviving physical instance.

With ``REPRO_CHECKS=1`` every mutation re-validates the pool's
accounting contract (see :mod:`repro.invariants.accounting`): each
lookup is exactly one hit, one miss or one quarantine rejection; disk
fetches equal misses plus retry attempts plus issued prefetches; the
frame count never exceeds the capacity; and no quarantined page is
resident.

The pool is a read cache: every engine write goes straight to
``disk.write`` under the WAL, so no frame is ever dirty and eviction
never writes back.

When an :class:`~repro.storage.scheduler.IOScheduler` is attached, the
pool is also the prefetch gate: :meth:`prefetch` admits a page whose
async read is still in flight, and the first demand lookup *claims* it —
waiting out the remaining transfer time, then running exactly the same
integrity/repair/quarantine ladder a demand fetch runs, so a corrupt
prefetched page degrades identically to a corrupt demand-fetched one.
Until it is claimed such a frame is spared by eviction, whichever scan
submitted it (:meth:`_choose_victim`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable

from .. import invariants
from ..invariants.sanitizer import guarded_by, note_access, tracked_lock
from .disk import SimulatedDisk
from .errors import CorruptPageError, QuarantinedPageError, TransientIOError
from .page import Page
from .retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    charge_backoff,
    verify_or_repair,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .scheduler import IOScheduler


@guarded_by(
    "_lock",
    "_frames",
    "_prefetched",
    "_discarded",
    "_failures",
    "_quarantined",
    "_eviction_observers",
    "hits",
    "misses",
    "lookups",
    "disk_fetches",
    "rejected",
    "retry_attempts",
    "prefetch_issued",
    "prefetch_claimed",
    "prefetch_cancelled",
)
class BufferPool:
    """LRU cache of disk pages with hit/miss accounting and quarantine.

    Frame maps, the prefetch/quarantine sets, the observer list
    and every shadow counter are guarded by the pool's ``buffer-pool``
    lock: all mutating entry points take it, internal helpers inherit
    it from their callers (reprolint R010 verifies the reachability
    claim through the call graph, and the ``REPRO_CHECKS=1`` sanitizer
    verifies the happens-before claim at runtime).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        capacity: int = 256,
        *,
        retry_policy: RetryPolicy | None = None,
        quarantine_threshold: int = 3,
        scheduler: "IOScheduler | None" = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        if quarantine_threshold < 1:
            raise ValueError("quarantine threshold must be >= 1")
        #: reentrant declared lock; rank "buffer-pool" in the global order
        self._lock = tracked_lock("buffer-pool")
        self.disk = disk
        self.capacity = capacity
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.quarantine_threshold = quarantine_threshold
        self.scheduler = scheduler
        self.hits = 0
        self.misses = 0
        #: shadow counters cross-checked by the invariant layer: total
        #: lookups served, disk reads issued by this pool (including
        #: failed retry attempts and async prefetches), lookups rejected
        #: by quarantine, individual retry attempts, and the prefetch
        #: lifecycle (issued = claimed + cancelled + still pending)
        self.lookups = 0
        self.disk_fetches = 0
        self.rejected = 0
        self.retry_attempts = 0
        self.prefetch_issued = 0
        self.prefetch_claimed = 0
        self.prefetch_cancelled = 0
        #: callbacks fired with the page id whenever a frame leaves the
        #: pool (eviction, quarantine, drop, cancelled prefetch) —
        #: whatever tracks residency from outside (the benchmark
        #: harness counts evictions here) follows in lockstep
        self._eviction_observers: list[Callable[[int], Any]] = []
        self._frames: OrderedDict[int, Page] = OrderedDict()
        #: resident frames whose async read has not been claimed yet —
        #: the pages *ahead* of the sweep plane
        self._prefetched: set[int] = set()
        #: pages whose latest async read was cancelled unclaimed (evicted,
        #: dropped, quarantined or cancelled while pending): that transfer
        #: was thrown away.  A claimed one was used, by whichever scan
        #: demanded it — the fetch-once check tells the two apart here
        self._discarded: set[int] = set()
        #: cumulative I/O failures per page, across lookups
        self._failures: dict[int, int] = {}
        self._quarantined: set[int] = set()

    def _note_write(self, field: str) -> None:
        """Happens-before choke point for one guarded-field mutation."""
        if invariants.enabled():
            note_access(self, field, write=True, sim_time=self.disk.stats.time)

    def add_eviction_observer(self, observer: Callable[[int], Any]) -> None:
        """Call ``observer(page_id)`` whenever a frame leaves the pool."""
        with self._lock:
            self._eviction_observers.append(observer)
            self._note_write("_eviction_observers")

    def remove_eviction_observer(self, observer: Callable[[int], Any]) -> None:
        """Detach a previously added observer (no-op when absent)."""
        with self._lock:
            if observer in self._eviction_observers:
                self._eviction_observers.remove(observer)
            self._note_write("_eviction_observers")

    def _notify_evicted(self, page_id: int) -> None:
        for observer in self._eviction_observers:
            observer(page_id)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    def get(
        self,
        page_id: int,
        *,
        sequential: bool = False,
        category: str = "data",
        charge: bool = True,
    ) -> Page:
        """Return the page, reading it from disk on a miss.

        Transient errors are retried per the pool's policy; corruption
        quarantines the page immediately; a page whose cumulative
        failure count reaches the quarantine threshold is refused
        outright on later lookups (:class:`QuarantinedPageError`).
        """
        with self._lock:
            self.lookups += 1
            if page_id in self._quarantined:
                # a disk stack with replicas may be able to heal the page;
                # if so, lift the quarantine and serve the lookup normally
                if self.disk.repair_page(page_id):
                    self.lift_quarantine(page_id)
                else:
                    self.rejected += 1
                    self._validate()
                    raise QuarantinedPageError(
                        f"page {page_id} is quarantined after "
                        f"{self._failures.get(page_id, 0)} failures"
                    )
            if page_id in self._frames:
                if page_id in self._prefetched:
                    return self._claim_prefetched(page_id)
                self.hits += 1
                self._frames.move_to_end(page_id)
                return self._frames[page_id]
            self.misses += 1
            page = self._fetch(
                page_id, sequential=sequential, category=category, charge=charge
            )
            self._admit(page)
            self._validate()
            return page

    # ------------------------------------------------------------------
    # the prefetch gate
    # ------------------------------------------------------------------
    def prefetch(self, page_id: int, *, category: str = "data") -> bool:
        """Issue an async read for a page the sweep will demand soon.

        Returns ``True`` when the page is now resident-and-pending.  A
        no-op (``False``) without a scheduler, for resident or
        quarantined pages, and on a transient fault of the async attempt
        — the later demand read then runs the normal retry path.
        """
        with self._lock:
            scheduler = self.scheduler
            if (
                scheduler is None
                or scheduler.prefetch_depth <= 0
                or page_id in self._frames
                or page_id in self._quarantined
            ):
                return False
            self.disk_fetches += 1
            self.prefetch_issued += 1
            page = scheduler.submit(page_id, category=category)
            if page is None:
                # the async attempt hit a transient fault; account the issue
                # as immediately cancelled so the lifecycle ledger stays
                # balanced (issued = claimed + cancelled + pending)
                self.prefetch_cancelled += 1
                self._validate()
                return False
            self._prefetched.add(page_id)
            self._discarded.discard(page_id)
            self._note_write("_prefetched")
            self._admit(page)
            self._validate()
            return True

    def _claim_prefetched(self, page_id: int) -> Page:
        """First demand lookup of a pending prefetched page.

        Waits out the remaining transfer time, then applies the same
        integrity/repair/quarantine ladder as a demand fetch.  A lookup
        that ends in quarantine is counted as ``rejected`` (the disk
        fetch was already accounted when the prefetch was issued).
        """
        self._prefetched.discard(page_id)
        self.prefetch_claimed += 1
        scheduler = self.scheduler
        if scheduler is None:  # pragma: no cover - guarded by prefetch()
            raise RuntimeError("pending prefetched page without a scheduler")
        page = scheduler.claim(page_id)
        self._frames.move_to_end(page_id)
        try:
            verify_or_repair(
                self.disk, page, context=f"prefetched read of page {page_id}"
            )
        except CorruptPageError:
            self._quarantine(page_id, immediately=True)
            self.rejected += 1
            self._validate()
            raise
        self.hits += 1
        self._validate()
        return page

    def cancel_prefetch(self, page_id: int) -> bool:
        """Drop a pending prefetched page (mispredicted sweep)."""
        with self._lock:
            if page_id not in self._prefetched:
                return False
            self._cancel_pending(page_id)
            if self._frames.pop(page_id, None) is not None:
                self._notify_evicted(page_id)
            self._validate()
            return True

    def _cancel_pending(self, page_id: int) -> None:
        """Retire a pending prefetch's bookkeeping (frame handled by caller)."""
        self._prefetched.discard(page_id)
        self._discarded.add(page_id)
        self.prefetch_cancelled += 1
        self._note_write("_prefetched")
        if self.scheduler is not None:
            self.scheduler.cancel(page_id)

    @property
    def prefetch_pending(self) -> frozenset[int]:
        """Resident pages whose async read has not been claimed yet."""
        return frozenset(self._prefetched)

    def _fetch(
        self, page_id: int, *, sequential: bool, category: str, charge: bool
    ) -> Page:
        """One miss: read with retries, verify integrity, track failures."""
        # a demand read goes through the scheduler's queues when armed
        source = self.scheduler if self.scheduler is not None else self.disk
        delays = self.retry_policy.delays()
        while True:
            self.disk_fetches += 1
            try:
                page = source.read(
                    page_id, sequential=sequential, category=category, charge=charge
                )
            except TransientIOError:
                self._note_failure(page_id)
                delay = next(delays, None)
                if delay is None or page_id in self._quarantined:
                    self._validate()
                    raise
                self.retry_attempts += 1
                charge_backoff(self.disk, delay)
                continue
            try:
                verify_or_repair(
                    self.disk, page, context=f"buffered read of page {page_id}"
                )
            except CorruptPageError:
                # the bits will not heal: no retry, straight to quarantine
                self._quarantine(page_id, immediately=True)
                self._validate()
                raise
            return page

    def _note_failure(self, page_id: int) -> None:
        count = self._failures.get(page_id, 0) + 1
        self._failures[page_id] = count
        if count >= self.quarantine_threshold:
            self._quarantine(page_id)

    def _quarantine(self, page_id: int, *, immediately: bool = False) -> None:
        if immediately:
            self._failures[page_id] = max(
                self._failures.get(page_id, 0) + 1, self.quarantine_threshold
            )
        if page_id not in self._quarantined:
            self._quarantined.add(page_id)
            self._note_write("_quarantined")
            self.disk.stats.faults.quarantined_pages += 1
        # a quarantined page must not linger in the cache (its content is
        # suspect); drop it, retiring any still-pending async read of it
        # along the way
        if page_id in self._prefetched:
            self._cancel_pending(page_id)
        if self._frames.pop(page_id, None) is not None:
            self._notify_evicted(page_id)

    # ------------------------------------------------------------------
    # quarantine introspection
    # ------------------------------------------------------------------
    @property
    def quarantined_pages(self) -> frozenset[int]:
        return frozenset(self._quarantined)

    def lift_quarantine(self, page_id: int) -> bool:
        """Re-admit a quarantined page after its primary has been repaired.

        Clears the failure history too — the accounting invariant
        requires every over-threshold page to be quarantined, so a
        lifted page must start from a clean slate.  Returns ``False``
        when the page was not quarantined.
        """
        with self._lock:
            if page_id not in self._quarantined:
                return False
            self._quarantined.discard(page_id)
            self._note_write("_quarantined")
            self._failures.pop(page_id, None)
            self.disk.stats.faults.quarantine_lifted += 1
            return True

    def repair_quarantined(self) -> list[int]:
        """Try to repair every quarantined page from the disk's replicas.

        Returns the (sorted) page ids whose repair succeeded and whose
        quarantine was lifted; pages with no surviving replica stay
        quarantined.  Called by the plan executor before dropping a
        degraded physical instance.
        """
        with self._lock:
            repaired: list[int] = []
            for page_id in sorted(self._quarantined):
                if self.disk.repair_page(page_id):
                    repaired.append(page_id)
            for page_id in repaired:
                self.lift_quarantine(page_id)
            self._validate()
            return repaired

    def drop_all(self) -> None:
        """Empty the pool (pages live in the sim anyway).

        Used between experiment phases to start measurements from a cold
        cache, the state the paper's formulas assume.  Quarantine state
        and counters survive — a bad page stays bad across phases.
        Pending prefetches are cancelled (and counted wasted): nobody
        will ever claim them once the frames are gone.
        """
        with self._lock:
            for page_id in list(self._prefetched):
                self._cancel_pending(page_id)
            dropped = list(self._frames)
            self._frames.clear()
            self._note_write("_frames")
            for page_id in dropped:
                self._notify_evicted(page_id)

    def _validate(self) -> None:
        if invariants.enabled():
            invariants.validate_buffer_pool(self)

    def _admit(self, page: Page) -> None:
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        self._note_write("_frames")
        while len(self._frames) > self.capacity:
            victim_id = self._choose_victim()
            del self._frames[victim_id]
            if victim_id in self._prefetched:
                # evicting an unclaimed prefetch throws the transfer away
                self._cancel_pending(victim_id)
            self._notify_evicted(victim_id)

    def _choose_victim(self) -> int:
        """The least recently used frame that is not a pending prefetch.

        A pending frame is *ahead of the sweep plane*: an async read
        issued for a page a scan is about to demand.  Under plain LRU it
        is, by construction, the least recently touched frame once a few
        demand hits pass it by, so LRU would throw away exactly the
        transfers a sweep is about to claim while consumed frames
        ("behind the plane") sit idle.  When every other frame is
        pending, the victim is the page just demand-read: it leaves as
        it is returned, and a second demand of it is a second disk read.
        Evicting a pending frame instead would throw away a transfer a
        scan is owed — exactly what fetch-once forbids.  Only when every
        frame is pending does LRU order decide alone.
        """
        pending = self._prefetched
        if pending:
            for page_id in self._frames:
                if page_id not in pending:
                    return page_id
        return next(iter(self._frames))
