"""Sweep-ahead prefetching: turn predicted page accesses into overlap.

The Tetris sweep and the UB-Tree range query know which pages they will
touch next *before* they need them — the region schedule is computed
from index levels alone.  :class:`SweepPrefetcher` reads that projection
off the scan's region cursor — a slice of the schedule's page-id column
— and keeps a bounded number of async reads in flight through the buffer
pool's prefetch gate, so transfers overlap across the scheduler's device
queues instead of serializing behind the sweep.

One page walk owns a scan's window (``UBTree.walk``): it opens one for
the scan, tops it up before each demand, marks each page consumed and
closes it at the end — or borrows the window a
:class:`DualCursorPrefetcher` handed to the scan's cursor, which that
coordinator closes.  The pool itself spares pending prefetches when it
evicts (``BufferPool._choose_victim``), whichever window submitted
them, so no window installs or restores anything on the pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .buffer import BufferPool

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.region import RegionCursor

__all__ = [
    "DualCursorPrefetcher",
    "SweepPrefetcher",
]


def _prefetching(pool: BufferPool) -> bool:
    scheduler = pool.scheduler
    return scheduler is not None and scheduler.prefetch_depth > 0


class SweepPrefetcher:
    """Keeps a bounded window of async reads in flight for one sweep.

    Create via :meth:`for_pool` (returns ``None`` when the pool has no
    scheduler or prefetching is disabled), top it up from the scan's
    region cursor with :meth:`top_up`, report consumption with
    :meth:`mark_consumed`, and always :meth:`close` it — leftover
    submissions are cancelled (accounted as wasted).  Every submission
    lies in the window ``page_ids[position:position + depth]`` of the
    schedule it was made from, or is the page the sweep is about to
    demand.
    """

    def __init__(self, pool: BufferPool, *, category: str = "data") -> None:
        scheduler = pool.scheduler
        if scheduler is None or scheduler.prefetch_depth <= 0:
            raise ValueError("pool has no scheduler with prefetching enabled")
        self.pool = pool
        # never let the prefetch window swallow the whole pool: the sweep
        # needs frames behind the plane for index pages and open slices
        limit = max(1, pool.capacity // 2)
        self.depth = min(scheduler.prefetch_depth, limit)
        self.category = category
        self._outstanding: set[int] = set()
        #: the schedule epoch the window was last checked against
        self._epoch: int | None = None
        self._closed = False

    @classmethod
    def for_pool(
        cls, pool: BufferPool, *, category: str = "data"
    ) -> "SweepPrefetcher | None":
        """A prefetcher when the pool can prefetch, else ``None``."""
        if not _prefetching(pool):
            return None
        return cls(pool, category=category)

    @property
    def outstanding(self) -> frozenset[int]:
        return frozenset(self._outstanding)

    def top_up(self, cursor: "RegionCursor") -> int:
        """Submit async reads for the cursor's window until it is full
        (at once, if it is); returns the number issued.

        Pages resident, in flight or refused (quarantine, transient
        fault) are skipped.  If the cursor re-took its schedule, the
        submissions outside the new window bar the page about to be
        demanded are cancelled first, as wasted.
        """
        if self._closed:
            return 0
        outstanding = self._outstanding
        epoch = cursor.epoch
        if epoch != self._epoch or epoch != cursor.tree.structure_epoch:
            cursor.upcoming_page_ids(0)  # re-takes a stale schedule
            self._epoch, start = cursor.epoch, max(cursor.position - 1, 0)
            window = cursor.page_ids[start : cursor.position + self.depth]
            for page_id in sorted(outstanding.difference(window)):
                outstanding.discard(page_id)
                self.pool.cancel_prefetch(page_id)
        if len(outstanding) >= self.depth:
            return 0
        issued = 0
        pool = self.pool
        for page_id in cursor.upcoming_page_ids(self.depth):
            if len(outstanding) >= self.depth:
                break
            if page_id in outstanding:
                continue
            if pool.prefetch(page_id, category=self.category):
                outstanding.add(page_id)
                issued += 1
        return issued

    def mark_consumed(self, page_id: int) -> None:
        """The sweep plane passed this page; its window slot frees up."""
        self._outstanding.discard(page_id)

    def close(self) -> None:
        """Cancel leftover submissions (accounted as wasted)."""
        if self._closed:
            return
        self._closed = True
        for page_id in list(self._outstanding):
            self.pool.cancel_prefetch(page_id)
        self._outstanding.clear()


class DualCursorPrefetcher:
    """Join-aware read-ahead across the two inputs of a merge join.

    A pipelined merge join alternates between its sorted inputs, so
    neither side's solo :class:`SweepPrefetcher` sees enough consecutive
    demand to keep the device queues busy — the sweeps stall each other.
    This policy drives one window per side from the *join's* cursor
    instead: :meth:`advise` hears which side the merge is about to pull
    from, and a *reconcile* tops *every* side's window — the demanded
    side first, so its transfers win the device-queue slots, while the
    other side's next group stays in flight for when the cursor swings
    back.  With pages striped across devices the elapsed time of the
    join approaches ``max`` of the two sweeps instead of their sum.

    A reconcile runs only when something it depends on has moved: a
    side's cursor (a region consumed, a split re-taking the schedule) or
    pool residency (frames come and go only around a disk fetch).  Cursor
    positions, structure epochs and the pools' ``disk_fetches`` only
    grow, so their sum — the *stamp* — moves exactly when one of them
    does, and :meth:`advise` returns at once while it equals the stamp
    taken when the last reconcile *began*; why that is exact, and the
    differential test holding it to a poll, is in ``docs/JOINS.md``.

    Sides are ``TetrisScan``s: each one's region cursor is handed its
    side's window (``cursor.window``), which the scan's page walk
    borrows — tops up and marks consumed per region while that side is
    the one drained; the join's cursor refreshes the idle side, and
    closing stays here.
    """

    def __init__(
        self, sides: "list[tuple[Any, SweepPrefetcher]]"
    ) -> None:
        if len(sides) < 2:
            raise ValueError("dual-cursor policy needs at least two sides")
        self._sides = sides
        self._cursors = [scan.cursor for scan, _ in sides]
        self._pools = list(
            {id(prefetcher.pool): prefetcher.pool for _, prefetcher in sides}.values()
        )
        #: the stamp when the last reconcile began (``None``: never ran)
        self._reconciled_at: int | None = None
        self._closed = False
        for cursor, (_, prefetcher) in zip(self._cursors, sides):
            cursor.window = prefetcher

    @classmethod
    def for_operators(cls, *operators: Any) -> "DualCursorPrefetcher | None":
        """A dual policy over two or more operators exposing a ``.scan``
        (``TetrisOperator``) whose pools can all prefetch, else ``None``."""
        scans = [getattr(operator, "scan", None) for operator in operators]
        pools = [scan.ubtree.tree.buffer for scan in scans if scan is not None]
        if len(pools) < max(2, len(scans)) or not all(map(_prefetching, pools)):
            return None
        sides = [
            (scan, SweepPrefetcher(pool, category=scan.ubtree.category))
            for scan, pool in zip(scans, pools)
        ]
        return cls(sides)

    def advise(self, index: int) -> bool:
        """The merge cursor is about to pull from side ``index``; returns
        whether this call reconciled.

        A no-op while the stamp is where the last reconcile found it;
        otherwise every side's window is topped to full depth from its
        cursor — the demanded side first, so when windows compete for
        queue slots the side about to be read wins.  Once a call returns
        ``False`` every further call is a no-op until a sweep consumes a
        region, a tree splits or a pool fetches a page.
        """
        if self._closed:
            return False
        stamp = 0
        for cursor in self._cursors:
            stamp += cursor.position + cursor.tree.structure_epoch
        for pool in self._pools:
            stamp += pool.disk_fetches
        if stamp == self._reconciled_at:
            return False
        self._reconciled_at = stamp
        order = [index] + [
            side for side in range(len(self._sides)) if side != index
        ]
        for side_index in order:
            self._sides[side_index][1].top_up(self._cursors[side_index])
        return True

    def close(self) -> None:
        """Close every window and take it back from its scan's cursor."""
        if self._closed:
            return
        self._closed = True
        for cursor, (_, prefetcher) in zip(self._cursors, self._sides):
            prefetcher.close()
            cursor.window = None
