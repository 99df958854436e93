"""Sweep-ahead prefetching: turn predicted page accesses into overlap.

The Tetris sweep (and the UB-Tree range query, and a heap scan) knows
which pages it will touch next *before* it needs them — the region
schedule is computed from index levels alone.  :class:`SweepPrefetcher`
consumes that projection (``TetrisScan.upcoming_page_ids``-style
lookahead, generically exposed through :class:`LookaheadCursor`) and
keeps a bounded number of async reads in flight through the buffer
pool's prefetch gate, so transfers overlap across the scheduler's device
queues instead of serializing behind the sweep.

It also installs :class:`SweepEvictionPolicy` on the pool for the
duration of the scan: plain LRU is actively wrong under prefetching —
an unclaimed prefetched page is, by construction, the *least* recently
touched frame once a few demand hits pass it by, so LRU evicts exactly
the pages the sweep is about to need ("ahead of the plane") while dozens
of already-consumed frames ("behind the plane") sit idle.  The sweep
policy prefers any consumed frame and only falls back to LRU when every
frame is still pending.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Any, Generic, Iterable, Iterator, TypeVar

from .buffer import BufferPool

__all__ = [
    "DualCursorPrefetcher",
    "LookaheadCursor",
    "SweepEvictionPolicy",
    "SweepPrefetcher",
]

ItemT = TypeVar("ItemT")


class LookaheadCursor(Generic[ItemT]):
    """An iterator with bounded :meth:`peek` lookahead.

    Wraps any iterator and buffers items pulled ahead of consumption, so
    a scan can ask "what are the next ``k`` items?" without disturbing
    its own iteration order.  Safe for the region generators because
    they perform no data-page I/O — pulling the schedule forward only
    reads further into a schedule that is already computed.

    ``position`` counts the items handed out by ``__next__`` — never the
    ones :meth:`peek` merely buffered — and only grows, so "has the
    projection moved since I last looked?" is one integer comparison.
    """

    def __init__(self, source: Iterator[ItemT]) -> None:
        self._source = source
        self._buffer: deque[ItemT] = deque()
        self._exhausted = False
        self.position = 0

    def __iter__(self) -> Iterator[ItemT]:
        return self

    def __next__(self) -> ItemT:
        if self._buffer:
            item = self._buffer.popleft()
        elif self._exhausted:
            raise StopIteration
        else:
            try:
                item = next(self._source)
            except StopIteration:
                self._exhausted = True
                raise
        self.position += 1
        return item

    def peek(self, count: int) -> list[ItemT]:
        """The next ``count`` items (fewer near the end), not consumed."""
        buffer = self._buffer
        while len(buffer) < count and not self._exhausted:
            try:
                buffer.append(next(self._source))
            except StopIteration:
                self._exhausted = True
        return list(islice(buffer, count)) if count > 0 else []


class SweepEvictionPolicy:
    """Evict-behind-the-plane: spare the pages the sweep still needs.

    A frame is *ahead of the plane* exactly when it is a pending
    (unclaimed) prefetched page; everything else — index pages, consumed
    region pages — is behind the plane and fair game.  Victims are taken
    in LRU order among the behind-the-plane frames, so without any
    pending prefetches the policy degenerates to plain LRU.
    """

    def choose_victim(self, pool: BufferPool) -> int | None:
        pending = pool.prefetch_pending
        if not pending:
            return None  # plain LRU
        for page_id in pool.iter_frames_lru():
            if page_id not in pending:
                return page_id
        return None  # every frame is ahead of the plane; LRU must decide


class SweepPrefetcher:
    """Keeps a bounded window of async reads in flight for one sweep.

    Create via :meth:`for_pool` (returns ``None`` when the pool has no
    scheduler or prefetching is disabled), feed it the projected next
    page ids with :meth:`top_up`, report consumption with
    :meth:`mark_consumed`, and always :meth:`close` it — leftover
    submissions are cancelled (accounted as wasted) and the pool's
    previous eviction policy is restored.
    """

    def __init__(
        self,
        pool: BufferPool,
        *,
        depth: int | None = None,
        category: str = "data",
        sequential: bool = False,
    ) -> None:
        scheduler = pool.scheduler
        if scheduler is None or scheduler.prefetch_depth <= 0:
            raise ValueError("pool has no scheduler with prefetching enabled")
        self.pool = pool
        # never let the prefetch window swallow the whole pool: the sweep
        # needs frames behind the plane for index pages and open slices
        limit = max(1, pool.capacity // 2)
        self.depth = min(depth or scheduler.prefetch_depth, limit)
        self.category = category
        self.sequential = sequential
        self._outstanding: set[int] = set()
        self._closed = False
        self._previous_policy = pool.eviction_policy
        if pool.eviction_policy is None:
            pool.eviction_policy = SweepEvictionPolicy()

    @classmethod
    def for_pool(
        cls,
        pool: BufferPool,
        *,
        depth: int | None = None,
        category: str = "data",
        sequential: bool = False,
    ) -> "SweepPrefetcher | None":
        """A prefetcher when the pool can prefetch, else ``None``."""
        scheduler = pool.scheduler
        if scheduler is None or scheduler.prefetch_depth <= 0:
            return None
        return cls(pool, depth=depth, category=category, sequential=sequential)

    @property
    def outstanding(self) -> frozenset[int]:
        return frozenset(self._outstanding)

    def top_up(self, upcoming: Iterable[int]) -> int:
        """Submit async reads for projected pages until the window is full.

        ``upcoming`` is the sweep's projection in retrieval order; pages
        already resident, in flight, or refused (quarantine, transient
        fault) are skipped.  Returns the number of reads issued.
        """
        if self._closed:
            return 0
        issued = 0
        pool = self.pool
        for page_id in upcoming:
            if len(self._outstanding) >= self.depth:
                break
            if page_id in self._outstanding:
                continue
            if pool.prefetch(
                page_id,
                sequential=self.sequential,
                category=self.category,
            ):
                self._outstanding.add(page_id)
                issued += 1
        return issued

    def mark_consumed(self, page_id: int) -> None:
        """The sweep plane passed this page; its window slot frees up."""
        self._outstanding.discard(page_id)

    def close(self) -> None:
        """Cancel leftover submissions and restore the eviction policy."""
        if self._closed:
            return
        self._closed = True
        for page_id in list(self._outstanding):
            self.pool.cancel_prefetch(page_id)
        self._outstanding.clear()
        if isinstance(self.pool.eviction_policy, SweepEvictionPolicy):
            self.pool.eviction_policy = self._previous_policy


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

    The join advises before every pull that could move a window (see
    :class:`~repro.relational.operators.MergeSemiJoin`), but a reconcile
    runs only when something it depends on has moved: a side's
    projection and window (its sweep consumed a region) or pool
    residency (frames come and go only around a disk fetch).  Sweep
    positions and the pools'
    ``disk_fetches`` are monotone, so their sum — the *stamp* — moves
    exactly when any of them does, and :meth:`advise` returns at once
    while it equals the stamp taken when the last reconcile *began*.
    Taken at the start, a reconcile that itself touched the pool (issued
    a read, burned a transient fault) leaves the stamp stale and is
    followed by another on the next pull, so skipping is exact: every
    retry, every candidate an eviction exposed and the demanded-side-
    first order land on the same pull as if every pull reconciled
    (argument and differential test: ``docs/JOINS.md``).

    Sides are duck-typed: anything exposing ``.ubtree`` (with
    ``.tree.buffer`` and ``.category``), ``.sweep_position``,
    ``.upcoming_page_ids(count)`` and an ``.external_prefetch``
    attribute — i.e. ``TetrisScan``.  Each side's ``external_prefetch``
    is set to its *shared* window: the sweep tops it up and marks pages
    consumed per region while it is the one being drained (a scan can
    read many regions between two emitted rows, when the join's cursor
    cannot advise), the join's cursor refreshes the idle side, and
    ownership — closing, cancelling leftovers — stays here.
    """

    def __init__(
        self, sides: "list[tuple[Any, SweepPrefetcher]]"
    ) -> None:
        if len(sides) < 2:
            raise ValueError("dual-cursor policy needs at least two sides")
        self._sides = sides
        self._pools = list(
            {id(prefetcher.pool): prefetcher.pool for _, prefetcher in sides}.values()
        )
        #: the stamp when the last reconcile began (``None``: never ran)
        self._reconciled_at: int | None = None
        self._closed = False
        for scan, prefetcher in sides:
            scan.external_prefetch = prefetcher

    @classmethod
    def for_scans(
        cls, *scans: Any, depth: int | None = None
    ) -> "DualCursorPrefetcher | None":
        """A dual policy when every side's pool can prefetch, else ``None``."""
        sides: "list[tuple[Any, SweepPrefetcher]]" = []
        for scan in scans:
            prefetcher = (
                None
                if scan is None
                else SweepPrefetcher.for_pool(
                    scan.ubtree.tree.buffer,
                    depth=depth,
                    category=scan.ubtree.category,
                )
            )
            if prefetcher is None:
                for _, opened in sides:
                    opened.close()
                return None
            sides.append((scan, prefetcher))
        if len(sides) < 2:
            for _, opened in sides:
                opened.close()
            return None
        return cls(sides)

    @classmethod
    def for_operators(
        cls, *operators: Any, depth: int | None = None
    ) -> "DualCursorPrefetcher | None":
        """Adapt operators exposing a ``.scan`` (``TetrisOperator``)."""
        scans = [getattr(operator, "scan", None) for operator in operators]
        if any(scan is None for scan in scans):
            return None
        return cls.for_scans(*scans, depth=depth)

    def advise(self, index: int) -> bool:
        """The merge cursor is about to pull from side ``index``; returns
        whether this call reconciled.

        A no-op while the stamp is where the last reconcile found it;
        otherwise every side's window is topped to full depth from its
        projection — the demanded side first, so when windows compete
        for queue slots the side about to be read wins.  Once a call
        returns ``False`` every further call is a no-op until a sweep
        consumes a region or a pool fetches a page.
        """
        if self._closed:
            return False
        stamp = 0
        for scan, _ in self._sides:
            stamp += scan.sweep_position
        for pool in self._pools:
            stamp += pool.disk_fetches
        if stamp == self._reconciled_at:
            return False
        self._reconciled_at = stamp
        order = [index] + [
            side for side in range(len(self._sides)) if side != index
        ]
        for side_index in order:
            scan, prefetcher = self._sides[side_index]
            prefetcher.top_up(scan.upcoming_page_ids(prefetcher.depth))
        return True

    def close(self) -> None:
        """Close both windows and hand the scans their solo policy back."""
        if self._closed:
            return
        self._closed = True
        for scan, prefetcher in self._sides:
            prefetcher.close()
            scan.external_prefetch = False
