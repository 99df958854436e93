"""Test-side references for engine surfaces no entry point uses.

The engine keeps only what something outside ``tests/`` runs (see
``tools/census``).  What the tests alone need — an opaque predicate
space, a lossy decimal encoder, the paper's scan cost formula, structure
walks, the invariant switch, the sanitizer's virtual actors, the paper's
event-point sweep every Tetris scan's page order is held to and the
row-at-a-time joins the batched ones replay — lives here, reading engine
state (private attributes included) directly.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import replace
from itertools import groupby
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro import invariants, telemetry
from repro.core.intervals import IntervalSet
from repro.core.query_space import Box, QuerySpace, box_is_empty
from repro.core.region import RegionCursor
from repro.costmodel import SECTION_4_PARAMS, CostParameters
from repro.invariants import sanitizer
from repro.invariants.parity import tree_region
from repro.relational.operators.join import _pushdown_pages_skipped
from repro.relational.schema import Encoder
from repro.telemetry import JoinEvent


class PredicateSpace(QuerySpace):
    """An opaque predicate; box pruning is conservatively disabled.

    The kernels know no geometry for it, so every test of it goes
    through :meth:`contains_point` / :meth:`intersects_box` — the
    fallback path of both backends.
    """

    def __init__(self, dims: int, predicate: Callable[[Sequence[int]], bool]) -> None:
        self.dims = dims
        self.predicate = predicate

    def bounding_box(self) -> Box | None:
        return None

    def contains_point(self, point: Sequence[int]) -> bool:
        return self.predicate(point)

    def intersects_box(self, lo: Sequence[int], hi: Sequence[int]) -> bool:
        return True


class DecimalEncoder(Encoder):
    """Fixed-point decimals in ``[lo, hi]`` at ``scale`` digits (lossy).

    ``encode`` rounds to the nearest code, so values closer together
    than ``10**-scale`` share one: 0.054 at ``scale=2`` lands in the code
    of 0.05 and would pass an encoded box whose upper bound is 0.05.
    The tests' lossy numeric encoder for the access path's drop rule.
    """

    lossless = False

    def __init__(self, lo: float, hi: float, scale: int = 2) -> None:
        if lo > hi:
            raise ValueError("empty decimal domain")
        self.factor = 10**scale
        self.lo_scaled = round(lo * self.factor)
        self.hi_scaled = round(hi * self.factor)
        self.bits = max(1, (self.hi_scaled - self.lo_scaled).bit_length())

    def encode(self, value) -> int:
        scaled = round(float(value) * self.factor)
        if not self.lo_scaled <= scaled <= self.hi_scaled:
            raise ValueError(f"{value} outside encoded decimal domain")
        return scaled - self.lo_scaled

    def decode(self, code: int) -> float:
        return (code + self.lo_scaled) / self.factor


def c_scan(pages: int, params: CostParameters = SECTION_4_PARAMS) -> float:
    """``c_scan(k) = ⌈k/C⌉·t_π + max(k, C)·t_τ`` — k consecutive pages."""
    if pages <= 0:
        return 0.0
    seeks = math.ceil(pages / params.prefetch)
    return seeks * params.t_pi + max(pages, params.prefetch) * params.t_tau


def search(tree, key):
    """All values a B+-tree stores under ``key`` (priced: one random
    leaf read; ties are never split across leaves)."""
    leaf_id, _, _, _ = tree._locate(key)
    leaf = tree._fetch(leaf_id, charge=True)
    return [value for stored, value in leaf.records if stored == key]


def leaves(tree):
    """A B+-tree's leaf chain left to right, unpriced."""
    page_id = tree.first_leaf_id
    while page_id is not None:
        leaf = tree.disk.peek(page_id)
        yield leaf
        page_id = leaf.payload["next"]


def point_query(ubtree, point):
    """Payloads of all tuples a UB-Tree stores exactly at ``point``."""
    stored = search(ubtree.tree, ubtree.space.z_address(point))
    return [payload for at, payload in stored if at == tuple(point)]


def run_entries(result):
    """A ``scan_page_run`` result as ``(count, [[key, row], ...])``,
    whichever backend's run it holds."""
    count, run = result
    if isinstance(run, tuple):  # a NumPy run: (keys, rows) arrays
        run = zip(run[0].tolist(), run[1].tolist())
    return count, [list(entry) for entry in run]


def rows_of(batches):
    """The rows of a batched stream (a range query's or a heap scan's
    pages), in order, as one list."""
    return [row for batch in batches for row in batch]


def insert_all(tree, rows):
    """Insert ``(point, payload)`` rows one at a time (no bulk load)."""
    for point, payload in rows:
        tree.insert(point, payload)


def read_seeks(stats):
    """Random read positionings over every category of an ``IOStats``."""
    return sum(category.read_seeks for category in stats.categories.values())


def write_seeks(stats):
    """Random write positionings over every category of an ``IOStats``."""
    return sum(category.write_seeks for category in stats.categories.values())


def allocated_pages(disk):
    """Pages allocated on the simulated disk at the bottom of a stack."""
    while hasattr(disk, "inner"):
        disk = disk.inner
    return len(disk._pages)


@contextmanager
def injecting(disk):
    """``with injecting(disk):`` — arm a ``FaultyDisk`` for a block."""
    disk.arm()
    try:
        yield disk
    finally:
        disk.disarm()


def corrupt_replica(disk, page_id, slot=0):
    """Rot one replica copy of a ``ReplicatedDisk`` page: its checksum
    stops matching."""
    slots = disk._replicas.get(page_id)
    if slots is None or not 0 <= slot < len(slots):
        raise KeyError(f"no replica slot {slot} for page {page_id}")
    old = slots[slot]
    slots[slot] = replace(
        old, records=(*old.records, ("__replica_rot__", page_id, slot))
    )


def set_enabled(flag):
    """Turn invariant checking on or off; returns the previous state."""
    previous = invariants._enabled
    invariants._enabled = bool(flag)
    return previous


@contextmanager
def checks(flag=True):
    """Temporarily enable (or disable) invariant checking."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


@contextmanager
def actor(name):
    """Run the body as the named virtual actor of the sanitizer: a
    seeded schedule drives several from one OS thread, so a racy
    interleaving replays from the seed alone."""
    stack = getattr(sanitizer._tls, "actors", None)
    if stack is None:
        stack = sanitizer._tls.actors = []
    stack.append(name)
    try:
        yield name
    finally:
        stack.pop()


def declared_lock_order():
    """The currently declared global lock order."""
    return sanitizer._declared_order


class _Tree:
    """A tree whose structure moves only when a test says so."""

    structure_epoch = 0


def page_cursor(page_ids: Iterable[int]) -> "tuple[RegionCursor, list[Any]]":
    """A :class:`RegionCursor` over one single-address region per page,
    in the given order, and the log of its schedule calls: the read
    set Φ of each schedule taken.  Moving
    ``cursor.tree.structure_epoch`` makes the next pull or peek take it
    again; the schedule leaves out the regions inside ``read``."""
    entries = [
        (index, index, page_id, index + 1)
        for index, page_id in enumerate(page_ids)
    ]
    if entries:
        entries[-1] = entries[-1][:3] + (None,)
    calls: list[Any] = []

    def schedule(read):
        calls.append(read)
        return [entry for entry in entries if not read.containing(entry[0])]

    return RegionCursor(_Tree(), schedule), calls


def event_point_order(
    ubtree, space: QuerySpace, sort_dims, pushdown: "QuerySpace | None" = None
) -> list[int]:
    """Page ids in the order the paper's event-point sweep (Figure 3-7)
    retrieves them: the order every Tetris scan is held to.

    Index-only: the retrieved space Φ is a set of merged Z-intervals,
    and the next event point ``min { T_j(x) | x ∈ Q, x ∉ Φ }`` is
    advanced with BIGMIN (``Curve.next_in_box``), skipping retrieved
    intervals by decomposing their complement into aligned boxes.  The
    region at an event point comes from a ``disk.peek`` descent, so the
    oracle is invisible to the pool, the I/O statistics and fault
    injection.  A region the space or the pushed-down cover rules out
    (``ZRegion.classify``) joins Φ without being read.
    """
    sort_dims = (sort_dims,) if isinstance(sort_dims, int) else tuple(sort_dims)
    return _EventPointSweep(ubtree, space, sort_dims, pushdown).page_ids()


_MISSING = object()  # sentinel distinguishing "not cached" from "cached None"


class _EventPointSweep:
    """One run of the event-point loop, with its two memos."""

    def __init__(self, ubtree, space, sort_dims, pushdown) -> None:
        self.ubtree, self.space, self.pushdown = ubtree, space, pushdown
        self.curve = ubtree.space.tetris(sort_dims)
        box = space.bounding_box()
        self.box = ubtree.space.universe_box() if box is None else box
        # next event beyond a covered interval, and the box decomposition
        # of an interval's complement (see _skip_interval)
        self.skip_cache: dict[tuple[int, int], "int | None"] = {}
        self.complement_boxes: dict[tuple[int, int], Any] = {}

    def page_ids(self) -> list[int]:
        if box_is_empty(self.box):
            return []
        lo, hi = self.box
        z_space = self.ubtree.space
        phi = IntervalSet()
        order: list[int] = []
        event = self.curve.next_in_box(0, lo, hi)
        while event is not None:
            z_address = z_space.z_address(self.curve.decode(event))
            covered = phi.containing(z_address)
            if covered is None:
                region = tree_region(self.ubtree, z_address)
                phi.add(region.first, region.last)
                covered = (region.first, region.last)
                if region.classify(z_space.z, self.space, self.pushdown)[1]:
                    order.append(region.page_id)
            event = self._skip_interval(event, covered)
        return order

    def _skip_interval(self, event: int, interval: tuple[int, int]) -> "int | None":
        """Smallest Tetris address ``> event`` in the box but outside
        the covered Z-interval.

        The complement of the interval decomposes into aligned boxes;
        BIGMIN over each (intersected with the query bounding box) yields
        candidates, and the minimum wins.  The result may still lie
        inside *another* retrieved interval; the loop then skips again.

        Two memos keep the whole sweep near-linear in the region count:
        the complement decomposition of an interval, and the computed
        next event.  Events only increase, so a cached answer ``c``
        computed at some earlier event ``t0 <= t`` with ``c > t`` is
        still the minimum beyond ``t`` — nothing of the complement lies
        in ``(t0, t]``.  When Φ merges the interval into a larger one,
        its key changes and the stale entries are never consulted again.
        """
        cached = self.skip_cache.get(interval, _MISSING)
        if cached is not _MISSING and (cached is None or cached > event):
            return cached
        decomposition = self.complement_boxes.get(interval)
        if decomposition is None:
            decomposition = self._decompose_complement(interval)
            self.complement_boxes[interval] = decomposition
        ceilings, entries, suffix_min_floor = decomposition
        # boxes whose entire Tetris range lies below the event can never
        # supply a candidate: start at the first box with ceiling >= event
        best: "int | None" = None
        for position in range(bisect_left(ceilings, event), len(entries)):
            floor, clamped_lo, clamped_hi = entries[position]
            if best is not None and best <= suffix_min_floor[position]:
                break
            if best is not None and best <= floor:
                continue
            candidate = self.curve.next_in_box(event, clamped_lo, clamped_hi)
            if candidate is not None and (best is None or candidate < best):
                best = candidate
        self.skip_cache[interval] = best
        return best

    def _decompose_complement(self, interval: tuple[int, int]):
        """Aligned boxes of the interval's complement, clamped to the
        query bounding box, sorted by their *maximal* Tetris address:
        ``(ceilings, entries, suffix_min_floor)`` with ``entries[i] =
        (floor_i, lo_i, hi_i)`` and ``suffix_min_floor[i]`` the smallest
        floor among ``entries[i:]``, the early exit of the candidate scan.
        """
        lo, hi = self.box
        curve = self.curve
        z_curve = self.ubtree.space.z
        first, last = interval
        pieces: list[tuple[int, int]] = []
        if first > 0:
            pieces.append((0, first - 1))
        if last < z_curve.address_max:
            pieces.append((last + 1, z_curve.address_max))
        raw = []
        for piece_first, piece_last in pieces:
            for box_lo, box_hi in z_curve.interval_boxes(piece_first, piece_last):
                clamped_lo = tuple(max(a, b) for a, b in zip(box_lo, lo))
                clamped_hi = tuple(min(a, b) for a, b in zip(box_hi, hi))
                if any(a > b for a, b in zip(clamped_lo, clamped_hi)):
                    continue
                raw.append(
                    (
                        curve.encode_unchecked(clamped_hi),
                        curve.encode_unchecked(clamped_lo),
                        clamped_lo,
                        clamped_hi,
                    )
                )
        raw.sort(key=lambda entry: entry[0])
        ceilings = [entry[0] for entry in raw]
        entries = [(floor, lo_c, hi_c) for _, floor, lo_c, hi_c in raw]
        suffix_min_floor: list[int] = [0] * len(entries)
        running = None
        for position in range(len(entries) - 1, -1, -1):
            floor = entries[position][0]
            running = floor if running is None else min(running, floor)
            suffix_min_floor[position] = running
        return ceilings, entries, suffix_min_floor


def reset_sanitizer():
    """Drop all recorded clocks, edges and accesses (test isolation)."""
    state = sanitizer._state
    with state.mutex:
        state.actor_clocks.clear()
        state.lock_edges.clear()
        state.last_access.clear()
        state.order_checks = 0
        state.race_checks = 0


def sanitizer_counters():
    """How many order/race checks have run (overhead accounting)."""
    state = sanitizer._state
    with state.mutex:
        return {
            "order_checks": state.order_checks,
            "race_checks": state.race_checks,
            "lock_edges": len(state.lock_edges),
            "tracked_fields": len(state.last_access),
        }


# ----------------------------------------------------------------------
# row-at-a-time joins: the reference the batched joins must replay
# ----------------------------------------------------------------------
def _advised(rows, prefetch, side):
    """Yield ``rows``, telling the coordinator which side each pull demands."""
    iterator = iter(rows)
    while True:
        prefetch.advise(side)
        try:
            row = next(iterator)
        except StopIteration:
            return
        yield row


class _RowJoin:
    """The join wrapper as it was before joins took batches: one row per
    pull from each input, the coordinator advised before every pull, and
    one :class:`JoinEvent` on natural drain.  Not an operator: a consumer
    reads it as a plain iterable, one row at a time."""

    kind = "join"

    def __init__(self, *, disk=None, prefetch=None, shard=None):
        self.disk = disk
        self.prefetch = prefetch
        self.shard = shard
        self.last_event = None

    def _side(self, rows: Iterable[Any], side: int) -> Iterable[Any]:
        if self.prefetch is None:
            return rows
        return _advised(rows, self.prefetch, side)

    def __iter__(self) -> Iterator[Any]:
        disk = self.disk
        start = disk.clock if disk is not None else None
        first = None
        rows = 0
        try:
            for row in self._join():
                if rows == 0 and disk is not None:
                    first = disk.clock
                rows += 1
                yield row
        finally:
            if self.prefetch is not None:
                self.prefetch.close()
        event = JoinEvent(
            operator=self.kind,
            rows=rows,
            pages_skipped_by_pushdown=_pushdown_pages_skipped(self.left, self.right),
            start_clock=start,
            first_tuple_clock=first,
            end_clock=disk.clock if disk is not None else None,
            shard=self.shard,
        )
        self.last_event = event
        telemetry.emit(event)


class RowMergeJoin(_RowJoin):
    """:class:`~repro.relational.operators.MergeJoin`, one row per pull
    (``groupby`` reads each group to its end plus one row)."""

    kind = "merge-join"

    def __init__(self, left, right, left_key, right_key, combine=None, **options):
        super().__init__(**options)
        self.left, self.right = left, right
        self.left_key, self.right_key = left_key, right_key
        self.combine = combine or (lambda a, b: tuple(a) + tuple(b))

    def _join(self):
        left_groups = groupby(self._side(self.left, 0), key=self.left_key)
        right_groups = groupby(self._side(self.right, 1), key=self.right_key)
        left_entry = next(left_groups, None)
        right_entry = next(right_groups, None)
        while left_entry is not None and right_entry is not None:
            left_key, left_rows = left_entry
            right_key, right_rows = right_entry
            if left_key < right_key:
                left_entry = next(left_groups, None)
            elif left_key > right_key:
                right_entry = next(right_groups, None)
            else:
                buffered_right = list(right_rows)
                for left_row in left_rows:
                    for right_row in buffered_right:
                        yield self.combine(left_row, right_row)
                left_entry = next(left_groups, None)
                right_entry = next(right_groups, None)


class RowMergeSemiJoin(_RowJoin):
    """:class:`~repro.relational.operators.MergeSemiJoin`, one row per
    pull, advising the coordinator before every one."""

    kind = "merge-semi-join"

    def __init__(self, left, right, left_key, right_key, **options):
        super().__init__(**options)
        self.left, self.right = left, right
        self.left_key, self.right_key = left_key, right_key

    def _join(self):
        right_iter = iter(self._side(self.right, 1))
        right_row = next(right_iter, None)
        for left_row in self._side(self.left, 0):
            key = self.left_key(left_row)
            while right_row is not None and self.right_key(right_row) < key:
                right_row = next(right_iter, None)
            if right_row is None:
                return
            if self.right_key(right_row) == key:
                yield left_row


class RowHashJoin(_RowJoin):
    """:class:`~repro.relational.operators.HashJoin`, one row per pull."""

    kind = "hash-join"

    def __init__(self, build, probe, build_key, probe_key, combine=None, **options):
        super().__init__(**options)
        self.left, self.right = build, probe
        self.build_key, self.probe_key = build_key, probe_key
        self.combine = combine or (lambda a, b: tuple(a) + tuple(b))

    def _join(self):
        table = {}
        for row in self.left:
            table.setdefault(self.build_key(row), []).append(row)
        for probe_row in self.right:
            for build_row in table.get(self.probe_key(probe_row), ()):
                yield self.combine(build_row, probe_row)
