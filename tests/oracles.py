"""Test-side references for engine surfaces no entry point uses.

The engine keeps only what something outside ``tests/`` runs (see
``tools/census``).  What the tests alone need — an opaque predicate
space, a lossy decimal encoder, the paper's scan cost formula, structure
walks, the invariant switch, the sanitizer's virtual actors and the
row-at-a-time joins the batched ones replay — lives here, reading engine
state (private attributes included) directly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from itertools import groupby
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro import invariants, telemetry
from repro.core.query_space import Box, QuerySpace
from repro.core.region import RegionCursor
from repro.costmodel import SECTION_4_PARAMS, CostParameters
from repro.invariants import sanitizer
from repro.relational.operators.base import Operator
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
    in the given order, and the log of its schedule calls: one
    ``(read, resume)`` pair per schedule taken.  Moving
    ``cursor.tree.structure_epoch`` makes the next pull or peek take it
    again; the schedule leaves out the regions inside ``read``."""
    entries = [
        (index, index, page_id, index + 1)
        for index, page_id in enumerate(page_ids)
    ]
    if entries:
        entries[-1] = entries[-1][:3] + (None,)
    calls: list[Any] = []

    def schedule(read, resume):
        calls.append((read, resume))
        return [entry for entry in entries if not read.containing(entry[0])]

    return RegionCursor(_Tree(), schedule), calls


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


class _RowJoin(Operator):
    """The join wrapper as it was before joins took batches: one row per
    pull from each input, the coordinator advised before every pull, and
    one :class:`JoinEvent` on natural drain."""

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
