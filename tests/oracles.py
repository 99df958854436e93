"""Test-side references for engine surfaces no entry point uses.

The engine keeps only what something outside ``tests/`` runs (see
``tools/census``).  What the tests alone need — an opaque predicate
space, a lossy decimal encoder, the paper's scan cost formula, structure
walks, the invariant switch and the sanitizer's virtual actors — lives
here, reading engine state (private attributes included) directly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Sequence

from repro import invariants
from repro.core.query_space import Box, QuerySpace
from repro.costmodel import SECTION_4_PARAMS, CostParameters
from repro.invariants import sanitizer
from repro.relational.schema import Encoder


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
    """The rows of a page-batched range query, in order, as one list."""
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
