"""Runtime contract layer: the engine's invariants as executable checks.

The paper states correctness properties the code must uphold — Z-regions
partition the universe disjointly (Section 3.3), the Tetris sweep emits
tuples in nondecreasing sort-key order (Section 3.1), each overlapping
page is read exactly once — and the engine adds its own: B+-tree
structure, buffer-pool accounting, and observational identity of the two
kernel backends.  This package turns those contracts into validators
that run *inside* the engine when ``REPRO_CHECKS=1`` is set, and cost
one cheap boolean test per call site when disabled.

Gate
----
``enabled()`` is the single gate every call site consults::

    from .. import invariants
    ...
    if invariants.enabled():
        invariants.validate_bptree(self)

The flag is read once from the environment at import (tests flip the
module's ``_enabled`` for a block).  Validators raise :class:`InvariantViolation` (a subclass of
``AssertionError`` for compatibility with older callers) and are *never*
stripped by ``python -O`` — that is the point: ``reprolint`` rule R005
bans bare ``assert`` for data-dependent invariants, and this layer is
the sanctioned replacement.

Validators
----------
* :func:`validate_bptree` / :func:`validate_leaf` — key ordering,
  separator containment, arity, balance, occupancy, leaf-chain
  completeness (:mod:`repro.invariants.structural`).
* :func:`validate_ubtree` — Z-region disjointness and coverage of the
  universe, stored-address consistency, record-count bijection.
* :func:`validate_buffer_pool` — hit/miss/lookup accounting, prefetch
  ledger, frame count ≤ capacity, no quarantined page resident
  (:mod:`repro.invariants.accounting`).
* :class:`StreamChecker` — Tetris output monotonicity in the sort
  dimension(s) and query-space membership
  (:mod:`repro.invariants.streams`).
* :class:`MergeChecker` — an external-sort merge reads chunks whose
  stored keys are their rows' keys and emits ``(key, run, position)``
  order (:mod:`repro.invariants.streams`).
* :class:`FetchOnceChecker` — each data page is fetched at most once
  per Tetris scan, read-ahead included (:mod:`repro.invariants.paper`).
* :func:`check_page_run` — a sweep's ``scan_page_run`` equals the
  *other* backend's on the same page, on count, selection, keys and
  arrival orders (:mod:`repro.invariants.parity`).
* :func:`check_page_fold` — an aggregate's ``sum_products`` over a range
  query's page equals the *other* backend's on the same page and
  selection (:mod:`repro.invariants.parity`).
* :class:`ScheduleChecker` — holds a batched region schedule to the
  scalar BIGMIN walk, the tree's own descent (read with ``disk.peek``),
  pruning tests and keys it replaces, without extra I/O
  (:mod:`repro.invariants.parity`).
* :class:`SliceChecker` — the keys a sweep hands out with its slices
  equal the paper's ``T_j(x)`` (``ZSpace.tetris_address``, computed
  without the sweep's bit schedule) row for row and ascend within and
  across slices (:mod:`repro.invariants.parity`).
* :func:`validate_wal` / :func:`validate_replicated_disk` — write-ahead
  log structure (dense LSNs, serial batches, mirror/device agreement)
  and replica-store consistency (:mod:`repro.invariants.durability`).
* :func:`validate_sharded_database` — shard slabs partition the shard
  dimension and every copy of a shard holds the same rows
  (:mod:`repro.invariants.sharding`).
* :func:`validate_txn_log` — 2PC decision-log structure (prepare →
  decision → ack, once each, legal verdicts) and the no-unilateral-
  commit cross-check against every participant WAL
  (:mod:`repro.invariants.txn`).
"""

from __future__ import annotations

import os
from typing import Any, TypeVar

from . import sanitizer as sanitizer
from .accounting import validate_buffer_pool
from .durability import validate_replicated_disk, validate_wal
from .errors import InvariantViolation, check
from .paper import CoverageChecker, FetchOnceChecker
from .parity import (
    ScheduleChecker,
    SliceChecker,
    check_page_fold,
    check_page_run,
)
from .sanitizer import (
    GLOBAL_LOCK_ORDER,
    LockOrderViolation,
    RaceViolation,
    TrackedLock,
    declare_lock_order,
    guarded_by,
    note_access,
    tracked_lock,
)
from .sharding import validate_sharded_database
from .streams import MergeChecker, StreamChecker
from .structural import validate_bptree, validate_leaf, validate_ubtree
from .txn import validate_txn_log

__all__ = [
    "CoverageChecker",
    "FetchOnceChecker",
    "GLOBAL_LOCK_ORDER",
    "InvariantViolation",
    "LockOrderViolation",
    "MergeChecker",
    "RaceViolation",
    "ScheduleChecker",
    "SliceChecker",
    "StreamChecker",
    "TrackedLock",
    "check",
    "check_page_fold",
    "check_page_run",
    "declare_lock_order",
    "enabled",
    "guarded_by",
    "note_access",
    "require_instance",
    "sanitizer",
    "tracked_lock",
    "validate_bptree",
    "validate_buffer_pool",
    "validate_leaf",
    "validate_replicated_disk",
    "validate_sharded_database",
    "validate_txn_log",
    "validate_ubtree",
    "validate_wal",
]

_TRUTHY = frozenset({"1", "true", "on", "yes"})

_enabled: bool = os.environ.get("REPRO_CHECKS", "").strip().lower() in _TRUTHY


def enabled() -> bool:
    """Whether runtime invariant checking is on (``REPRO_CHECKS=1``)."""
    return _enabled


# The sanitizer consults the same gate as every other validator; it is
# installed after ``enabled`` exists to avoid a circular import.
sanitizer._set_gate(enabled)


_T = TypeVar("_T")


def require_instance(obj: Any, cls: type[_T], context: str) -> _T:
    """``obj`` narrowed to ``cls``, or a ``TypeError`` naming the contract.

    The explicit replacement for dispatch-guard ``assert isinstance``
    statements (reprolint R005): survives ``python -O`` and tells the
    caller which plan/operator contract was broken.
    """
    if not isinstance(obj, cls):
        raise TypeError(
            f"{context} requires a {cls.__name__}, got {type(obj).__name__}"
        )
    return obj
