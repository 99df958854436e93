"""Slab-parallel Tetris execution: partition the sweep, keep the order.

The Tetris curve places the sort attribute's bits most significantly
(:meth:`repro.core.zorder.ZSpace.tetris`), so Tetris addresses are
ordered first by the sort value: any partition of the sort dimension
into disjoint, contiguous value intervals — *sweep slabs* — partitions
the output stream into contiguous chunks.  Running one independent
Tetris sweep per slab and concatenating the per-slab streams in slab
order therefore reproduces the serial stream **bit for bit**:

* every tuple lands in exactly one slab (the intervals cover the query
  box's sort range and are disjoint);
* across slabs, every Tetris key in slab ``i`` is smaller than every key
  in slab ``i+1`` (the sort value majorizes the key);
* within a slab, the restricted sweep visits the slab's regions in the
  same relative order as the global sweep (region keys are static), and
  duplicates of one point live on one Z-region page, so even the
  arrival-order tiebreak is preserved.

Execution
---------
Every slab runs in the caller, one after another, *whole-slab batched*:
the slab's :class:`~repro.core.tetris.TetrisScan` drains the scan's page
walk (``UBTree.walk``, the one read path of a restricted scan —
read-ahead and the ``REPRO_CHECKS=1`` fetch-once and coverage checks
included), then one ``scan_block`` call returns the slab's
``(point, payload)`` stream.  On NumPy that call merges the pages'
memoized sorted runs and gathers their memoized rows in big-array steps.
``workers=`` only sets the default slab count (one slab per worker).

:func:`select_executor` resolves the ``executor=`` argument: ``auto``
and ``inline`` both run the slabs in the caller, a request for the
removed ``"fork"`` executor is answered with a structured
:class:`ExecutorFallbackEvent` on the result and on the
:mod:`repro.telemetry` bus (never silently), and any other string is
rejected.

The concatenated stream is bit-identical to the serial scan's.  With
``REPRO_CHECKS=1`` each slab's stream is held to the other kernel
backend's (:func:`repro.invariants.check_block`) and the concatenation
is observed by one :class:`~repro.invariants.StreamChecker` over the
whole query space, so slab chunks out of order fail too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .. import invariants, kernels, telemetry
from ..core.query_space import QueryBox, QuerySpace, box_is_empty
from ..core.tetris import SortedTuple, TetrisScan
from ..relational.table import UBTable
from ..telemetry import TelemetryEvent, compat_aliases

__all__ = [
    "ExecutorFallbackEvent",
    "ParallelScanResult",
    "SweepSlab",
    "aligned_shard_slabs",
    "parallel_tetris_scan",
    "plan_slabs",
    "select_executor",
]

_EXECUTORS = ("auto", "inline")

@dataclass(frozen=True)
class SweepSlab:
    """One contiguous sort-value interval of a partitioned sweep."""

    index: int
    lo: int  #: inclusive encoded lower bound on the sort attribute
    hi: int  #: inclusive encoded upper bound on the sort attribute


@dataclass(frozen=True)
class ExecutorFallbackEvent(TelemetryEvent):
    """One executor-selection downgrade, reported to the caller.

    Mirrors :class:`repro.planner.executor.DegradationEvent` (both
    extend :class:`repro.telemetry.TelemetryEvent`): a structured
    record that a requested execution mode was not honoured, observable
    on the :class:`ParallelScanResult` and on the :mod:`repro.telemetry`
    bus — never a silent downgrade.
    """

    requested: str  #: executor asked for ("fork")
    selected: str  #: executor actually used
    reason: str  #: why the requested one was not honoured
    backend: str  #: kernel backend name at selection time
    workers: int  #: workers requested

    def describe(self) -> str:
        return (
            f"parallel scan requested the {self.requested!r} executor but "
            f"ran {self.selected!r} ({self.reason}; backend "
            f"{self.backend!r}, {self.workers} workers)"
        )


# Kept only for the frozen benchmark harness; deleted by the harness-v2 PR.
register_fallback_observer, unregister_fallback_observer = compat_aliases(
    ExecutorFallbackEvent
)


def select_executor(
    requested: str, backend_name: str, workers: int
) -> "tuple[str, ExecutorFallbackEvent | None]":
    """Resolve the executor policy to a concrete executor.

    ``auto`` and ``inline`` both run the slabs in the caller.  A request
    for the removed ``"fork"`` executor also runs inline and returns the
    :class:`ExecutorFallbackEvent` describing the downgrade; any other
    string raises :class:`ValueError`.
    """
    if requested == "fork":
        # not an executor any more: answered, not rejected, only because
        # the frozen benchmark harness's traced probe still asks for it
        return "inline", ExecutorFallbackEvent(
            requested="fork",
            selected="inline",
            reason="process execution was removed from the engine",
            backend=backend_name,
            workers=workers,
        )
    if requested not in _EXECUTORS:
        raise ValueError(
            f"unknown executor {requested!r}; expected one of "
            f"{', '.join(_EXECUTORS)}"
        )
    return "inline", None


@dataclass
class ParallelScanResult:
    """The concatenated, order-exact stream of a slab-parallel sweep."""

    slabs: list[SweepSlab]
    per_slab_counts: list[int]
    rows: list[SortedTuple]
    fallbacks: tuple[ExecutorFallbackEvent, ...] = ()
    #: bytes serialized per slab: zero, the slabs running in the
    #: caller's memory; ``None`` when not measured
    serialized_bytes_per_slab: "list[int] | None" = None

    def __len__(self) -> int:
        return len(self.rows)


def plan_slabs(
    space: QuerySpace, sort_dim: int, coord_max: Sequence[int], slabs: int
) -> list[SweepSlab]:
    """Split the query's sort-dimension range into ``slabs`` intervals.

    The intervals are disjoint, contiguous and cover the bounding box's
    sort range exactly; fewer than ``slabs`` come back when the range is
    narrower than the requested slab count.  An empty query yields no
    slabs.
    """
    if slabs < 1:
        raise ValueError("slab count must be >= 1")
    box = space.bounding_box()
    if box is None:
        lo, hi = 0, coord_max[sort_dim]
    else:
        if box_is_empty(box):
            return []
        lo, hi = box[0][sort_dim], box[1][sort_dim]
    span = hi - lo + 1
    count = min(slabs, span)
    width = -(-span // count)
    planned: list[SweepSlab] = []
    start = lo
    for index in range(count):
        end = min(start + width - 1, hi)
        planned.append(SweepSlab(index, start, end))
        if end >= hi:
            break
        start = end + 1
    return planned


def aligned_shard_slabs(
    left: Sequence[SweepSlab], right: Sequence[SweepSlab]
) -> tuple[SweepSlab, ...]:
    """Validate two shard partitionings are join-key aligned; return them.

    A co-partitioned merge join is only order- and group-preserving when
    both relations are range-sharded on *identical* encoded join-key
    intervals — then every equal-key group lives in exactly one shard
    pair and per-shard joins concatenate into the serial join.  The two
    sides' slab lists must therefore match interval-for-interval (which
    :func:`plan_slabs` guarantees when both sides share the join key's
    encoder domain and shard count).  Raises :class:`ValueError` on any
    mismatch.
    """
    if len(left) != len(right):
        raise ValueError(
            f"shard counts differ: {len(left)} vs {len(right)} — the "
            "join sides are not co-partitioned"
        )
    for slab_a, slab_b in zip(left, right):
        if (slab_a.lo, slab_a.hi) != (slab_b.lo, slab_b.hi):
            raise ValueError(
                f"shard {slab_a.index} key ranges differ: "
                f"[{slab_a.lo}, {slab_a.hi}] vs [{slab_b.lo}, {slab_b.hi}]"
                " — the join sides are not co-partitioned"
            )
    return tuple(left)


def _slab_space(
    space: QuerySpace, slab: SweepSlab, sort_dim: int, coord_max: Sequence[int]
) -> QuerySpace:
    """The query space restricted to one slab's sort-value interval."""
    if isinstance(space, QueryBox):
        return space.restricted(sort_dim, slab.lo, slab.hi)
    return space.intersect(
        QueryBox.full(coord_max).restricted(sort_dim, slab.lo, slab.hi)
    )


# ----------------------------------------------------------------------
# the entry point
# ----------------------------------------------------------------------
def parallel_tetris_scan(
    table: UBTable,
    space: "QuerySpace | dict[str, tuple[Any, Any]] | None",
    sort_attr: "str | Sequence[str]",
    *,
    workers: int = 2,
    slabs: int | None = None,
    executor: str | None = None,
    measure_serialization: bool = False,
) -> ParallelScanResult:
    """Run a Tetris sweep as ``slabs`` independent slab sweeps.

    Parameters mirror :meth:`~repro.relational.table.UBTable.tetris_scan`
    plus ``slabs`` sweep slabs (default: ``workers``, one per worker),
    run in the caller one after another; the per-slab streams are
    concatenated in slab order, bit-identical to the serial scan's.

    ``executor`` is resolved by :func:`select_executor` (``None`` means
    ``auto``); a downgrade is recorded as an
    :class:`ExecutorFallbackEvent` on the result.
    ``measure_serialization`` additionally reports the bytes serialized
    per slab (always zero: nothing leaves the caller's memory).
    """
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    if space is None or isinstance(space, dict):
        space = table.build_query_box(space)
    sort_names = (sort_attr,) if isinstance(sort_attr, str) else tuple(sort_attr)
    if not sort_names:
        raise ValueError("at least one sort attribute required")
    sort_dims = tuple(table.dims.index(attr) for attr in sort_names)
    primary = sort_dims[0]
    coord_max = table.space.coord_max

    kernel = kernels.get_backend()
    _, fallback = select_executor(executor or "auto", kernel.name, workers)
    fallbacks: "tuple[ExecutorFallbackEvent, ...]" = ()
    if fallback is not None:
        fallbacks = (fallback,)
        telemetry.emit(fallback)

    planned = plan_slabs(
        space, primary, coord_max, slabs if slabs is not None else workers
    )
    per_slab: list[list[SortedTuple]] = []
    for slab in planned:
        scan = TetrisScan(
            table.ubtree, _slab_space(space, slab, primary, coord_max), sort_dims
        )
        pages = [page for _, page in table.ubtree.walk(scan.cursor, scan.space)]
        curve = scan.tetris_curve
        chunk = kernel.scan_block(curve, scan.space, pages)
        if invariants.enabled():
            invariants.check_block(kernel, curve, scan.space, pages, chunk)
        per_slab.append(chunk)

    rows: list[SortedTuple] = []
    for chunk in per_slab:
        rows.extend(chunk)
    if invariants.enabled():
        # one checker across the slabs: chunks out of order fail here
        checker = invariants.StreamChecker(sort_dims, space)
        for point, _payload in rows:
            checker.observe(point)
    return ParallelScanResult(
        slabs=planned,
        per_slab_counts=[len(chunk) for chunk in per_slab],
        rows=rows,
        fallbacks=fallbacks,
        serialized_bytes_per_slab=[0] * len(per_slab)
        if measure_serialization
        else None,
    )
