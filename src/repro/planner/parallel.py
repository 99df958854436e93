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

Executors
---------
Two ways to run the slabs, selected by :func:`select_executor` (policy
``auto``, overridable via the ``executor=`` argument):

``threads``
    One ``ThreadPoolExecutor`` task per slab, *whole-slab batched*: the
    coordinator stages a slab's pages under a lock (the buffer pool and
    the page memos are not thread-safe), then the worker runs one
    ``scan_block`` call over the entire slab, which returns the slab's
    ``(point, payload)`` stream.  On NumPy that call merges the pages'
    memoized sorted runs and gathers their memoized pairs in big-array
    steps that release the GIL, so slabs overlap on real cores with zero
    serialization.  The default for the ``numpy`` backend.

``inline``
    The slabs run sequentially in the caller (still whole-slab batched).
    Selected by ``auto`` for ``workers <= 1`` and on the pure backend
    (its bytecode holds the GIL, so threads buy nothing there), and as
    the fallback when a requested parallel executor cannot run (fewer
    than two workers, a single planned slab) — every downgrade is
    recorded as a structured :class:`ExecutorFallbackEvent` on the
    result and emitted on the :mod:`repro.telemetry` bus, mirroring the
    plan-degradation events of :mod:`repro.planner.executor`; nothing
    falls back silently.

Whichever executor runs, the concatenated stream is bit-identical; only
wall-clock time and observability differ.  With ``REPRO_CHECKS=1`` each
slab's stream is held to the other kernel backend's
(:func:`repro.invariants.check_block`) and the concatenation is observed
by one :class:`~repro.invariants.StreamChecker` over the whole query
space, so slab chunks out of order fail too.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from .. import invariants, kernels, telemetry
from ..core.query_space import QueryBox, QuerySpace, box_is_empty
from ..core.tetris import SortedTuple, TetrisScan
from ..invariants.sanitizer import tracked_lock
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

_EXECUTORS = ("auto", "threads", "inline")

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

    requested: str  #: executor asked for ("threads", "auto", ...)
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

    ``auto`` picks ``threads`` for the NumPy backend (vectorized kernels
    release the GIL) and ``inline`` for the pure backend (its bytecode
    holds the GIL, so threads would only take turns).  An explicit
    ``threads`` request with fewer than two workers degrades to
    ``inline`` and returns the :class:`ExecutorFallbackEvent` describing
    the downgrade, as does a request for the removed ``"fork"`` executor.
    ``auto`` selecting ``inline`` is silent (that is the policy deciding,
    not a fallback; explicit requests are never downgraded silently).
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
    if requested == "inline" or (requested == "auto" and workers <= 1):
        return "inline", None
    if workers <= 1:
        return "inline", ExecutorFallbackEvent(
            requested=requested,
            selected="inline",
            reason="parallel execution needs at least 2 workers",
            backend=backend_name,
            workers=workers,
        )
    if requested == "threads" or backend_name == "numpy":
        return "threads", None
    return "inline", None


@dataclass
class ParallelScanResult:
    """The concatenated, order-exact stream of a slab-parallel sweep."""

    slabs: list[SweepSlab]
    per_slab_counts: list[int]
    rows: list[SortedTuple]
    workers: int  #: workers actually used (1 = ran inline)
    executor: str = "inline"  #: executor that ran ("threads" or "inline")
    fallbacks: tuple[ExecutorFallbackEvent, ...] = ()
    #: bytes serialized per slab: zero, both executors being zero-copy;
    #: ``None`` when not measured
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
# whole-slab batched execution (threads / inline)
# ----------------------------------------------------------------------
def _stage_slab(
    table: UBTable, space: QuerySpace, sort_dims: "tuple[int, ...]"
) -> "tuple[TetrisScan, list[Any]]":
    """Fetch one slab's pages in retrieval order (coordinator-only).

    The pages come through the scan's page walk (``UBTree.walk``), the
    one read path of a restricted scan — read-ahead and the
    ``REPRO_CHECKS=1`` fetch-once and coverage checks included — drained
    here, under the staging lock: the buffer pool, the region cursor and
    the backend's page memos are not thread-safe.  The NumPy backend's
    memos — each page's columns and its sorted run on the scan's curve,
    keys and ``(point, payload)`` rows — are primed here
    (``prime_page_columns``), so the compute phase writes none.  The
    returned pages are plain references — eviction cannot invalidate
    them — so the compute phase needs no locking at all.
    """
    scan = TetrisScan(table.ubtree, space, sort_dims)
    pages = [page for _, page in table.ubtree.walk(scan.cursor, scan.space)]
    # the memos are built GIL-bound anyway, so priming them here costs
    # no parallelism
    prime = getattr(kernels.get_backend(), "prime_page_columns", None)
    if prime is not None:
        for page in pages:
            prime(page, scan.tetris_curve)
    return scan, pages


def _scan_block_rows(scan: TetrisScan, pages: "list[Any]") -> list[SortedTuple]:
    """One slab's stream: one whole-slab ``scan_block`` call.

    The kernel returns the slab's ``(point, payload)`` pairs in the
    page-at-a-time sweep's order, bit for bit (keys ascend, arrival
    order breaks ties — the same total order the serial run buffer
    emits); with ``REPRO_CHECKS=1`` they are held to the other backend's
    (:func:`repro.invariants.check_block`).
    """
    kernel = kernels.get_backend()
    curve, space = scan.tetris_curve, scan.space
    rows = kernel.scan_block(curve, space, pages)
    if invariants.enabled():
        invariants.check_block(kernel, curve, space, pages, rows)
    return rows


def _run_batched(
    table: UBTable,
    spaces: "list[QuerySpace]",
    sort_dims: "tuple[int, ...]",
    pool_size: int,
) -> "list[list[SortedTuple]]":
    """Threaded (or inline, ``pool_size == 1``) whole-slab execution."""
    staging_lock = tracked_lock("executor-staging")

    def run_one(index: int) -> list[SortedTuple]:
        with staging_lock:
            scan, pages = _stage_slab(table, spaces[index], sort_dims)
        return _scan_block_rows(scan, pages)

    if pool_size <= 1:
        return [run_one(index) for index in range(len(spaces))]
    with ThreadPoolExecutor(max_workers=pool_size) as executor:
        return list(executor.map(run_one, range(len(spaces))))


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
    plus the parallel knobs: ``workers`` workers execute ``slabs`` sweep
    slabs (default: one per worker) and the per-slab streams are
    concatenated in slab order.  The result is bit-identical to the
    serial scan's stream on every executor.

    ``executor`` picks the execution mode (``"auto"``, ``"threads"``,
    ``"inline"``); ``None`` means ``auto`` — see
    :func:`select_executor`.  Downgrades are recorded as
    :class:`ExecutorFallbackEvent`\\ s on the result.
    ``measure_serialization`` additionally reports the bytes serialized
    per slab (always zero: both executors are zero-copy).
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

    requested = executor or "auto"
    backend_name = kernels.get_backend().name
    selected, fallback = select_executor(requested, backend_name, workers)
    fallbacks: "tuple[ExecutorFallbackEvent, ...]" = ()
    if fallback is not None:
        fallbacks = (fallback,)
        telemetry.emit(fallback)

    planned = plan_slabs(
        space, primary, coord_max, slabs if slabs is not None else workers
    )
    if not planned:
        return ParallelScanResult(
            [], [], [], workers=1, executor="inline", fallbacks=fallbacks
        )
    spaces = [_slab_space(space, slab, primary, coord_max) for slab in planned]
    if selected != "inline" and len(planned) == 1:
        # one slab cannot overlap with anything; an explicitly requested
        # parallel executor reports the downgrade, auto decides silently
        if requested == "threads":
            event = ExecutorFallbackEvent(
                requested=requested,
                selected="inline",
                reason="the query planned a single sweep slab",
                backend=backend_name,
                workers=workers,
            )
            fallbacks = fallbacks + (event,)
            telemetry.emit(event)
        selected = "inline"

    serialized: "list[int] | None" = None
    pool_size = min(workers, len(planned)) if selected == "threads" else 1
    per_slab = _run_batched(table, spaces, sort_dims, pool_size)
    if measure_serialization:
        serialized = [0] * len(per_slab)  # zero-copy transports

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
        workers=pool_size,
        executor=selected,
        fallbacks=fallbacks,
        serialized_bytes_per_slab=serialized,
    )
