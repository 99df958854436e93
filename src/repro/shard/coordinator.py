"""Range-sharded Tetris engine with chaos-grade shard failover.

:class:`ShardedDatabase` splits one logical UB-tree table into ``k``
range shards along a designated index dimension — the interval planning
is the parallel executor's :func:`~repro.planner.parallel.plan_slabs`,
applied to the full attribute domain instead of one query's range — and
gives each shard ``r`` *copies*, every copy a fully independent engine
instance: own :class:`~repro.storage.disk.SimulatedDisk`, own buffer
pool, own optional WAL and fault plan.  A shard is the fault domain;
its copies are loaded from the same row stream in the same order, so
they hold bit-identical pages (same page ids, same contents) — the
property that makes cross-copy page repair exact.

The coordinator's restricted sorted scan scatters the query to every
overlapping shard, collects each shard's stream slice by slice — rows
next to the *full* tetris-curve addresses the sweep ordered them by —
and k-way-merges the streams (:mod:`repro.shard.merge`).  Because a
tuple lives in exactly one shard and duplicate points share a page, the
merged stream is bit-identical to the unsharded scan for any sort
attribute.

Robustness is a ladder, climbed per shard and logged one
:class:`~repro.shard.events.ShardDegradationEvent` per rung:

1. **repair** — quarantined pages are healed bit-exactly from a healthy
   peer copy (the shard-level analogue of replica repair);
2. **retry** — transient and corrupt read faults are retried on the
   same copy after an exponential backoff charged to its clock;
3. **failover** — the copy is quarantined and the scan resumes on the
   next healthy copy from the exact residual range (no re-emission,
   no loss: the resume point is the last emitted curve address);
4. **abandon / fail** — with no copy left, the shard's contribution is
   dropped and its range recorded as failed (``allow_partial=True``) or
   the scan raises a typed :class:`~repro.shard.errors.ShardFailedError`.
   Never silent wrong rows.

With ``wal=True`` every copy is also a **two-phase-commit participant**:
a :class:`~repro.txn.TransactionCoordinator` attaches via
:meth:`ShardedDatabase.attach_coordinator` and drives each
:class:`ShardCopy`'s ``txn_begin`` … ``txn_recover``, making bulk loads
and insert batches atomic across all ``k × r`` independent WALs.  A
copy's table joins its WAL batch, so the batch's own rollback restores
the tree descriptors along with the pages on every abort path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .. import invariants, telemetry
from ..core.query_space import QueryBox, QuerySpace
from ..core.tetris import SortedTuple
from ..core.zorder import ZSpace
from ..planner.parallel import SweepSlab, aligned_shard_slabs, plan_slabs
from ..relational.operators.base import Operator
from ..relational.operators.join import MergeJoin, MergeSemiJoin
from ..relational.schema import Schema
from ..relational.table import Database, Row, UBTable
from ..telemetry import JoinEvent
from ..storage.disk import DiskParameters, disk_layers
from ..storage.errors import (
    CorruptPageError,
    StorageError,
    TransientIOError,
    ensure_page_integrity,
)
from ..storage.faults import FaultPlan, FaultyDisk
from ..storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy, charge_backoff
from ..storage.wal import RecoveryReport, WALRecord, WriteAheadLog
from .errors import ShardCopyKilledError, ShardFailedError
from .events import ShardDegradationEvent
from .merge import KeyedStream, merge_shard_streams

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..txn import TransactionCoordinator

_payload = itemgetter(1)  # of a ``(point, payload)`` tuple

__all__ = [
    "CoPartitionedJoin",
    "RowSource",
    "Shard",
    "ShardCopy",
    "ShardedDatabase",
    "ShardedJoinResult",
    "ShardedScanResult",
]

#: Rows to load: a re-iterable sequence, or a zero-argument factory that
#: regenerates the stream — the streaming path, O(batch) memory, called
#: once per (shard, copy) loading pass.
RowSource = Callable[[], Iterable[Row]] | Sequence[Row]


def _row_factory(source: RowSource) -> Callable[[], Iterable[Row]]:
    if callable(source):
        return source
    rows: Sequence[Row] = source
    return lambda: rows


#: ladder rungs one shard may climb in one scan or join leg before its
#: range is given up
MAX_DEGRADATIONS = 16

#: a crash device's (append count, arm a crash after n more appends)
CrashHook = tuple[Callable[[], int], Callable[[int], None]]


def _copy_name(shard_index: int, copy_index: int) -> str:
    return f"shard{shard_index}.copy{copy_index}"


class ShardCopy:
    """One independent engine instance holding one shard's rows.

    With a WAL it is also a two-phase-commit participant: the ``txn_*``
    methods are the state machine a :class:`~repro.txn
    .TransactionCoordinator` drives (R015 bans any other driver), and
    :meth:`crash_hooks` its surface for the crash-schedule explorer.
    """

    def __init__(
        self, shard_index: int, copy_index: int, db: Database, table: UBTable
    ) -> None:
        self.shard_index = shard_index
        self.copy_index = copy_index
        self.db = db
        self.table = table
        #: killed copies never serve again (process death, not data loss)
        self.alive = True
        #: cleared by the coordinator when the ladder gives up on a copy
        self.healthy = True
        self.rows_served = 0
        self._kill_at: int | None = None

    @property
    def name(self) -> str:
        """``shardN.copyM``: the participant's name in rosters, telemetry
        and crash-device names."""
        return _copy_name(self.shard_index, self.copy_index)

    @property
    def available(self) -> bool:
        """Whether the coordinator may route a scan to this copy."""
        return self.alive and self.healthy

    def schedule_kill(self, after_rows: int | None) -> None:
        """Die immediately, or after serving ``after_rows`` more rows."""
        if after_rows is None:
            self.alive = False
        else:
            self._kill_at = self.rows_served + after_rows

    def serve(self, count: int) -> int:
        """Account a slice of ``count`` rows handed to the coordinator;
        returns how many of them it may deliver.

        Fewer than ``count`` means a scheduled kill falls due inside the
        slice: the caller delivers the prefix before that row and, when
        asked for more, lets the copy :meth:`expire`.
        """
        if not self.alive:
            raise ShardCopyKilledError(
                f"shard {self.shard_index} copy {self.copy_index} is dead"
            )
        remaining = self.rows_before_kill()
        if remaining is not None:
            count = min(count, remaining)
        self.rows_served += count
        return count

    def rows_before_kill(self) -> int | None:
        """How many more rows this copy may serve before a scheduled kill
        falls due (``None`` when none is scheduled): the row that reaches
        the kill count is accounted but never delivered."""
        if self._kill_at is None:
            return None
        return max(self._kill_at - self.rows_served, 1) - 1

    def expire(self) -> ShardCopyKilledError:
        """Die on the pull that reaches the kill count: that row is
        accounted but never delivered.  Returns the error to raise."""
        self.rows_served += 1
        self.alive = False
        return ShardCopyKilledError(
            f"shard {self.shard_index} copy {self.copy_index} killed "
            f"after serving {self.rows_served} rows"
        )

    # -- the 2PC participant (driven by repro.txn) ----------------------
    @property
    def _wal(self) -> WriteAheadLog:
        wal = self.db.wal
        if wal is None:  # pragma: no cover - guarded by attach_coordinator
            raise RuntimeError(f"{self.name} has no write-ahead log")
        return wal

    def txn_begin(self, gid: str) -> None:
        """Open this copy's WAL batch under the global transaction id;
        the table joins it, so any rollback restores its descriptors."""
        wal = self._wal
        wal.begin(gid)
        wal.join(self.table)

    def txn_load(self, rows: Iterable[Row], *, fill: float = 1.0) -> None:
        """Bulk-load this copy's share of the rows inside its batch."""
        self.table.bulk_load(rows, fill=fill)

    def txn_insert(self, rows: Iterable[Row]) -> None:
        """Insert this copy's share of the rows inside its batch."""
        for row in rows:
            self.table.insert(row)

    def txn_prepare(self, gid: str) -> None:
        """Force the prepare record: this copy's commit vote."""
        self._wal.prepare(gid)

    def txn_commit(self, gid: str) -> None:
        """Apply the coordinator's commit verdict to the prepared batch."""
        self._wal.commit_prepared(gid)

    def txn_abort(self, gid: str) -> None:
        """Roll back whatever state the batch is in: prepared (abort
        verdict), still open (work-phase failure) or never begun."""
        wal = self._wal
        if gid in wal.prepared_gids:
            wal.abort_prepared(gid)
        elif wal.in_batch:
            wal.abort()

    def txn_recover(
        self, decide: "Callable[[str], bool] | None" = None
    ) -> RecoveryReport:
        """Recover this copy; ``decide`` is the decision-log lookup
        (without it, or for any gid it declines, presume abort)."""
        return self.db.recover(decide)

    def wal_records(self) -> tuple[WALRecord, ...]:
        """Read-only view of this copy's log (validators only)."""
        return tuple(self._wal.records)

    def crash_hooks(self) -> dict[str, CrashHook]:
        """This copy's crash devices by name: its WAL and its base disk."""
        wal, disk = self._wal, disk_layers(self.db.disk)[-1]
        return {
            wal.name: (lambda: wal.append_count, wal.crash_after_appends),
            f"{self.name}.disk": (lambda: disk.write_count, disk.crash_after_writes),
        }


@dataclass
class _ResumePoint:
    """All a restarted copy needs to know of the rows already delivered.

    A shard stream is totally ordered by full-curve address, so the
    suffix still owed is exactly the keys above the last delivered
    address, minus the rows already delivered *at* that address (a
    duplicate-point tie is served in arrival order on one page, so a
    count suffices).  O(1): the coordinator keeps no delivered row.
    """

    key: int | None = None  #: address of the last delivered row
    served_at_key: int = 0  #: rows delivered at exactly that address
    point: tuple[int, ...] = ()  #: the last delivered row's point

    def advance(self, keys: list[int], rows: list[SortedTuple]) -> None:
        """Account one delivered, non-empty slice."""
        tail = keys[-1]
        at_tail = len(keys) - bisect_left(keys, tail)
        if tail == self.key:
            self.served_at_key += at_tail
        else:
            self.key, self.served_at_key = tail, at_tail
        self.point = rows[-1][0]


class Shard:
    """One range shard: a slab of the shard dimension plus its copies."""

    def __init__(self, index: int, slab: SweepSlab, copies: list[ShardCopy]) -> None:
        self.index = index
        self.slab = slab
        self.copies = copies

    def available_copies(self) -> list[ShardCopy]:
        return [copy for copy in self.copies if copy.available]


@dataclass(frozen=True)
class _ShardedResult:
    """The degradation ledger every scattered operation returns.

    ``failed_ranges`` lists encoded shard-dimension intervals whose rows
    are missing (``allow_partial`` runs only) — a non-empty list is the
    explicit partial-result flag the coordinator's contract promises in
    place of silently wrong rows.  ``simulated_elapsed`` models the
    shards working in parallel: the max over ``per_shard_elapsed``.
    """

    degradations: tuple[ShardDegradationEvent, ...]
    failed_ranges: tuple[tuple[int, int], ...]
    per_shard_rows: tuple[int, ...]
    per_shard_elapsed: tuple[float, ...]
    simulated_elapsed: float

    @property
    def partial(self) -> bool:
        """True when at least one shard's rows are missing."""
        return bool(self.failed_ranges)

    @property
    def degraded(self) -> bool:
        """True when any downgrade rung fired."""
        return bool(self.degradations)


@dataclass(frozen=True)
class ShardedScanResult(_ShardedResult):
    """A merged sorted scan plus its degradation ledger."""

    rows: list[SortedTuple]


class ShardedDatabase:
    """Coordinator over ``k`` range shards × ``r`` copies of one table."""

    def __init__(
        self,
        schema: Schema,
        dims: Sequence[str],
        shard_attr: str,
        *,
        shards: int,
        copies: int = 1,
        page_capacity: int = 32,
        buffer_pages: int = 64,
        params: DiskParameters | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_threshold: int = 3,
        wal: bool = False,
        fault_plans: dict[tuple[int, int], FaultPlan] | None = None,
        wal_fault_plans: dict[tuple[int, int], FaultPlan] | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        if copies < 1:
            raise ValueError("every shard needs at least one copy")
        if shard_attr not in dims:
            raise ValueError(
                f"shard attribute {shard_attr!r} is not an index dimension"
            )
        self.schema = schema
        self.dims = tuple(dims)
        self.shard_attr = shard_attr
        self.shard_dim = self.dims.index(shard_attr)
        self.params = params
        self.wal_enabled = wal
        #: the attached 2PC coordinator, if any (see attach_coordinator)
        self.txn: "TransactionCoordinator | None" = None
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        self.space: ZSpace = ZSpace(schema.bit_lengths(self.dims))
        slabs = plan_slabs(
            QueryBox.full(self.space.coord_max),
            self.shard_dim,
            self.space.coord_max,
            shards,
        )
        plans = fault_plans or {}
        wal_plans = wal_fault_plans or {}
        if wal_plans and not wal:
            raise ValueError("wal_fault_plans requires wal=True")
        self.shards: list[Shard] = []
        for index, slab in enumerate(slabs):
            shard_copies: list[ShardCopy] = []
            for copy_index in range(copies):
                db = Database(
                    params,
                    buffer_pages,
                    fault_plan=plans.get((index, copy_index)),
                    retry_policy=retry_policy,
                    quarantine_threshold=quarantine_threshold,
                    wal=wal,
                    wal_name=f"{_copy_name(index, copy_index)}.wal",
                    wal_fault_plan=wal_plans.get((index, copy_index)),
                )
                table = db.create_ub_table(
                    f"shard{index}", schema, self.dims, page_capacity
                )
                shard_copies.append(ShardCopy(index, copy_index, db, table))
            self.shards.append(Shard(index, slab, shard_copies))
        self.rows_loaded: list[int] = [0] * len(self.shards)
        self._shard_pos = schema.position(shard_attr)
        self._shard_encoder = schema.attribute(shard_attr).encoder

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load(self, source: RowSource, *, fill: float = 1.0) -> int:
        """Bulk-load every shard copy from ``source``; returns row total.

        A callable ``source`` is re-invoked once per (shard, copy) pass
        and its stream filtered on the fly, so peak memory stays at one
        page batch no matter the scale factor.  A sequence works too —
        it is simply iterated ``k × r`` times.

        With a transaction coordinator attached the load runs as one
        atomic global transaction (all shards commit or none do).
        """
        if self.txn is not None:
            return self.txn.atomic_load(source, fill=fill).rows
        total = 0
        for shard in self.shards:
            for copy in shard.copies:
                copy.table.bulk_load(self.shard_rows(shard.index, source), fill=fill)
            total += self._settle_row_count(
                shard, " during load (source is not deterministic)"
            )
        if invariants.enabled():
            invariants.validate_sharded_database(self)
        return total

    def all_copies(self) -> Iterator[ShardCopy]:
        """Every copy of every shard, in shard-major order."""
        for shard in self.shards:
            yield from shard.copies

    def shard_rows(self, index: int, source: RowSource) -> Iterator[Row]:
        """One pass over ``source`` (a factory is called once), keeping
        the rows shard ``index`` owns: the one routing of every write."""
        slab = self.shards[index].slab
        encode = self._shard_encoder.encode
        position = self._shard_pos
        for row in _row_factory(source)():
            if slab.lo <= encode(row[position]) <= slab.hi:
                yield row

    def insert_batch(self, rows: Iterable[Row]) -> int:
        """Insert a batch of rows, routed to their owning shards.

        With a transaction coordinator attached the batch is one atomic
        global transaction; otherwise each copy applies its slab as one
        local WAL batch (or plain inserts without a WAL).  Returns the
        total row count after the batch.
        """
        rows = list(rows)
        if self.txn is not None:
            return self.txn.atomic_insert(rows).rows
        for shard in self.shards:
            owned = list(self.shard_rows(shard.index, rows))
            if not owned:
                continue
            for copy in shard.copies:
                wal = copy.db.wal
                if wal is None:
                    for row in owned:
                        copy.table.insert(row)
                    continue
                with wal.journaled("shard.insert_batch", copy.table):
                    for row in owned:
                        copy.table.insert(row)
        return self.refresh_row_counts()

    # ------------------------------------------------------------------
    # two-phase commit (each ShardCopy is a participant; see repro.txn)
    # ------------------------------------------------------------------
    def attach_coordinator(self, coordinator: "TransactionCoordinator") -> None:
        """Bind a transaction coordinator; loads/inserts become atomic.

        Requires a WAL on every copy (the participant protocol journals
        prepare records there) and refuses a second coordinator.
        """
        if self.txn is not None:
            raise RuntimeError(
                "a transaction coordinator is already attached"
            )
        for copy in self.all_copies():
            if copy.db.wal is None:
                raise RuntimeError(
                    "two-phase commit requires wal=True on every "
                    f"shard copy (shard {copy.shard_index} copy "
                    f"{copy.copy_index} has none)"
                )
        self.txn = coordinator

    def refresh_row_counts(self) -> int:
        """Re-derive ``rows_loaded`` from the live tables; returns total.

        Transactional writes change row counts outside :meth:`load`'s
        bookkeeping; this re-reads every copy, re-checks cross-copy
        convergence and keeps the coordinator's ledger honest.
        """
        return sum(self._settle_row_count(shard) for shard in self.shards)

    def _settle_row_count(self, shard: Shard, when: str = "") -> int:
        """Record ``shard``'s row count once every copy agrees on it."""
        counts = [len(copy.table) for copy in shard.copies]
        if len(set(counts)) > 1:
            raise ValueError(
                f"shard {shard.index} copies diverged{when}: {counts} rows"
            )
        self.rows_loaded[shard.index] = counts[0]
        return counts[0]

    # ------------------------------------------------------------------
    # fault administration
    # ------------------------------------------------------------------
    def arm_faults(self) -> None:
        """Arm every copy built with a data-disk or log-device plan."""
        for copy in self.all_copies():
            data_faulted = isinstance(copy.db.disk, FaultyDisk)
            log_faulted = copy.db.wal is not None and isinstance(
                copy.db.wal.device, FaultyDisk
            )
            if data_faulted or log_faulted:
                copy.db.arm_faults()

    def disarm_faults(self) -> None:
        """Stop all injection; delegation becomes pure again."""
        for copy in self.all_copies():
            copy.db.disarm_faults()

    def kill_copy(
        self, shard: int, copy: int, *, after_rows: int | None = None
    ) -> None:
        """Kill one copy's engine, now or after it serves more rows."""
        self.shards[shard].copies[copy].schedule_kill(after_rows)

    def health(self) -> tuple[tuple[str, ...], ...]:
        """Per-shard copy states: ``ok``, ``quarantined`` or ``dead``."""
        return tuple(
            tuple(
                "dead"
                if not copy.alive
                else ("ok" if copy.healthy else "quarantined")
                for copy in shard.copies
            )
            for shard in self.shards
        )

    def clock_total(self) -> float:
        """Summed simulated seconds across every copy's devices.

        Data disks plus WAL log devices; external harnesses price whole
        worlds with this instead of reaching into per-copy engine
        internals (R014).
        """
        total = 0.0
        for copy in self.all_copies():
            total += copy.db.disk.clock
            if copy.db.wal is not None:
                total += copy.db.wal.device.clock
        return total

    def fault_totals(self) -> dict[str, int]:
        """Aggregate fault counters summed over every copy's disk.

        External harnesses (the chaos sweep in particular) read these
        instead of reaching into per-copy engine internals, which the
        R014 lint forbids outside this package.
        """
        totals = {
            "injected": 0,
            "retries": 0,
            "quarantined": 0,
            "repaired": 0,
            "lifted": 0,
            "log_injected": 0,
        }
        for copy in self.all_copies():
            faults = copy.db.disk.stats.faults
            totals["injected"] += faults.total_injected
            totals["retries"] += faults.retries
            totals["quarantined"] += faults.quarantined_pages
            totals["repaired"] += faults.repaired_pages
            totals["lifted"] += faults.quarantine_lifted
            wal = copy.db.wal
            if wal is not None and isinstance(wal.device, FaultyDisk):
                totals["log_injected"] += wal.device.stats.faults.total_injected
        return totals

    @property
    def total_rows(self) -> int:
        return sum(self.rows_loaded)

    def reset_measurement(self) -> None:
        """Drop every copy's caches between experiments."""
        for copy in self.all_copies():
            copy.db.reset_measurement()

    # ------------------------------------------------------------------
    # the scattered, merged, failure-laddered sorted scan
    # ------------------------------------------------------------------
    def sorted_scan(
        self,
        restrictions: dict[str, tuple[Any, Any]] | None,
        sort_attr: str | Sequence[str],
        *,
        allow_partial: bool = False,
    ) -> ShardedScanResult:
        """Restricted sorted scan over all shards, merged in order.

        Bit-identical to the unsharded scan when every shard survives;
        otherwise degrades down the documented ladder, emitting one
        event per rung, and either flags the lost ranges
        (``allow_partial=True``) or raises
        :class:`~repro.shard.errors.ShardFailedError`.
        """
        box = self._reference_table().build_query_box(restrictions)
        events: list[ShardDegradationEvent] = []
        failed_ranges: list[tuple[int, int]] = []
        start_clocks = [
            [copy.db.clock for copy in shard.copies] for shard in self.shards
        ]
        streams: list[KeyedStream] = []
        try:
            for shard in self.shards:
                shard_box = box.restricted(
                    self.shard_dim, shard.slab.lo, shard.slab.hi
                )
                stream: KeyedStream = ([], [])
                streams.append(stream)
                if shard_box.is_empty:
                    continue
                failed_before = len(failed_ranges)
                for keys, slice_rows in self._stream_shard(
                    shard,
                    shard_box,
                    sort_attr,
                    allow_partial,
                    events,
                    failed_ranges,
                    held=True,
                ):
                    stream[0].extend(keys)
                    stream[1].extend(slice_rows)
                if len(failed_ranges) > failed_before:
                    # abandoned mid-scan: the flagged range covers the
                    # whole shard, so the prefix it served is dropped too
                    streams[-1] = ([], [])
        except ShardFailedError:
            telemetry.emit(*events)
            raise
        _, rows = merge_shard_streams(streams)
        if invariants.enabled():
            invariants.validate_sharded_database(self)
            self._check_stream(rows, box, sort_attr)
        per_shard_elapsed = tuple(
            sum(
                copy.db.clock - before
                for copy, before in zip(shard.copies, start_clocks[index])
            )
            for index, shard in enumerate(self.shards)
        )
        telemetry.emit(*events)
        return ShardedScanResult(
            rows=rows,
            degradations=tuple(events),
            failed_ranges=tuple(failed_ranges),
            per_shard_rows=tuple(len(keys) for keys, _ in streams),
            per_shard_elapsed=per_shard_elapsed,
            simulated_elapsed=max(per_shard_elapsed, default=0.0),
        )

    def _reference_table(self) -> UBTable:
        return self.shards[0].copies[0].table

    def _sort_dims(self, sort_attr: str | Sequence[str]) -> tuple[int, ...]:
        if isinstance(sort_attr, str):
            return (self.dims.index(sort_attr),)
        return tuple(self.dims.index(attr) for attr in sort_attr)

    def _check_stream(
        self,
        rows: list[SortedTuple],
        box: QuerySpace,
        sort_attr: str | Sequence[str],
    ) -> None:
        checker = invariants.StreamChecker(self._sort_dims(sort_attr), box)
        for point, _ in rows:
            checker.observe(point)

    # -- one shard, streamed down the ladder ----------------------------
    def _stream_shard(
        self,
        shard: Shard,
        shard_box: QueryBox,
        sort_attr: str | Sequence[str],
        allow_partial: bool,
        events: list[ShardDegradationEvent],
        failed_ranges: list[tuple[int, int]],
        predicate: Callable[[Row], bool] | None = None,
        held: bool = False,
    ) -> Iterator[KeyedStream]:
        """Stream one shard's tuples, climbing the ladder between pulls.

        The one ladder driver, drained whole by :meth:`sorted_scan` and
        pulled slice by slice by pipelined consumers (co-partitioned
        join legs): each ``(keys, rows)`` slice is yielded as the sweep
        completes it, and the repair/retry/failover ladder runs *inside*
        the generator, so the consumer never sees a
        :class:`StorageError` — resume after failover continues from
        the exact residual range, with no re-emission.  On an abandoned
        shard (``allow_partial=True``) the stream simply ends early with
        the shard's key range recorded in
        ``failed_ranges``; rows already yielded were consumed, so the
        caller must treat the *whole* range as missing and flag its
        result partial.  Without ``allow_partial`` the terminal rung
        raises :class:`~repro.shard.errors.ShardFailedError` through the
        generator.  ``held`` asks each copy's sweep for held slices
        (:meth:`~repro.core.tetris.TetrisScan.slices`): a consumer that
        drains the shard whole gets the same rows in fewer, larger cuts.
        """
        resume = _ResumePoint()
        retry_budgets: dict[int, Iterator[float]] = {}
        rungs = 0
        copy = self._next_copy(shard)
        if copy is not None and copy is not shard.copies[0]:
            # the primary never even got the scan: that is a downgrade
            # too, and it gets its event like every other rung
            primary = shard.copies[0]
            events.append(
                ShardDegradationEvent(
                    shard=shard.index,
                    copy=primary.copy_index,
                    action="failover",
                    error_type=(
                        "ShardCopyKilledError"
                        if not primary.alive
                        else "StorageError"
                    ),
                    error="primary copy unavailable at scan start",
                    fallback_copy=copy.copy_index,
                )
            )

        def lose_shard(
            message: str, error_type: str, lost_copy: int = -1, cause: str = ""
        ) -> None:
            """Terminal rung: flag the shard's whole range, or raise.

            The event keeps the cause: the copy that failed last with
            its error, or (``lost_copy`` -1) why no copy could be tried.
            """
            events.append(
                ShardDegradationEvent(
                    shard=shard.index,
                    copy=lost_copy,
                    action="abandoned" if allow_partial else "failed",
                    error_type=error_type,
                    error=cause or message,
                )
            )
            if not allow_partial:
                raise ShardFailedError(
                    f"shard {shard.index} lost every copy: {message}",
                    shard.index,
                    tuple(events),
                )
            failed_ranges.append(
                (shard_box.lo[self.shard_dim], shard_box.hi[self.shard_dim])
            )

        if copy is None:
            states = ", ".join(
                f"copy {index} {state}"
                for index, state in enumerate(self.health()[shard.index])
            )
            lose_shard(
                "no available copy",
                "StorageError",
                cause=f"no available copy: {states}",
            )
            return
        while True:
            try:
                yield from self._stream_copy(
                    copy, shard_box, sort_attr, resume, predicate, held
                )
                return
            except StorageError as exc:
                rungs += 1
                if rungs > MAX_DEGRADATIONS:
                    copy.healthy = False
                    exhausted = f"degradation budget exhausted ({MAX_DEGRADATIONS})"
                    lose_shard(
                        exhausted,
                        type(exc).__name__,
                        copy.copy_index,
                        f"{exhausted}: {exc}",
                    )
                    return
                fallback = self._climb_ladder(
                    shard, copy, exc, retry_budgets, events
                )
                if fallback is None:
                    lose_shard(
                        "no available copy",
                        type(exc).__name__,
                        copy.copy_index,
                        str(exc),
                    )
                    return
                copy = fallback

    def _climb_ladder(
        self,
        shard: Shard,
        copy: ShardCopy,
        exc: StorageError,
        retry_budgets: dict[int, Iterator[float]],
        events: list[ShardDegradationEvent],
    ) -> ShardCopy | None:
        """One rung: repair, retry, or failover.  Returns the next copy
        to drain (``None`` when the shard is lost)."""

        def log_rung(action: str, **detail: Any) -> None:
            events.append(
                ShardDegradationEvent(
                    shard=shard.index,
                    copy=copy.copy_index,
                    action=action,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    **detail,
                )
            )

        quarantined = (
            copy.db.buffer.quarantined_pages if copy.available else frozenset()
        )
        if quarantined:
            peer = self._peer_copy(shard, copy)
            if peer is not None:
                healed = self._repair_from_peer(copy, peer, quarantined)
                if healed:
                    log_rung("repaired", repaired_pages=tuple(healed))
                    return copy
        # a corrupt page the pool quarantined stays so unless a replica
        # layer heals it on the next lookup: no peer did, so a retry of a
        # copy without one waits out its backoff for nothing
        healable = not (
            isinstance(exc, CorruptPageError)
            and quarantined
            and copy.db.replicated_disk is None
        )
        if (
            copy.available
            and healable
            and isinstance(exc, (TransientIOError, CorruptPageError))
        ):
            budget = retry_budgets.setdefault(
                copy.copy_index, iter(self.retry_policy.delays())
            )
            delay = next(budget, None)
            if delay is not None:
                charge_backoff(copy.db.disk, delay)
                log_rung("retry")
                return copy
        copy.healthy = False
        fallback = self._next_copy(shard)
        if fallback is not None:
            log_rung("failover", fallback_copy=fallback.copy_index)
        return fallback

    def _next_copy(self, shard: Shard) -> ShardCopy | None:
        available = shard.available_copies()
        return available[0] if available else None

    def _peer_copy(self, shard: Shard, copy: ShardCopy) -> ShardCopy | None:
        for candidate in shard.available_copies():
            if candidate.copy_index != copy.copy_index:
                return candidate
        return None

    # -- drain one copy from the residual range ------------------------
    def _stream_copy(
        self,
        copy: ShardCopy,
        shard_box: QueryBox,
        sort_attr: str | Sequence[str],
        resume: _ResumePoint,
        predicate: Callable[[Row], bool] | None = None,
        held: bool = False,
    ) -> Iterator[KeyedStream]:
        """Yield the shard's residual tuples via ``copy``, slice by slice.

        Each slice is what a sweep slice leaves after the kill schedule,
        ``predicate`` and the resume skip, with the keys the sweep
        ordered it by — nothing is re-encoded.  It is entered into
        ``resume`` right before it is yielded and a
        :class:`StorageError` can only surface *between* slices, so
        ``resume`` is exact about what the consumer received; rows the
        predicate drops never count, so a restart re-applies it
        consistently.  A kill due inside a slice truncates it at that
        row: the prefix is delivered, the error follows on the next pull.

        On a restart, keys below ``resume.key`` are dropped and so are
        the first ``served_at_key`` rows at it; the first key above it
        disarms the skip.  The primary sort dimension is additionally
        clamped to the resume point — curve addresses put that
        dimension in the most significant bits, so no owed row can sit
        below it — letting the restarted sweep skip the served prefix's
        pages instead of re-reading them.

        With ``held`` the sweep cuts its run buffer only at the end and
        before a fault, so a fault stops it on the page, and with the
        rows, of the every-barrier sweep.  A copy with a kill scheduled
        stops after a row count instead, so its sweep does not hold.
        """
        if not copy.alive:
            raise ShardCopyKilledError(
                f"shard {copy.shard_index} copy {copy.copy_index} is dead"
            )
        box = shard_box
        resume_key = resume.key
        skip_at_key = resume.served_at_key
        if resume_key is not None:
            primary = self._sort_dims(sort_attr)[0]
            box = box.restricted(
                primary, resume.point[primary], self.space.coord_max[primary]
            )
        scan = copy.table.tetris_scan(box, sort_attr)
        # a scheduled kill stops this consumer after some row count, so
        # that copy's sweep cuts at every barrier, as the kill expects
        held = held and copy.rows_before_kill() is None
        for keys, rows in scan.slices(held=held):
            pulled = len(rows)
            served = copy.serve(pulled)
            if served < pulled:
                keys, rows = keys[:served], rows[:served]
            if predicate is not None:
                passed = [predicate(payload) for _, payload in rows]
                if not all(passed):
                    keys = list(compress(keys, passed))
                    rows = list(compress(rows, passed))
            if resume_key is not None:
                start = bisect_left(keys, resume_key)
                above = bisect_right(keys, resume_key, start)
                skipped = min(above - start, skip_at_key)
                skip_at_key -= skipped
                if above < len(keys):
                    resume_key = None
                keys, rows = keys[start + skipped :], rows[start + skipped :]
            if rows:
                resume.advance(keys, rows)
                yield keys, rows
            if served < pulled:
                raise copy.expire()

    # -- bit-exact cross-copy page repair ------------------------------
    def _repair_from_peer(
        self, copy: ShardCopy, peer: ShardCopy, page_ids: frozenset[int]
    ) -> list[int]:
        """Heal ``copy``'s quarantined pages from ``peer``'s intact ones.

        Copies are loaded identically, so page ids and contents line up
        one-to-one; each healed page costs one random read on the peer
        and one random write on the patient, charged to their own
        clocks.  Pages whose peer copy fails its own checksum are left
        quarantined (never propagate damage), and only pages whose
        quarantine actually lifts count as healed.
        """
        healed: list[int] = []
        for page_id in sorted(page_ids):
            try:
                peer_page = peer.db.disk.peek(page_id)
                read_cost = peer.db.disk.params.random_cost(1)
                peer.db.disk.advance_clock(read_cost)
                peer.db.disk.stats.faults.repair_reads += 1
                ensure_page_integrity(
                    peer_page,
                    context=f"peer copy {peer.copy_index} during shard repair",
                )
                page = copy.db.disk.peek(page_id)
            except StorageError:
                continue
            page.restore(peer_page.records)
            page.seal_checksum()
            write_cost = copy.db.disk.params.random_cost(1)
            copy.db.disk.advance_clock(write_cost)
            copy.db.disk.stats.faults.repair_delay += write_cost
            if copy.db.buffer.lift_quarantine(page_id):
                copy.db.disk.stats.faults.repaired_pages += 1
                healed.append(page_id)
        return healed


# ----------------------------------------------------------------------
# co-partitioned sharded merge joins
# ----------------------------------------------------------------------
class _LegClock:
    """Summed simulated clock over one join leg's engine instances.

    A leg drains copies of *two* shards (one per join side), each an
    independent engine with its own disk; the leg's
    :class:`~repro.telemetry.JoinEvent` clocks are read off this sum, so
    ``first_tuple_clock - start_clock`` is the simulated service time
    spent before the leg's first output row.
    """

    def __init__(self, copies: Sequence[ShardCopy]) -> None:
        self._copies = tuple(copies)

    @property
    def clock(self) -> float:
        return sum(copy.db.clock for copy in self._copies)


class _LegSide(Operator):
    """One side of a join leg: a shard's stream, one batch per slice."""

    def __init__(self, stream: Iterator[KeyedStream]) -> None:
        self.stream = stream

    def batches(self) -> Iterator[list[Row]]:
        for _, pairs in self.stream:
            yield list(map(_payload, pairs))


@dataclass(frozen=True)
class ShardedJoinResult(_ShardedResult):
    """A co-partitioned join's concatenated output plus its ledgers.

    ``rows`` are combined output rows in serial join order (see
    :class:`CoPartitionedJoin` for the order-preservation argument).  A
    failed shard pair contributes **no** rows — its encoded join-key
    range appears in ``failed_ranges`` instead (``allow_partial`` runs
    only), so output is never silently truncated mid-shard.
    ``join_events`` holds one :class:`~repro.telemetry.JoinEvent` per
    *surviving* leg; failed legs are covered by ``degradations``.
    ``per_shard_elapsed`` is per-leg summed service time.
    """

    rows: list[Row]
    join_events: tuple[JoinEvent, ...]


class CoPartitionedJoin:
    """Pipelined merge join across two co-partitioned sharded relations.

    Both sides must be range-sharded on their join attribute over
    identical encoded key intervals (validated through
    :func:`~repro.planner.parallel.aligned_shard_slabs`).  Then every
    equal-join-key group lives in exactly one shard *pair*, and each
    pair can run its own pipelined :class:`MergeJoin` /
    :class:`MergeSemiJoin` leg — both inputs streamed in join-key order
    straight off their shards' Tetris sweeps, down the full
    repair/retry/failover ladder, with no cross-shard coordination.

    **Order preservation.**  Each side's shard stream ascends in the
    full tetris-curve address (join-key bits most significant), and the
    slabs partition the encoded join-key domain in ascending ranges, so
    concatenating per-shard streams reproduces the serial sorted stream
    bit-for-bit.  A merge join consumes its inputs group-by-group and a
    key group never spans a slab boundary, hence concatenating the leg
    outputs in shard order *is* the k-way ordered merge of the legs and
    equals the serial join of the serial streams, row for row.
    """

    def __init__(
        self,
        left: ShardedDatabase,
        right: ShardedDatabase,
        *,
        kind: str = "inner",
        combine: Callable[[Row, Row], Row] | None = None,
    ) -> None:
        if kind not in ("inner", "semi"):
            raise ValueError(f"unknown join kind {kind!r} (inner | semi)")
        left_max = left.space.coord_max[left.shard_dim]
        right_max = right.space.coord_max[right.shard_dim]
        if left_max != right_max:
            raise ValueError(
                f"join-key domains differ: {left.shard_attr!r} encodes to "
                f"[0, {left_max}] but {right.shard_attr!r} to [0, {right_max}]"
            )
        self.slabs = aligned_shard_slabs(
            [shard.slab for shard in left.shards],
            [shard.slab for shard in right.shards],
        )
        self.left = left
        self.right = right
        self.kind = kind
        self.combine = combine
        self._left_pos = left.schema.position(left.shard_attr)
        self._right_pos = right.schema.position(right.shard_attr)

    def run(
        self,
        left_restrictions: dict[str, tuple[Any, Any]] | None = None,
        right_restrictions: dict[str, tuple[Any, Any]] | None = None,
        *,
        left_predicate: Callable[[Row], bool] | None = None,
        right_predicate: Callable[[Row], bool] | None = None,
        allow_partial: bool = False,
    ) -> ShardedJoinResult:
        """Run every shard pair's join leg; concatenate in shard order.

        Each leg is fully pipelined: both side streams climb the shard
        failure ladder internally, so the merge operator itself never
        sees a :class:`StorageError`.  A shard pair that loses a side
        raises :class:`~repro.shard.errors.ShardFailedError` (default)
        or — with ``allow_partial`` — contributes nothing and records
        its join-key range in ``failed_ranges``.
        """
        left_box = self.left._reference_table().build_query_box(
            left_restrictions
        )
        right_box = self.right._reference_table().build_query_box(
            right_restrictions
        )
        left_pos, right_pos = self._left_pos, self._right_pos
        events: list[ShardDegradationEvent] = []
        failed_ranges: list[tuple[int, int]] = []
        join_events: list[JoinEvent] = []
        rows: list[Row] = []
        per_shard_rows: list[int] = []
        per_shard_elapsed: list[float] = []

        def side_rows(
            side: ShardedDatabase,
            shard: Shard,
            slab_box: QueryBox,
            predicate: Callable[[Row], bool] | None,
        ) -> _LegSide:
            """One side of a leg: the shard's rows in join-key order."""
            return _LegSide(
                side._stream_shard(
                    shard,
                    slab_box,
                    side.shard_attr,
                    allow_partial,
                    events,
                    failed_ranges,
                    predicate,
                )
            )

        try:
            for index, slab in enumerate(self.slabs):
                left_shard = self.left.shards[index]
                right_shard = self.right.shards[index]
                slab_left = left_box.restricted(
                    self.left.shard_dim, slab.lo, slab.hi
                )
                slab_right = right_box.restricted(
                    self.right.shard_dim, slab.lo, slab.hi
                )
                if slab_left.is_empty or slab_right.is_empty:
                    # an inner or semi join emits nothing without both sides
                    per_shard_rows.append(0)
                    per_shard_elapsed.append(0.0)
                    continue
                copies = tuple(left_shard.copies) + tuple(right_shard.copies)
                leg_clock = _LegClock(copies)
                clock_before = leg_clock.clock
                failed_before = len(failed_ranges)
                left_rows = side_rows(
                    self.left, left_shard, slab_left, left_predicate
                )
                right_rows = side_rows(
                    self.right, right_shard, slab_right, right_predicate
                )
                leg: MergeJoin | MergeSemiJoin
                if self.kind == "inner":
                    leg = MergeJoin(
                        left_rows,
                        right_rows,
                        left_key=itemgetter(left_pos),
                        right_key=itemgetter(right_pos),
                        combine=self.combine,
                        disk=leg_clock,  # duck-typed: only .clock is read
                        shard=index,
                    )
                else:
                    leg = MergeSemiJoin(
                        left_rows,
                        right_rows,
                        left_key=itemgetter(left_pos),
                        right_key=itemgetter(right_pos),
                        disk=leg_clock,
                        shard=index,
                    )
                leg_rows = list(chain.from_iterable(leg.batches()))
                per_shard_elapsed.append(leg_clock.clock - clock_before)
                if len(failed_ranges) > failed_before:
                    # a side was abandoned mid-leg: drop the leg's output
                    # wholesale — the flagged range covers the whole shard
                    per_shard_rows.append(0)
                    continue
                rows.extend(leg_rows)
                per_shard_rows.append(len(leg_rows))
                if leg.last_event is not None:
                    join_events.append(leg.last_event)
        except ShardFailedError:
            telemetry.emit(*events)
            raise
        telemetry.emit(*events)
        return ShardedJoinResult(
            rows=rows,
            degradations=tuple(events),
            failed_ranges=tuple(failed_ranges),
            per_shard_rows=tuple(per_shard_rows),
            per_shard_elapsed=tuple(per_shard_elapsed),
            simulated_elapsed=max(per_shard_elapsed, default=0.0),
            join_events=tuple(join_events),
        )
