"""Tables: one relation, one physical organization.

Following the paper's experimental setup ("we created four instances of
LINEITEM"), a table object binds a schema to exactly one physical
organization — a heap (for full table scans), an IOT (clustered
composite-key B*-Tree) or a UB-Tree.  A :class:`Database` owns the
simulated disk and buffer pool that all organizations share, so their
I/O is priced identically.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from ..btree.iot import TOP, IndexOrganizedTable
from ..core.query_space import QueryBox, QuerySpace
from ..core.tetris import TetrisScan
from ..core.ubtree import UBTree
from ..core.zorder import ZSpace
from ..storage.buffer import BufferPool
from ..storage.disk import DiskParameters, SimulatedDisk, disk_layers
from ..storage.faults import FaultPlan, FaultyDisk
from ..storage.heap import HeapFile
from ..storage.replica import ReplicatedDisk
from ..storage.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from ..storage.scheduler import IOScheduler
from ..storage.wal import RecoveryReport, WriteAheadLog
from .schema import Schema

Row = tuple


class Database:
    """Shared simulated disk + buffer pool for a set of table instances.

    Passing a ``fault_plan`` wraps the disk in a
    :class:`~repro.storage.faults.FaultyDisk`; injection stays disarmed
    until :meth:`arm_faults` is called, so tables load cleanly and the
    fault schedule replays deterministically from the moment of arming.

    ``replicas=k`` inserts a :class:`~repro.storage.replica
    .ReplicatedDisk` *inside* the fault layer, so every acknowledged
    write is mirrored onto ``k`` checksummed copies before the fault
    layer can tear the primary — the substrate for checksum-triggered
    repair and quarantine lifting.  ``wal=True`` arms a
    :class:`~repro.storage.wal.WriteAheadLog` on the whole stack, making
    every ``bulk_load`` (and WAL-aware insert) an atomic, replayable
    batch; :meth:`recover` is the redo-on-open entry point.  ``wal_name``
    names the log for recovery telemetry and crash-schedule enumeration,
    and ``wal_fault_plan`` puts the *log device itself* under fault
    injection (armed and disarmed together with the data disk), so torn
    or transient log forces are part of the chaos surface too.

    ``devices=d`` stripes pages across ``d`` independent device queues
    via an :class:`~repro.storage.scheduler.IOScheduler` sitting on top
    of the whole wrapper stack; ``prefetch_depth=k`` additionally lets
    scans keep up to ``k`` async reads in flight ahead of their cursor
    (sweep-ahead prefetching).  Both default off, leaving the cost model
    bit-identical to the single-disk engine.
    """

    def __init__(
        self,
        params: DiskParameters | None = None,
        buffer_pages: int = 256,
        *,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_threshold: int = 3,
        wal: bool = False,
        wal_name: str = "wal",
        wal_fault_plan: FaultPlan | None = None,
        replicas: int = 0,
        devices: int = 1,
        prefetch_depth: int = 0,
    ) -> None:
        disk: SimulatedDisk = SimulatedDisk(params)
        if replicas:
            disk = ReplicatedDisk(disk, replicas)
        if fault_plan is not None:
            disk = FaultyDisk(disk, fault_plan)
        self.disk: SimulatedDisk = disk
        #: the one policy every read path of every table retries by
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.scheduler: IOScheduler | None = (
            IOScheduler(self.disk, devices, prefetch_depth=prefetch_depth)
            if devices > 1 or prefetch_depth > 0
            else None
        )
        if wal_fault_plan is not None and not wal:
            raise ValueError("wal_fault_plan requires wal=True")
        self.wal: WriteAheadLog | None = (
            WriteAheadLog(
                self.disk,
                name=wal_name,
                fault_plan=wal_fault_plan,
                retry_policy=self.retry_policy,
            )
            if wal
            else None
        )
        self.buffer = BufferPool(
            self.disk,
            buffer_pages,
            retry_policy=self.retry_policy,
            quarantine_threshold=quarantine_threshold,
            scheduler=self.scheduler,
        )
        self.tables: dict[str, "BaseTable"] = {}

    def arm_faults(self) -> None:
        """Start injecting faults (requires a ``fault_plan`` or
        ``wal_fault_plan``); data disk and log device arm together."""
        data_faulted = isinstance(self.disk, FaultyDisk)
        log_faulted = self.wal is not None and isinstance(
            self.wal.device, FaultyDisk
        )
        if not data_faulted and not log_faulted:
            raise RuntimeError("database was created without a fault plan")
        if data_faulted:
            self.disk.arm()
        if self.wal is not None:
            self.wal.arm_log_faults()

    def disarm_faults(self) -> None:
        """Stop injecting faults, leaving any damage in place."""
        if isinstance(self.disk, FaultyDisk):
            self.disk.disarm()
        if self.wal is not None:
            self.wal.disarm_log_faults()

    def recover(
        self, decide: "Callable[[str], bool] | None" = None
    ) -> RecoveryReport:
        """Run WAL redo-on-open recovery and drop the (suspect) cache.

        ``decide`` resolves in-doubt two-phase batches from the
        coordinator's decision log; without it every in-doubt batch is
        presumed aborted (see
        :meth:`~repro.storage.wal.WriteAheadLog.recover`).
        """
        if self.wal is None:
            raise RuntimeError("database was created without a write-ahead log")
        report = self.wal.recover(decide)
        self.buffer.drop_all()
        # recovery rewrites pages beneath the live tree objects
        for table in self.tables.values():
            if isinstance(table, UBTable):
                table.ubtree.tree.structure_changed()
        return report

    @property
    def replicated_disk(self) -> ReplicatedDisk | None:
        """The replica layer of the disk stack, if one was configured."""
        for layer in disk_layers(self.disk):
            if isinstance(layer, ReplicatedDisk):
                return layer
        return None

    def capture_replicas(self) -> int:
        """Mirror every record-bearing page into the replica store.

        Needed once after loads that bypass the write path's mirroring
        (e.g. insert-driven loading, which defers its page writes to the
        buffer pool's flush).  Returns the number of pages captured.
        """
        replicated = self.replicated_disk
        if replicated is None:
            raise RuntimeError("database was created without replicas")
        return replicated.capture_all()

    def _register(self, table: "BaseTable") -> None:
        if table.name in self.tables:
            raise ValueError(f"table {table.name!r} already exists")
        self.tables[table.name] = table

    def create_heap_table(
        self, name: str, schema: Schema, page_capacity: int
    ) -> "HeapTable":
        table = HeapTable(self, name, schema, page_capacity)
        self._register(table)
        return table

    def create_iot(
        self, name: str, schema: Schema, key: Sequence[str], page_capacity: int
    ) -> "IOTTable":
        table = IOTTable(self, name, schema, key, page_capacity)
        self._register(table)
        return table

    def create_ub_table(
        self, name: str, schema: Schema, dims: Sequence[str], page_capacity: int
    ) -> "UBTable":
        table = UBTable(self, name, schema, dims, page_capacity)
        self._register(table)
        return table

    def reset_measurement(self) -> None:
        """Drop caches and snapshot-friendly state between experiments."""
        self.buffer.drop_all()

    @property
    def clock(self) -> float:
        return self.disk.clock


class BaseTable:
    """Common behaviour of all physical organizations."""

    def __init__(
        self, db: Database, name: str, schema: Schema, page_capacity: int
    ) -> None:
        self.db = db
        self.name = name
        self.schema = schema
        self.page_capacity = page_capacity

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def page_count(self) -> int:
        raise NotImplementedError

    def insert(self, row: Row) -> None:
        raise NotImplementedError

    def load(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.insert(row)

    def build_query_box(
        self, restrictions: dict[str, tuple[Any, Any]] | None
    ) -> QueryBox:
        """Translate value-level ranges into an encoded query box.

        ``restrictions`` maps attribute names to ``(lo, hi)`` value pairs;
        ``None`` on either side leaves that end unbounded.  Only
        index-dimension attributes may be restricted here — residual
        predicates are the access operator's ``predicate``.
        """
        raise NotImplementedError(f"{type(self).__name__} has no index dimensions")


class HeapTable(BaseTable):
    """Unordered rows in contiguous extents — the FTS baseline."""

    def __init__(
        self, db: Database, name: str, schema: Schema, page_capacity: int
    ) -> None:
        super().__init__(db, name, schema, page_capacity)
        self.heap = HeapFile(
            db.disk, page_capacity, retry_policy=db.retry_policy, scheduler=db.scheduler
        )

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def page_count(self) -> int:
        return self.heap.page_count

    def insert(self, row: Row) -> None:
        self.heap.append(row)

    def bulk_load(self, rows: Iterable[Row]) -> None:
        """Initial load, WAL-protected when the database has a log armed."""
        self.heap.bulk_load(rows)

    def scan(self) -> Iterator[list[Row]]:
        """Full table scan, one list of rows per page: sequential reads,
        prefetch-friendly."""
        return self.heap.scan()


class IOTTable(BaseTable):
    """Index-organized table: clustered by a composite key."""

    def __init__(
        self,
        db: Database,
        name: str,
        schema: Schema,
        key: Sequence[str],
        page_capacity: int,
    ) -> None:
        super().__init__(db, name, schema, page_capacity)
        self.key_attrs = tuple(key)
        positions = tuple(schema.position(attr) for attr in self.key_attrs)
        self.iot = IndexOrganizedTable(
            db.buffer,
            lambda row: tuple(row[p] for p in positions),
            page_capacity,
        )

    def __len__(self) -> int:
        return len(self.iot)

    @property
    def page_count(self) -> int:
        return self.iot.page_count

    def insert(self, row: Row) -> None:
        self.iot.insert(row)

    def bulk_load(self, rows: Sequence[Row], fill: float = 1.0) -> None:
        """Initial load: sort by key and pack leaves bottom-up (empty table)."""
        self.iot.bulk_load(list(rows), fill)

    def scan_leading(self, lo: Any = None, hi: Any = None) -> Iterator[Row]:
        """Scan restricted on the *leading* key attribute's value range."""
        low_key = None if lo is None else (lo,)
        high_key = None if hi is None else (hi, TOP)
        return self.iot.scan(low_key, high_key)


class UBTable(BaseTable):
    """Multidimensionally organized table: the Tetris substrate."""

    def __init__(
        self,
        db: Database,
        name: str,
        schema: Schema,
        dims: Sequence[str],
        page_capacity: int,
    ) -> None:
        super().__init__(db, name, schema, page_capacity)
        self.dims = tuple(dims)
        self._dim_positions = tuple(schema.position(attr) for attr in self.dims)
        self.space = ZSpace(schema.bit_lengths(self.dims))
        self.ubtree = UBTree(db.buffer, self.space, page_capacity)

    def __len__(self) -> int:
        return len(self.ubtree)

    @property
    def page_count(self) -> int:
        return self.ubtree.page_count

    def point_of(self, row: Row) -> tuple[int, ...]:
        return self.schema.encode_point(row, self.dims)

    def meta_snapshot(self) -> tuple:
        """In-memory UB-tree descriptors (root, height, counts).

        A table that joins a multi-operation WAL batch (a 2PC
        participant's, a sharded insert batch's) has these recorded by
        the batch and restored by its rollback, so the live tree object
        never points at freed pages with stale counts.
        """
        return self.ubtree.tree.meta_snapshot()

    def meta_restore(self, meta: tuple) -> None:
        """Restore a :meth:`meta_snapshot` (the WAL's rollback calls it)."""
        self.ubtree.tree.meta_restore(meta)

    def insert(self, row: Row) -> None:
        self.ubtree.insert(self.point_of(row), row)

    def bulk_load(self, rows: Iterable[Row], fill: float = 1.0) -> None:
        """Initial load: pack full Z-region pages bottom-up (empty table)."""
        self.ubtree.bulk_load(((self.point_of(row), row) for row in rows), fill)

    def build_query_box(
        self, restrictions: dict[str, tuple[Any, Any]] | None
    ) -> QueryBox:
        lo = [0] * len(self.dims)
        hi = list(self.space.coord_max)
        if restrictions:
            unknown = set(restrictions) - set(self.dims)
            if unknown:
                raise KeyError(
                    f"restrictions on non-index attributes: {sorted(unknown)}"
                )
            for pos, attr in enumerate(self.dims):
                if attr not in restrictions:
                    continue
                low_value, high_value = restrictions[attr]
                encoder = self.schema.attribute(attr).encoder
                if low_value is not None:
                    lo[pos] = encoder.encode(low_value)
                if high_value is not None:
                    hi[pos] = encoder.encode(high_value)
        return QueryBox(lo, hi)

    def comparison_space(self, left: str, op: str, right: str) -> QuerySpace:
        """Half-space between two index attributes (Q4's triangle)."""
        from ..core.query_space import ComparisonSpace

        return ComparisonSpace(
            len(self.dims), self.dims.index(left), op, self.dims.index(right)
        )

    def tetris_scan(
        self,
        space: QuerySpace | dict[str, tuple[Any, Any]] | None,
        sort_attr: str | Sequence[str],
        *,
        pushdown: QuerySpace | None = None,
    ) -> TetrisScan:
        """A Tetris sweep delivering rows sorted by ``sort_attr``.

        ``sort_attr`` may be a single attribute name or a sequence of
        names for a composite (multi-column) sort order.  ``pushdown``
        carries a join-key restriction pushed down from the other side
        of a join (see :mod:`repro.planner.pushdown`); regions it rules
        out are skipped without I/O.
        """
        if space is None or isinstance(space, dict):
            space = self.build_query_box(space)
        if isinstance(sort_attr, str):
            sort_dims: int | tuple[int, ...] = self.dims.index(sort_attr)
        else:
            sort_dims = tuple(self.dims.index(attr) for attr in sort_attr)
        return TetrisScan(self.ubtree, space, sort_dims, pushdown=pushdown)

    def range_query(
        self, space: QuerySpace | dict[str, tuple[Any, Any]] | None
    ) -> Iterator[list[Row]]:
        """Multi-attribute range query (Q6): each overlapping page read
        once, its qualifying rows handed over as one list."""
        if space is None or isinstance(space, dict):
            space = self.build_query_box(space)
        for pairs in self.ubtree.range_query(space):
            yield [row for _, row in pairs]
