"""A simulated-clock write-ahead log with redo-on-open recovery.

PR 3 made the *read* path fail-safe; this module does the same for the
write path.  A :class:`WriteAheadLog` journals page mutations of one
:class:`~repro.storage.disk.SimulatedDisk` onto a separate log device
(its own ``SimulatedDisk``, so log forces are priced with the same
Section 4.1 cost model and mirrored onto the data disk's clock — the
engine *waits* for the log).  Batched mutations then follow the
classical write-ahead protocol:

* ``begin`` opens a batch (one load, one insert);
* ``log_alloc`` journals every page allocation so rollback can free it;
* ``touch`` journals a page's *before*-image (undo) the first time a
  batch mutates a pre-existing page;
* ``log_image`` journals a page's *after*-image (redo) before the data
  write that makes it durable — write-ahead ordering, so a torn data
  write can always be replayed from the log;
* ``log_free`` defers a free to commit time (rollback must be able to
  resurrect the page);
* ``commit`` / ``abort`` close the batch.

The objects living on top of the pages (a tree, a table, a heap file)
``join`` the batch, which records their ``meta_snapshot()``; its one
undo routine puts pages *and* those descriptors back on every path
that does not commit.

Two-phase participation: ``prepare(gid)`` closes the active batch into
the *in-doubt* state instead — the before-images are held, a ``prepare``
record carrying the global transaction id is forced, and the batch waits
for the coordinator's verdict (``commit_prepared`` / ``abort_prepared``).
:meth:`recover` resolves in-doubt batches through the ``decide``
callback (the coordinator's decision log) and **presumes abort** for any
gid without a durably logged commit decision — safe, because the
coordinator only acknowledges a commit after its decision record is
durable.

:meth:`recover` is redo-on-open: it rolls interrupted batches back from
the logged undo records and allocations, resolves in-doubt prepared
batches, then replays the last committed after-image of every page whose
on-disk content no longer matches — healing torn writes (and any other
record-level rot) to the exact committed state.  Running it twice is a
no-op.  Every pass emits exactly one structured :class:`RecoveryEvent`
through the unified telemetry registry.

The log is *simulated-durable* even on a faulted log device: passing a
``fault_plan`` wraps the device in a
:class:`~repro.storage.faults.FaultyDisk`, and the *verified force*
(:meth:`AppendOnlyLog._force_tail`) detects torn log appends against the
intended content and re-forces until the page is intact — modelling a
real log manager's write-verify-rewrite discipline.  The deterministic
crash hook (:meth:`crash_after_appends`) proves that rollback needs
nothing beyond the log.  ``REPRO_CHECKS=1`` re-validates the log's
structural contract (:func:`repro.invariants.validate_wal`) after every
batch boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .. import invariants, telemetry
from ..telemetry import TelemetryEvent
from .disk import DiskParameters, SimulatedDisk
from .errors import LogDeviceError, SimulatedCrashError
from .faults import CORRUPT, FaultPlan, FaultyDisk
from .page import Page
from .retry import DEFAULT_RETRY_POLICY, RetryPolicy, read_page_resilient

__all__ = [
    "AppendOnlyLog",
    "RecoveryEvent",
    "RecoveryReport",
    "WALRecord",
    "WriteAheadLog",
    "active_wal",
]

#: record kinds, in the order a batch emits them.  ``prepare`` replaces
#: the close for a two-phase participant batch: the transaction is then
#: *in-doubt* until a later ``commit``/``abort`` resolves it.
BEGIN = "begin"
ALLOC = "alloc"
UNDO = "undo"
IMAGE = "image"
FREE = "free"
PREPARE = "prepare"
COMMIT = "commit"
ABORT = "abort"

#: bounded attempts of the verified log force; the fault plan re-draws
#: per write attempt, so repeated tears of one page decay geometrically
_MAX_FORCE_ATTEMPTS = 8


def active_wal(disk: SimulatedDisk) -> "WriteAheadLog | None":
    """The write-ahead log armed on ``disk``'s stack, or ``None``.

    Wrapper disks (:class:`~repro.storage.faults.FaultyDisk`,
    :class:`~repro.storage.replica.ReplicatedDisk`) proxy the ``wal``
    attribute to the base disk, so any layer of the stack answers.
    """
    return getattr(disk, "wal", None)


def _snapshot_payload(payload: Any) -> tuple:
    """A restorable copy of a page's structural payload.

    Knows the engine's two payload shapes — the leaf ``dict`` and the
    inner-node object with ``keys``/``children`` lists — and falls back
    to carrying anything else by reference.
    """
    if payload is None:
        return ("none",)
    if isinstance(payload, dict):
        return ("dict", dict(payload))
    if hasattr(payload, "keys") and hasattr(payload, "children"):
        return ("node", list(payload.keys), list(payload.children))
    return ("opaque", payload)


def _restore_payload(page: Page, snap: tuple | None) -> None:
    """Put a :func:`_snapshot_payload` copy back onto ``page`` in place
    (``None``: no payload was logged, leave it).

    Container identity is preserved where possible: other pages hold
    references to the same leaf dict / inner-node object.
    """
    if snap is None:
        return
    kind = snap[0]
    if kind == "none":
        page.payload = None
    elif kind == "dict":
        if isinstance(page.payload, dict):
            page.payload.clear()
            page.payload.update(snap[1])
        else:
            page.payload = dict(snap[1])
    elif kind == "node":
        node = page.payload
        if node is not None and hasattr(node, "keys"):
            node.keys = list(snap[1])
            node.children = list(snap[2])
    else:
        page.payload = snap[1]


@dataclass(frozen=True)
class WALRecord:
    """One journal entry.  ``records``/``payload``/``checksum`` are only
    populated for page-image kinds (``undo`` carries the before-image
    and the pre-batch checksum, ``image`` the after-image); ``label``
    carries the batch label on ``begin`` and the global transaction id
    on ``prepare``."""

    lsn: int
    txn: int
    kind: str
    page_id: int | None = None
    records: tuple | None = None
    payload: tuple | None = None
    checksum: int | None = None
    label: str | None = None


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`WriteAheadLog.recover` did."""

    examined_pages: int
    healed_pages: int
    rolled_back_batches: int
    freed_pages: int
    log_records: int
    log_pages: int
    resolved_commits: int = 0
    resolved_aborts: int = 0
    wal_name: str = "wal"

    def describe(self) -> str:
        resolved = ""
        if self.resolved_commits or self.resolved_aborts:
            resolved = (
                f", in-doubt resolved {self.resolved_commits} commit / "
                f"{self.resolved_aborts} presumed-abort"
            )
        return (
            f"{self.wal_name} recovery: {self.healed_pages}/"
            f"{self.examined_pages} pages healed by redo, "
            f"{self.rolled_back_batches} batch(es) rolled back, "
            f"{self.freed_pages} page(s) freed{resolved}, "
            f"log={self.log_records} records on {self.log_pages} pages"
        )


@dataclass(frozen=True)
class RecoveryEvent(TelemetryEvent):
    """One completed recovery pass, emitted exactly once per pass.

    Tests and the benchmark harness watch redo/rollback/in-doubt
    resolution on the :mod:`repro.telemetry` bus, the same way they
    watch shard degradations.
    """

    wal_name: str
    report: RecoveryReport

    def describe(self) -> str:
        return self.report.describe()


class _Batch:
    """In-flight batch state (the durable truth is in the log records)."""

    __slots__ = ("txn_id", "label", "touched", "allocated", "frees", "owners")

    def __init__(self, txn_id: int, label: str) -> None:
        self.txn_id = txn_id
        self.label = label
        #: page_id -> (records, payload snapshot, stored_checksum) before-image
        self.touched: dict[int, tuple[tuple, tuple | None, int | None]] = {}
        self.allocated: list[int] = []
        self.frees: list[int] = []
        #: owner -> its meta_snapshot() when it joined
        self.owners: dict[Any, Any] = {}

    def join(self, owner: Any) -> None:
        """Record ``owner``'s ``meta_snapshot()`` on its first join."""
        owners = self.owners
        if owner not in owners:
            owners[owner] = owner.meta_snapshot()

    def restore_owners(self) -> None:
        """Put every owner's descriptors back, first joiner last (so the
        earliest snapshot wins), and forget them."""
        owners, self.owners = self.owners, {}
        for owner, meta in reversed(owners.items()):
            owner.meta_restore(meta)


class _Scope:
    """The context manager behind :meth:`WriteAheadLog.journaled`; a
    class, not a generator, because journaled inserts open one per row
    (a generator-based scope made the harness's ``ingest_durable``
    inserts ~3 % slower).
    """

    __slots__ = ("wal", "label", "owner", "opened")

    def __init__(self, wal: WriteAheadLog, label: str, owner: Any) -> None:
        self.wal = wal
        self.label = label
        self.owner = owner

    def __enter__(self) -> int:
        wal = self.wal
        batch = wal._active
        self.opened = batch is None
        if batch is None:
            batch = wal._open(self.label)
        batch.join(self.owner)
        return batch.txn_id

    def __exit__(self, exc_type: type[BaseException] | None, *_: object) -> None:
        if self.opened:
            if exc_type is None:
                self.wal.commit()
            else:
                self.wal.abort()


class AppendOnlyLog:
    """Shared machinery of the engine's append-only simulated logs.

    Owns the dedicated log device, the in-memory record mirror, dense
    LSN assignment, the deterministic crash hook
    (:meth:`crash_after_appends`) and the *verified force*: every
    appended record is forced to the device, and a torn log page is
    detected against the intended content and re-forced (bounded
    attempts) — so an acknowledged append is durable even on a faulted
    log device.  :class:`WriteAheadLog` (per-disk page journaling) and
    the 2PC coordinator's decision log
    (:class:`repro.txn.log.DecisionLog`) both build on it; each log's
    ``name`` is its identity in crash-schedule enumeration, telemetry
    and recovery reports.
    """

    def __init__(
        self,
        params: DiskParameters | None = None,
        *,
        records_per_page: int = 64,
        name: str = "log",
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if records_per_page < 1:
            raise ValueError("records_per_page must be >= 1")
        self.name = name
        self.records_per_page = records_per_page
        self.retry_policy = (
            retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        )
        device: SimulatedDisk = SimulatedDisk(params)
        if fault_plan is not None:
            if fault_plan.corrupt_rate > 0 or any(
                kind == CORRUPT for _, _, kind in fault_plan.scripted_reads
            ):
                raise ValueError(
                    "log devices verify every force at write time, so "
                    "silent on-platter rot cannot be modelled on them — "
                    "use transient, torn or latency faults"
                )
            device = FaultyDisk(device, fault_plan)
        #: the log's own device: same cost model, separate address space
        self.device: SimulatedDisk = device
        #: in-memory mirror of the durable log, in LSN order
        self.records: list[WALRecord] = []
        self._log_pages: list[Page] = []
        self._next_lsn = 0
        self._crash_countdown: int | None = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def append_count(self) -> int:
        """Append attempts so far (the crash grid's schedule index space)."""
        return self._next_lsn

    @property
    def log_page_count(self) -> int:
        return len(self._log_pages)

    # ------------------------------------------------------------------
    # fault administration (log-device fault plan, if any)
    # ------------------------------------------------------------------
    def arm_log_faults(self) -> None:
        """Start injecting the log device's fault plan, if one exists."""
        if isinstance(self.device, FaultyDisk):
            self.device.arm()

    def disarm_log_faults(self) -> None:
        """Stop log-device injection; forces become pure delegation."""
        if isinstance(self.device, FaultyDisk):
            self.device.disarm()

    # ------------------------------------------------------------------
    # the deterministic crash hook
    # ------------------------------------------------------------------
    def crash_after_appends(self, appends: int) -> None:
        """Raise :class:`SimulatedCrashError` on the ``appends``-th next
        append attempt (that record is *lost*), then disarm — so the
        in-process rollback can still write its ``abort`` record, exactly
        like a recovery pass over the reopened log would."""
        if appends < 1:
            raise ValueError("crash countdown must be >= 1")
        self._crash_countdown = appends

    # ------------------------------------------------------------------
    # the append path (every record is forced to the log device)
    # ------------------------------------------------------------------
    def _append_record(
        self,
        kind: str,
        txn: int,
        *,
        page_id: int | None = None,
        records: tuple | None = None,
        payload: tuple | None = None,
        checksum: int | None = None,
        label: str | None = None,
    ) -> tuple[WALRecord, float]:
        """Append one record and force it; returns (record, force time)."""
        if self._crash_countdown is not None:
            self._crash_countdown -= 1
            if self._crash_countdown <= 0:
                self._crash_countdown = None
                raise SimulatedCrashError(
                    f"simulated crash: {self.name} append #{self._next_lsn} "
                    f"({kind} for txn {txn}) never reached the log"
                )
        record = WALRecord(
            lsn=self._next_lsn,
            txn=txn,
            kind=kind,
            page_id=page_id,
            records=records,
            payload=payload,
            checksum=checksum,
            label=label,
        )
        self._next_lsn += 1
        if not self._log_pages or self._log_pages[-1].is_full:
            self._log_pages.append(self.device.allocate(self.records_per_page))
        tail = self._log_pages[-1]
        tail.add(record)
        before = self.device.stats.time
        self._force_tail(tail)
        delta = self.device.stats.time - before
        # the mirror is the log itself, not page content: no version field
        self.records.append(record)  # reprolint: allow(R003)
        return record, delta

    def _force_tail(self, tail: Page) -> None:
        """Force the tail log page, verifying the content that landed.

        A torn log force truncates the page in place; the verified force
        detects the divergence from the intended record list, restores
        the same record objects (mirror identity is preserved) and
        forces again — write-verify-rewrite, the reason an acknowledged
        append survives a faulted log device.
        """
        intended = list(tail.records)
        for _ in range(_MAX_FORCE_ATTEMPTS):
            self.device.write(tail, sequential=True, category="wal")
            if tail.records == intended:
                return
            tail.restore(intended)
            self.device.stats.faults.wal_reforced += 1
        raise LogDeviceError(
            f"{self.name} log page {tail.page_id} failed to force intact "
            f"after {_MAX_FORCE_ATTEMPTS} attempts"
        )

    def _scan_device(self) -> None:
        """One sequential, priced scan of the log device (recovery read).

        The shared resilient read: transient faults on a faulted log
        device are retried on the policy's backoff schedule, charged to
        the device clock.  Its integrity check is a no-op here — a
        verified force never leaves a sealed checksum on a log page.
        """
        for log_page in self._log_pages:
            read_page_resilient(
                self.device,
                log_page.page_id,
                policy=self.retry_policy,
                sequential=True,
                category="wal",
            )


class WriteAheadLog(AppendOnlyLog):
    """Journal of page mutations for one simulated disk.

    Constructing the log *arms* it: it registers itself as ``disk.wal``,
    and WAL-aware engine code (:func:`active_wal`) starts journaling its
    mutations.  ``records_per_page`` sizes the log device's pages — log
    records are small, so many fit one page and sequential forces are
    cheap (mostly ``t_tau``).  ``name`` is the log's identity in
    recovery telemetry and crash-schedule enumeration; ``fault_plan``
    puts the *log device itself* under fault injection (armed together
    with the data disk by :meth:`repro.relational.table.Database
    .arm_faults`).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        *,
        records_per_page: int = 64,
        name: str = "wal",
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if active_wal(disk) is not None:
            raise RuntimeError("disk already has an armed write-ahead log")
        super().__init__(
            disk.params,
            records_per_page=records_per_page,
            name=name,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
        self.disk = disk
        self._next_txn = 0
        self._active: _Batch | None = None
        #: gid -> in-doubt batch, held between ``prepare`` and the verdict
        self._prepared: dict[str, _Batch] = {}
        disk.wal = self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def in_batch(self) -> bool:
        return self._active is not None

    @property
    def prepared_gids(self) -> tuple[str, ...]:
        """Global transaction ids of batches currently held in-doubt."""
        return tuple(self._prepared)

    def detach(self) -> None:
        """Unregister from the disk; engine code stops journaling."""
        if getattr(self.disk, "wal", None) is self:
            self.disk.wal = None

    # ------------------------------------------------------------------
    # the append path (force time is mirrored onto the data disk clock)
    # ------------------------------------------------------------------
    def _append(self, kind: str, txn: int, **fields: Any) -> WALRecord:
        record, delta = self._append_record(kind, txn, **fields)
        # the engine waits for the force, so the device time is mirrored
        # onto the data disk's clock
        self.disk.advance_clock(delta)
        faults = self.disk.stats.faults
        faults.wal_appends += 1
        faults.wal_delay += delta
        return record

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def begin(self, label: str = "batch") -> int:
        """Open a batch; returns its transaction id."""
        return self._open(label).txn_id

    def _open(self, label: str) -> _Batch:
        if self._active is not None:
            raise RuntimeError(
                f"a WAL batch is already active ({self._active.label!r})"
            )
        if self._prepared:
            gids = ", ".join(sorted(self._prepared))
            raise RuntimeError(
                f"in-doubt prepared batch(es) [{gids}] must be decided "
                "before a new batch begins (prepared state holds its locks)"
            )
        txn_id = self._next_txn
        self._append(BEGIN, txn_id, label=label)
        self._next_txn = txn_id + 1
        batch = self._active = _Batch(txn_id, label)
        return batch

    def commit(self) -> None:
        """Close the batch successfully and apply its deferred frees.
        If the commit record never lands the batch can only roll back:
        its owners are restored at once, its pages by :meth:`recover`."""
        batch = self._require_batch()
        try:
            self._commit(batch)
        except BaseException:
            batch.restore_owners()
            raise
        self._active = None
        self._validate()

    def abort(self) -> None:
        """Roll the batch back: restore before-images, free allocations."""
        batch = self._require_batch()
        self._active = None
        self._rollback(batch)
        self._validate()

    def join(self, owner: Any) -> None:
        """Enter ``owner`` (a tree, a table, a heap file) into the active
        batch: its ``meta_snapshot()`` is taken on its first join, and
        every rollback of the batch hands it back to ``meta_restore``."""
        self._require_batch().join(owner)

    # ------------------------------------------------------------------
    # two-phase participation (the coordinator lives in repro.txn)
    # ------------------------------------------------------------------
    def prepare(self, gid: str) -> int:
        """Close the active batch into the *in-doubt* prepared state.

        The batch's before-images are held and its pages stay locked
        (a new ``begin`` is refused) until the coordinator's verdict
        arrives via :meth:`commit_prepared` / :meth:`abort_prepared`, or
        :meth:`recover` resolves it from the decision log.  The forced
        ``prepare`` record carries ``gid`` so a post-crash recovery can
        match the in-doubt batch to the coordinator's decision.
        """
        batch = self._require_batch()
        if gid in self._prepared:
            raise RuntimeError(f"a prepared batch already holds gid {gid!r}")
        self._append(PREPARE, batch.txn_id, label=gid)
        self._active = None
        self._prepared[gid] = batch
        self._validate()
        return batch.txn_id

    def commit_prepared(self, gid: str) -> None:
        """Apply the coordinator's commit verdict to a prepared batch."""
        batch = self._prepared.get(gid)
        if batch is None:
            raise RuntimeError(f"no prepared batch for gid {gid!r}")
        self._commit(batch)
        del self._prepared[gid]
        self._validate()

    def abort_prepared(self, gid: str) -> None:
        """Apply the coordinator's abort verdict: roll the batch back."""
        batch = self._prepared.pop(gid, None)
        if batch is None:
            raise RuntimeError(f"no prepared batch for gid {gid!r}")
        self._rollback(batch)
        self._validate()

    def journaled(self, label: str, owner: Any) -> _Scope:
        """``with wal.journaled("insert", tree):`` — begin/commit with
        abort on error, ``owner`` :meth:`joining <join>` the batch.

        Re-entrant: a nested scope joins the enclosing batch (the
        outermost scope owns commit/abort), so a bulk load that calls
        journaled inserts forms a single atomic batch.
        """
        return _Scope(self, label, owner)

    def _require_batch(self) -> _Batch:
        if self._active is None:
            raise RuntimeError("no active WAL batch")
        return self._active

    def _commit(self, batch: _Batch) -> None:
        """Log ``batch``'s commit, then apply its deferred frees — for
        :meth:`commit`, :meth:`commit_prepared` and recovery alike."""
        self._append(COMMIT, batch.txn_id)
        for page_id in batch.frees:
            self.disk.free(page_id)

    def _rollback(self, batch: _Batch) -> int:
        """Undo ``batch`` — before-images, allocations, owners — then log
        its abort; returns the pages freed.  The one undo routine of
        :meth:`abort`, :meth:`abort_prepared` and recovery."""
        allocated = set(batch.allocated)
        for page_id, (records, payload, checksum) in batch.touched.items():
            if page_id in allocated or not self.disk.page_exists(page_id):
                continue
            page = self.disk.peek(page_id)
            page.restore(records, checksum)
            _restore_payload(page, payload)
        freed = [p for p in batch.allocated if self.disk.page_exists(p)]
        for page_id in freed:
            self.disk.free(page_id)
        batch.restore_owners()
        self._append(ABORT, batch.txn_id)
        self.disk.stats.faults.wal_rollbacks += 1
        return len(freed)

    def _logged_batch(self, txn: int) -> _Batch:
        """Rebuild ``txn``'s batch from its undo/alloc/free records (a
        batch whose in-memory state did not survive); it has no owners."""
        batch = _Batch(txn, "")
        for record in self.records:
            page_id = record.page_id
            if record.txn != txn or page_id is None:
                continue
            if record.kind == UNDO:
                batch.touched.setdefault(
                    page_id, (record.records or (), record.payload, record.checksum)
                )
            elif record.kind == ALLOC:
                batch.allocated.append(page_id)
            elif record.kind == FREE:
                batch.frees.append(page_id)
        return batch

    # ------------------------------------------------------------------
    # journaling primitives (engine code calls these inside a batch)
    # ------------------------------------------------------------------
    def log_alloc(self, page: Page) -> None:
        """Journal a page allocation so rollback can free it.

        The page joins the batch before its record is appended, so a
        crash on that append cannot leak it.  Outside a batch this is a
        no-op: unbatched allocations (e.g. an empty tree's root, created
        at table definition time) are not covered by the log.
        """
        batch = self._active
        if batch is None:
            return
        batch.allocated.append(page.page_id)
        self._append(ALLOC, batch.txn_id, page_id=page.page_id)

    def touch(self, page: Page) -> None:
        """Journal ``page``'s before-image on its first mutation this batch.

        No-op outside a batch, for pages already touched, and for pages
        this batch allocated (rollback frees those instead).
        """
        batch = self._active
        if batch is None:
            return
        if page.page_id in batch.touched or page.page_id in batch.allocated:
            return
        before = (
            page.snapshot(),
            _snapshot_payload(page.payload),
            page.stored_checksum,
        )
        batch.touched[page.page_id] = before
        self._append(
            UNDO,
            batch.txn_id,
            page_id=page.page_id,
            records=before[0],
            payload=before[1],
            checksum=before[2],
        )

    def log_image(self, page: Page) -> None:
        """Journal ``page``'s after-image (redo record).

        Must be appended *before* the data-disk write it covers — that
        ordering is the write-ahead protocol, and it is what lets a torn
        data write replay from the log.
        """
        batch = self._require_batch()
        self._append(
            IMAGE,
            batch.txn_id,
            page_id=page.page_id,
            records=page.snapshot(),
            payload=_snapshot_payload(page.payload),
        )

    def log_free(self, page_id: int) -> None:
        """Defer a page free to commit time (rollback keeps the page)."""
        batch = self._require_batch()
        batch.frees.append(page_id)
        self._append(FREE, batch.txn_id, page_id=page_id)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(
        self, decide: Callable[[str], bool] | None = None
    ) -> RecoveryReport:
        """Redo-on-open: roll back open batches, resolve in-doubt
        prepared batches, replay committed images.

        ``decide`` maps a prepared batch's global transaction id to the
        coordinator's logged verdict (``True`` = commit).  Without a
        decision function — or for any gid it does not vouch for — the
        participant *presumes abort*: safe, because the coordinator only
        acknowledges a commit after its decision record is durable, so a
        missing decision means no participant committed.

        Safe to call any number of times; a second pass finds every page
        matching its committed image and heals nothing.  Emits exactly
        one :class:`RecoveryEvent` per pass.
        """
        rolled_back = 0
        freed = 0
        resolved_commits = 0
        resolved_aborts = 0
        if self._active is not None:
            # an open in-process batch is an interrupted one
            freed += len(self._active.allocated)
            self.abort()
            rolled_back += 1
        # one sequential scan of the log device, mirrored onto the clock
        before = self.device.stats.time
        self._scan_device()
        self.disk.advance_clock(self.device.stats.time - before)

        committed = {r.txn for r in self.records if r.kind == COMMIT}
        closed = committed | {r.txn for r in self.records if r.kind == ABORT}
        prepared: dict[int, str] = {
            r.txn: r.label or ""
            for r in self.records
            if r.kind == PREPARE and r.txn not in closed
        }
        open_txns = [
            r.txn
            for r in self.records
            if r.kind == BEGIN and r.txn not in closed and r.txn not in prepared
        ]
        # roll back batches the in-process abort never saw (a log replayed
        # "from disk": the crash hook can lose the begin's batch object)
        for txn in open_txns:
            rolled_back += 1
            freed += self._rollback(self._logged_batch(txn))

        # resolve in-doubt prepared batches against the decision log:
        # commit when the coordinator durably decided commit, otherwise
        # presume abort.  The log drives both; a batch still held
        # in-process contributes only its owners' snapshots
        for txn, gid in prepared.items():
            batch = self._logged_batch(txn)
            held = self._prepared.pop(gid, None)
            if held is not None:
                batch.owners = held.owners
            if decide is not None and decide(gid):
                self._commit(batch)
                committed.add(txn)
                resolved_commits += 1
            else:
                freed += self._rollback(batch)
                resolved_aborts += 1

        # last committed after-image per page, in LSN order
        last_image: dict[int, WALRecord] = {}
        for record in self.records:
            if record.kind == IMAGE and record.txn in committed:
                if record.page_id is not None:
                    last_image[record.page_id] = record
        examined = 0
        healed = 0
        for page_id in sorted(last_image):
            if not self.disk.page_exists(page_id):
                continue  # committed-freed later, or dropped by the engine
            examined += 1
            # redo reads the page to compare it against the logged image
            self.disk.read(page_id, sequential=True, category="wal")
            record = last_image[page_id]
            page = self.disk.peek(page_id)
            intact = (
                list(page.records) == list(record.records or ())
                and page.verify_checksum()
            )
            if intact:
                continue
            page.restore(record.records or ())
            _restore_payload(page, record.payload)
            page.seal_checksum()
            self.disk.write(page, category="wal")
            healed += 1
            self.disk.stats.faults.wal_redo_pages += 1
        self._validate()
        report = RecoveryReport(
            examined_pages=examined,
            healed_pages=healed,
            rolled_back_batches=rolled_back,
            freed_pages=freed,
            log_records=len(self.records),
            log_pages=len(self._log_pages),
            resolved_commits=resolved_commits,
            resolved_aborts=resolved_aborts,
            wal_name=self.name,
        )
        telemetry.emit(RecoveryEvent(wal_name=self.name, report=report))
        return report

    def _validate(self) -> None:
        if invariants.enabled():
            invariants.validate_wal(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"in batch {self._active.label!r}" if self._active else "idle"
        return f"<WriteAheadLog {self.name!r} {len(self.records)} records, {state}>"
