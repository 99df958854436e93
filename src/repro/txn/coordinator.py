"""Two-phase commit over the per-shard write-ahead logs.

A :class:`TransactionCoordinator` attaches to a
:class:`~repro.shard.ShardedDatabase` whose every copy runs a WAL, and
makes multi-shard writes (bulk loads, insert batches) atomic across
those ``k × r`` independent logs:

1. **work** — every participant opens a WAL batch under the global
   transaction id (gid) and applies its slab of the write;
2. **prepare** — every participant forces a ``prepare`` record and
   moves its batch into the in-doubt state (before-images held, new
   batches refused);
3. **decide** — the coordinator forces ``prepare`` then ``decision``
   records onto its own :class:`~repro.txn.log.DecisionLog`.  The
   commit-decision force is *the* commit point of the protocol;
4. **apply** — every participant commits (or rolls back) its prepared
   batch; the coordinator forces an ``ack`` once all have applied.

Any failure before the commit point aborts everywhere — and a crash
before it needs no decision record at all, because participants
**presume abort** for a prepared gid the decision log does not vouch
for.  Any crash after the commit point is driven forward by
:meth:`TransactionCoordinator.recover`, which replays the decision log
and re-commits every in-doubt participant.  The deterministic crash
hooks on every device (coordinator log, shard WALs, shard data disks)
let the crash-schedule explorer (``tools.crashgrid``) prove both halves
at every single append index.

Each participant is a :class:`~repro.shard.ShardCopy`, driven through
its ``txn_*`` methods.  The coordinator holds no in-memory snapshot: a
copy's table joins its WAL batch, whose own rollback restores the tree
descriptors with the pages on every abort path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .. import invariants, telemetry
from ..storage.disk import DiskParameters
from ..storage.errors import SimulatedCrashError, StorageError
from ..storage.faults import FaultPlan
from ..storage.retry import RetryPolicy
from ..storage.wal import RecoveryReport
from .errors import CoordinatorStateError, TxnAbortedError
from .events import TxnEvent
from .log import DecisionLog

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..shard import RowSource, ShardCopy, ShardedDatabase
    from ..shard.coordinator import CrashHook
    from ..relational.table import Row

__all__ = [
    "TransactionCoordinator",
    "TxnRecoveryReport",
    "TxnResult",
]


@dataclass(frozen=True)
class TxnResult:
    """Outcome of one committed global transaction."""

    gid: str
    verdict: str
    rows: int  #: total rows in the sharded database after the verdict
    participants: tuple[str, ...]


@dataclass(frozen=True)
class TxnRecoveryReport:
    """What one coordinator-driven recovery pass did, across all logs."""

    participant_reports: tuple[RecoveryReport, ...]
    resolved_commits: int
    resolved_aborts: int
    reacked: tuple[str, ...]
    total_rows: int

    def describe(self) -> str:
        return (
            f"txn recovery: {len(self.participant_reports)} participant "
            f"log(s) replayed, in-doubt resolved {self.resolved_commits} "
            f"commit / {self.resolved_aborts} presumed-abort, "
            f"{len(self.reacked)} decision(s) re-acked, "
            f"{self.total_rows} rows"
        )


class TransactionCoordinator:
    """2PC coordinator for one :class:`~repro.shard.ShardedDatabase`."""

    def __init__(
        self,
        sdb: "ShardedDatabase",
        *,
        params: DiskParameters | None = None,
        records_per_page: int = 64,
        log_fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        log_name: str = "txn-log",
    ) -> None:
        self.sdb = sdb
        self.log = DecisionLog(
            params if params is not None else sdb.params,
            records_per_page=records_per_page,
            name=log_name,
            fault_plan=log_fault_plan,
            retry_policy=retry_policy,
        )
        self._seq = 0
        #: gid of the transaction currently in flight (or crashed);
        #: cleared by commit, completed abort, or :meth:`recover`
        self._active_gid: str | None = None
        sdb.attach_coordinator(self)

    # ------------------------------------------------------------------
    # the public write API
    # ------------------------------------------------------------------
    def atomic_load(self, source: "RowSource", *, fill: float = 1.0) -> TxnResult:
        """Bulk-load every shard copy as one global transaction; each
        copy streams its own pass over ``source``."""
        sdb = self.sdb
        return self._two_phase(
            "load",
            lambda copy: copy.txn_load(
                sdb.shard_rows(copy.shard_index, source), fill=fill
            ),
        )

    def atomic_insert(self, rows: "list[Row]") -> TxnResult:
        """Insert a batch of rows, all shards or none."""
        rows = list(rows)
        owned = [list(self.sdb.shard_rows(s.index, rows)) for s in self.sdb.shards]
        return self._two_phase(
            "insert", lambda copy: copy.txn_insert(owned[copy.shard_index])
        )

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------
    def _two_phase(
        self, label: str, work: "Callable[[ShardCopy], None]"
    ) -> TxnResult:
        if self._active_gid is not None:
            raise CoordinatorStateError(
                f"transaction {self._active_gid!r} is still in flight; "
                "commit/abort it or run recover() first"
            )
        gid = f"{label}#{self._seq}"
        self._seq += 1
        self._active_gid = gid
        copies = tuple(self.sdb.all_copies())
        names = tuple(copy.name for copy in copies)
        telemetry.emit(
            TxnEvent(
                gid=gid, phase="begin", detail=f"{len(copies)} participant(s)"
            )
        )
        begun: list[ShardCopy] = []
        try:
            # phase 1a: work, one open WAL batch per participant
            for copy in copies:
                copy.txn_begin(gid)
                begun.append(copy)
                work(copy)
            # phase 1b: every participant votes by forcing its prepare
            for copy in copies:
                copy.txn_prepare(gid)
                telemetry.emit(
                    TxnEvent(gid=gid, phase="prepared", participant=copy.name)
                )
            # the decision: prepare roster, then the commit point itself
            self.log.log_prepare(gid, names)
            self.log.log_decision(gid, "commit")
        except SimulatedCrashError:
            # the process is dead: no in-process cleanup — recovery owns
            # the outcome (presumed abort; _active_gid stays set so the
            # next transaction is refused until recover() runs)
            raise
        except StorageError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            self._abort(gid, begun, reason)
            raise TxnAbortedError(gid, reason) from exc
        except Exception as exc:
            # non-storage failures (bad input, divergent source) abort
            # the transaction but keep their own type for the caller
            self._abort(gid, begun, f"{type(exc).__name__}: {exc}")
            raise
        telemetry.emit(TxnEvent(gid=gid, phase="decided", verdict="commit"))
        # phase 2: the decision is durable — errors from here on must
        # propagate un-aborted; recovery drives the commit forward
        for copy in copies:
            copy.txn_commit(gid)
            telemetry.emit(
                TxnEvent(gid=gid, phase="committed", participant=copy.name)
            )
        self.log.log_ack(gid)
        telemetry.emit(TxnEvent(gid=gid, phase="acked"))
        rows = self.sdb.refresh_row_counts()
        self._active_gid = None
        self._validate()
        return TxnResult(
            gid=gid, verdict="commit", rows=rows, participants=names
        )

    def _abort(self, gid: str, begun: "list[ShardCopy]", reason: str) -> None:
        """Roll the transaction back everywhere (crash errors re-raise)."""
        logged = gid in self.log.prepared_gids()
        if logged:
            try:
                self.log.log_decision(gid, "abort")
            except SimulatedCrashError:
                raise
            except StorageError:
                # presumed abort covers a decision log that will not
                # accept the record: no durable commit, so no commit
                pass
        telemetry.emit(
            TxnEvent(gid=gid, phase="decided", verdict="abort", detail=reason)
        )
        failures: list[str] = []
        for copy in begun:
            try:
                copy.txn_abort(gid)
            except SimulatedCrashError:
                raise
            except StorageError as exc:
                # recovery's presumed abort re-rolls this participant
                failures.append(f"{copy.name}: {exc}")
                continue
            telemetry.emit(
                TxnEvent(gid=gid, phase="aborted", participant=copy.name)
            )
        if logged and self.log.decision_for(gid) == "abort" and not failures:
            try:
                self.log.log_ack(gid)
            except SimulatedCrashError:
                raise
            except StorageError:
                pass
        self.sdb.refresh_row_counts()
        self._active_gid = None
        self._validate()

    # ------------------------------------------------------------------
    # recovery: replay the decision log, drive every shard to a verdict
    # ------------------------------------------------------------------
    def recover(self) -> TxnRecoveryReport:
        """Resolve every participant log against the decision log.

        Open batches roll back; prepared batches commit exactly when the
        decision log holds a durable commit verdict for their gid and
        are presumed aborted otherwise; decided-but-unacked transactions
        are re-acked once every participant has applied them.  Safe to
        run any number of times.
        """

        def decide(gid: str) -> bool:
            return self.log.decision_for(gid) == "commit"

        reports = [copy.txn_recover(decide) for copy in self.sdb.all_copies()]
        reacked: list[str] = []
        for gid, verdict in self.log.unacked_decisions():
            telemetry.emit(TxnEvent(gid=gid, phase="resolved", verdict=verdict))
            self.log.log_ack(gid)
            reacked.append(gid)
        total = self.sdb.refresh_row_counts()
        self._active_gid = None
        self._validate()
        return TxnRecoveryReport(
            participant_reports=tuple(reports),
            resolved_commits=sum(r.resolved_commits for r in reports),
            resolved_aborts=sum(r.resolved_aborts for r in reports),
            reacked=tuple(reacked),
            total_rows=total,
        )

    # ------------------------------------------------------------------
    # the crash-schedule explorer's device surface
    # ------------------------------------------------------------------
    def _crash_hooks(self) -> "dict[str, CrashHook]":
        """Device name -> its crash hook: the decision log, then each
        participant's own (:meth:`~repro.shard.ShardCopy.crash_hooks`)."""
        log = self.log
        hooks: "dict[str, CrashHook]" = {
            log.name: (lambda: log.append_count, log.crash_after_appends)
        }
        for copy in self.sdb.all_copies():
            hooks.update(copy.crash_hooks())
        return hooks

    def devices(self) -> tuple[str, ...]:
        """Every device a crash can land on, coordinator log first."""
        return tuple(self._crash_hooks())

    def append_count(self, device: str) -> int:
        """Total appends (or data writes) the named device has seen."""
        return self._crash_hooks()[device][0]()

    def crash_after(self, device: str, countdown: int) -> None:
        """Arm a one-shot crash on the named device's ``countdown``-th
        next append (WALs, decision log) or write (data disks)."""
        self._crash_hooks()[device][1](countdown)

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if invariants.enabled():
            invariants.validate_txn_log(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"in flight {self._active_gid!r}" if self._active_gid else "idle"
        )
        return (
            f"<TransactionCoordinator {len(tuple(self.sdb.all_copies()))} "
            f"participant(s), {state}>"
        )
