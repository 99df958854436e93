"""The coordinator's decision log: the durable truth of every 2PC verdict.

A :class:`DecisionLog` is an :class:`~repro.storage.wal.AppendOnlyLog`
on its own simulated device (same Section 4.1 cost model, verified
forces, deterministic crash hook), holding three record kinds per global
transaction:

* ``prepare`` — the coordinator has collected every participant's
  prepare vote; the record carries the participant roster so recovery
  knows who to drive;
* ``decision`` — the verdict (``commit`` or ``abort``).  **This force is
  the commit point**: a transaction whose commit decision is durable
  commits on every participant, no matter what crashes afterwards;
* ``ack`` — every participant applied the verdict; recovery can stop
  re-driving this transaction.

Presumed abort is the protocol's asymmetry: a gid with *no* durable
commit decision aborts — participants holding prepared batches roll
back, and the coordinator never needs to log anything for a transaction
that dies early.  The read side (:meth:`decision_for` and friends)
derives entirely from the in-memory record mirror, which the verified
force keeps identical to the durable device at every append boundary.
"""

from __future__ import annotations

from ..storage.disk import DiskParameters
from ..storage.faults import FaultPlan
from ..storage.retry import RetryPolicy
from ..storage.wal import AppendOnlyLog, WALRecord
from .errors import CoordinatorStateError

__all__ = [
    "DecisionLog",
    "D_ACK",
    "D_DECISION",
    "D_PREPARE",
    "VERDICTS",
]

#: decision-log record kinds, in protocol order
D_PREPARE = "prepare"
D_DECISION = "decision"
D_ACK = "ack"

#: the only legal verdicts a decision record may carry
VERDICTS = ("commit", "abort")


class DecisionLog(AppendOnlyLog):
    """Append-only 2PC outcome journal on a dedicated log device."""

    def __init__(
        self,
        params: DiskParameters | None = None,
        *,
        records_per_page: int = 64,
        name: str = "txn-log",
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        super().__init__(
            params,
            records_per_page=records_per_page,
            name=name,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
        #: gid -> local txn id; mirrors the durable log (append-then-map,
        #: so a crashed append never maps a record that does not exist)
        self._txn_of: dict[str, int] = {}
        self._next_txn = 0

    # ------------------------------------------------------------------
    # the write side (each append is one verified force)
    # ------------------------------------------------------------------
    def log_prepare(self, gid: str, participants: tuple[str, ...]) -> None:
        """Force the prepare record carrying the participant roster."""
        if gid in self._txn_of:
            raise CoordinatorStateError(
                f"transaction {gid!r} is already in the decision log"
            )
        if not participants:
            raise CoordinatorStateError(
                f"transaction {gid!r} prepared with an empty participant "
                "roster; recovery would have nobody to drive"
            )
        txn = self._next_txn
        self._append_record(
            D_PREPARE, txn, records=tuple(participants), label=gid
        )
        self._txn_of[gid] = txn
        self._next_txn = txn + 1

    def log_decision(self, gid: str, verdict: str) -> None:
        """Force the verdict — for ``commit``, this is the commit point.

        Idempotent for a repeated identical verdict (recovery may
        re-drive); a *contradictory* verdict is a protocol violation and
        raises.
        """
        if verdict not in VERDICTS:
            raise CoordinatorStateError(
                f"illegal verdict {verdict!r} for transaction {gid!r}"
            )
        existing = self.decision_for(gid)
        if existing is not None:
            if existing != verdict:
                raise CoordinatorStateError(
                    f"transaction {gid!r} already decided {existing!r}; "
                    f"refusing contradictory verdict {verdict!r}"
                )
            return
        txn = self._txn_of.get(gid)
        if txn is None:
            raise CoordinatorStateError(
                f"decision for unknown transaction {gid!r} (no prepare "
                "record); presumed abort needs no log entry"
            )
        self._append_record(D_DECISION, txn, records=(verdict,), label=gid)

    def log_ack(self, gid: str) -> None:
        """Force the ack closing the transaction out (idempotent)."""
        if self.decision_for(gid) is None:
            raise CoordinatorStateError(
                f"ack for transaction {gid!r} without a decision record"
            )
        if self.acked(gid):
            return
        txn = self._txn_of[gid]
        self._append_record(D_ACK, txn, label=gid)

    # ------------------------------------------------------------------
    # the read side (derived from the mirror == the durable log)
    # ------------------------------------------------------------------
    def _records_for(self, gid: str, kind: str) -> list[WALRecord]:
        return [r for r in self.records if r.label == gid and r.kind == kind]

    def decision_for(self, gid: str) -> str | None:
        """The durably logged verdict for ``gid``, or ``None``.

        ``None`` means *presumed abort* to every participant: no commit
        was ever acknowledged, so rolling back is always safe.
        """
        for record in self._records_for(gid, D_DECISION):
            if record.records:
                return str(record.records[0])
        return None

    def acked(self, gid: str) -> bool:
        return bool(self._records_for(gid, D_ACK))

    def prepared_gids(self) -> tuple[str, ...]:
        """Every gid with a durable prepare record, in log order."""
        seen: list[str] = []
        for record in self.records:
            if record.kind == D_PREPARE and record.label is not None:
                seen.append(record.label)
        return tuple(seen)

    def unacked_decisions(self) -> tuple[tuple[str, str], ...]:
        """``(gid, verdict)`` of every decided-but-unacked transaction.

        Recovery re-drives exactly these: the decision is durable but at
        least one participant may not have applied it before the crash.
        """
        pending: list[tuple[str, str]] = []
        for gid in self.prepared_gids():
            verdict = self.decision_for(gid)
            if verdict is not None and not self.acked(gid):
                pending.append((gid, verdict))
        return tuple(pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecisionLog {self.name!r} {len(self.records)} records, "
            f"{len(self._txn_of)} transaction(s)>"
        )
