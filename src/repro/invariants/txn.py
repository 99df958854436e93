"""Two-phase-commit invariants: decision-log structure and cross-log
agreement.

The decision log is the protocol's ground truth — recovery drives every
shard to whatever it says — so its own shape must be beyond suspicion,
and the participant WALs must never contradict it.  These validators run
after every transaction and every recovery pass (under
``REPRO_CHECKS=1``) and pin down:

* each global transaction appears in the decision log as at most one
  ``prepare``, at most one ``decision`` and at most one ``ack``, in that
  order, with a non-empty participant roster and a verdict from the
  legal set;
* **no unilateral commit**: a participant WAL that holds both a
  ``prepare`` record for a gid *and* the commit closing that in-doubt
  transaction requires a durable ``commit`` verdict in the decision log
  for the same gid.  (The converse is legal mid-recovery: a durable
  commit whose participants have not applied yet is exactly the
  in-doubt window recovery exists to close.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..txn.coordinator import TransactionCoordinator

_VERDICTS = frozenset({"commit", "abort"})


def validate_txn_log(coordinator: "TransactionCoordinator") -> None:
    """O(decision-records + participant-log-records) 2PC contract."""
    log = coordinator.log
    prepares: dict[str, int] = {}
    decisions: dict[str, str] = {}
    acks: set[str] = set()
    for record in log.records:
        gid = record.label or ""
        check(
            bool(gid),
            f"decision-log record (lsn {record.lsn}) carries no global "
            "transaction id",
        )
        if record.kind == "prepare":
            check(
                gid not in prepares,
                f"transaction {gid!r} has two prepare records in the "
                "decision log",
            )
            check(
                bool(record.records),
                f"transaction {gid!r} prepared with an empty participant "
                "roster",
            )
            prepares[gid] = record.lsn
        elif record.kind == "decision":
            check(
                gid in prepares,
                f"decision for {gid!r} precedes its prepare record",
            )
            check(
                gid not in decisions,
                f"transaction {gid!r} has two decision records",
            )
            verdict = str(record.records[0]) if record.records else ""
            check(
                verdict in _VERDICTS,
                f"transaction {gid!r} decided illegal verdict {verdict!r}",
            )
            decisions[gid] = verdict
        elif record.kind == "ack":
            check(
                gid in decisions,
                f"ack for {gid!r} without a decision record",
            )
            check(
                gid not in acks,
                f"transaction {gid!r} has two ack records",
            )
            acks.add(gid)
        else:
            check(
                False, f"unknown decision-log record kind {record.kind!r}"
            )
    # cross-check: no participant committed a gid the log did not decide
    for copy in coordinator.sdb.all_copies():
        committed_txns: set[int] = set()
        gid_of_txn: dict[int, str] = {}
        for record in copy.wal_records():
            if record.kind == "prepare" and record.label:
                gid_of_txn[record.txn] = record.label
            elif record.kind == "commit" and record.txn in gid_of_txn:
                committed_txns.add(record.txn)
        for txn in committed_txns:
            gid = gid_of_txn[txn]
            check(
                decisions.get(gid) == "commit",
                f"participant {copy.name} committed "
                f"prepared transaction {gid!r} but the decision log says "
                f"{decisions.get(gid)!r} — a unilateral commit",
            )
