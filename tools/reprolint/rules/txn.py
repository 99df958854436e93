"""R015 — 2PC discipline: participant mutations go through the coordinator.

The two-phase-commit protocol is only atomic if the
:class:`~repro.txn.TransactionCoordinator` is the *single* driver of the
participant state machine: code that calls a shard copy's participant
methods directly — opening a batch, preparing it, committing or
aborting it, or running its recovery — can commit one shard without a
durable decision, leave a prepared batch no decision record will ever
resolve, or roll back state the decision log says is committed.  Any of
those silently voids the all-or-nothing guarantee the crash-schedule
explorer proves.

Outside the ``txn/`` package (the coordinator itself) and the ``shard/``
package (whose :class:`~repro.shard.ShardCopy` is the participant, and
which routes its own ``load``/``insert_batch``/``recover`` through the
attached coordinator) this rule therefore bans calling a participant's
mutators — ``txn_begin``, ``txn_load``, ``txn_insert``, ``txn_prepare``,
``txn_commit``, ``txn_abort`` and ``txn_recover`` — on any expression.
The read-only surface (``all_copies``, ``name``, ``wal_records``, the
crash hooks) stays public: observing the protocol is fine, driving it
is not.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

from .base import FileContext, FileRule, register

__all__ = ["TxnParticipantRule"]

#: participant-state-machine mutators only the coordinator may drive
PARTICIPANT_MUTATORS = frozenset(
    {
        "txn_begin",
        "txn_load",
        "txn_insert",
        "txn_prepare",
        "txn_commit",
        "txn_abort",
        "txn_recover",
    }
)


@register
class TxnParticipantRule(FileRule):
    """Flag direct participant-API drives outside the 2PC layers."""

    rule = "R015"
    summary = "2PC participant mutation bypassing the transaction coordinator"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        posix = PurePosixPath(ctx.path).as_posix()
        #: the coordinator drives the protocol; the shard package
        #: implements the participant it drives
        self._scoped = "txn/" not in posix and "shard/" not in posix

    def visit_Call(self, node: ast.Call) -> None:
        if not self._scoped:
            return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in PARTICIPANT_MUTATORS
        ):
            self.emit(
                node,
                f"`.{func.attr}()` drives the 2PC participant state "
                "machine directly; only the transaction coordinator may "
                "— a stray begin/prepare/commit/abort/recover can commit "
                "one shard without a durable decision and silently void "
                "cross-shard atomicity",
            )
