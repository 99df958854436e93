"""Structured telemetry for the two-phase-commit coordinator.

Every rung of a global transaction's life — begin, per-participant
prepare, the logged decision, per-participant commit/abort, the final
ack, and post-crash in-doubt resolution — emits exactly one
:class:`TxnEvent` on the :mod:`repro.telemetry` bus the shard
coordinator uses for degradations and the WAL for recovery passes, so
one subscriber can watch a write travel the whole 2PC state machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..telemetry import TelemetryEvent

__all__ = ["TxnEvent"]

#: 2PC phases, in protocol order (``resolved`` is recovery-only).
_PHASES = (
    "begin",
    "prepared",
    "decided",
    "committed",
    "aborted",
    "acked",
    "resolved",
)


@dataclass(frozen=True)
class TxnEvent(TelemetryEvent):
    """One rung of the 2PC state machine for one global transaction.

    ``phase`` is one of ``begin`` (work dispatched to the participants),
    ``prepared`` (one participant forced its prepare record), ``decided``
    (the coordinator durably logged its verdict), ``committed`` /
    ``aborted`` (one participant applied the verdict), ``acked`` (every
    participant applied it; the decision is closed out), or ``resolved``
    (recovery settled an in-doubt transaction from the decision log).
    """

    gid: str
    phase: str
    participant: str = ""
    verdict: str = ""
    detail: str = ""

    def describe(self) -> str:
        parts = [f"txn {self.gid} {self.phase}"]
        if self.participant:
            parts.append(f"participant={self.participant}")
        if self.verdict:
            parts.append(f"verdict={self.verdict}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)
