"""Structured degradation telemetry for the sharded coordinator.

Every downgrade the coordinator performs — transient retry, cross-copy
page repair, failover to a replica copy, abandoning a shard, or giving
up entirely — emits exactly one :class:`ShardDegradationEvent` on the
:mod:`repro.telemetry` bus, beside the planner's ``DegradationEvent``
and the parallel executor's ``ExecutorFallbackEvent``, so one
subscriber can watch the whole engine degrade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..telemetry import TelemetryEvent

__all__ = ["ShardDegradationEvent"]

@dataclass(frozen=True)
class ShardDegradationEvent(TelemetryEvent):
    """One rung of the shard failure ladder.

    ``action`` is one of ``retry`` (transient fault, same copy retried
    after backoff), ``repaired`` (quarantined pages healed bit-exactly
    from a peer copy), ``failover`` (scan resumed on ``fallback_copy``),
    ``abandoned`` (shard dropped from a partial result), or ``failed``
    (shard loss escalated to :class:`~repro.shard.errors.ShardFailedError`).
    """

    shard: int
    copy: int
    action: str
    error_type: str
    error: str
    fallback_copy: int | None = None
    repaired_pages: tuple[int, ...] = field(default=())

    def describe(self) -> str:
        detail = f"{self.error_type}: {self.error}"
        if self.action == "failover" and self.fallback_copy is not None:
            return (
                f"shard {self.shard} copy {self.copy} -> "
                f"copy {self.fallback_copy} ({detail})"
            )
        if self.action == "repaired" and self.repaired_pages:
            pages = ",".join(str(p) for p in self.repaired_pages)
            return (
                f"shard {self.shard} copy {self.copy} repaired "
                f"pages [{pages}] ({detail})"
            )
        return f"shard {self.shard} copy {self.copy} {self.action} ({detail})"
