"""Engine telemetry: one event shape, one bus.

Six families of frozen events extending :class:`TelemetryEvent` report
how the paper's paths finished or degraded: the planner's
``DegradationEvent`` (an access path failed, the query re-planned), the
parallel executor's ``ExecutorFallbackEvent`` (an execution mode was
downgraded), the shard coordinator's ``ShardDegradationEvent`` (a copy
was retried, repaired, failed over or given up on), the WAL's
``RecoveryEvent`` (one recovery pass), the 2PC coordinator's
``TxnEvent`` (one protocol rung) and the join operators'
:class:`JoinEvent` (one leg drained).  The contract:

* every reported path emits **exactly one** event through :func:`emit`
  — never zero (a silent downgrade), never duplicates;
* :func:`subscribe` with event classes (*kinds*) sees only instances of
  those, without kinds every event;
* delivery runs outside the bus lock (the ``telemetry-observers`` rank
  of :data:`~repro.invariants.sanitizer.GLOBAL_LOCK_ORDER`), in
  subscription order, so an observer doing engine work never nests it
  under the observer lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from .invariants.sanitizer import guarded_by, note_access, tracked_lock

__all__ = [
    "JoinEvent",
    "TelemetryEvent",
    "compat_aliases",
    "emit",
    "subscribe",
    "unsubscribe",
]

Observer = Callable[[Any], Any]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base shape of every structured event the engine emits.

    Subclasses add their fields and override :meth:`describe`; the base
    exists so subscribers (the benchmark harness's per-layer counters,
    tests asserting "exactly one event per downgrade") can treat all
    event families uniformly.
    """

    def describe(self) -> str:
        """One human-readable line describing the event."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement describe()"
        )


@guarded_by("_lock", "_subscribers")
class _Bus:
    """The subscriber list behind the one observer lock: tests and the
    benchmark harness may subscribe while a scan thread emits."""

    def __init__(self) -> None:
        self._lock = tracked_lock("telemetry-observers")
        self._subscribers: list[tuple[Observer, tuple[type, ...]]] = []

    def subscribe(self, observer: Observer, *kinds: type) -> None:
        """Deliver every later event that is an instance of ``kinds``
        (of any :class:`TelemetryEvent` without kinds) to ``observer``.

        Subscribing twice means two deliveries per event.
        """
        entry = (observer, kinds or (TelemetryEvent,))
        with self._lock:
            self._subscribers.append(entry)
            note_access(self, "_subscribers", write=True)

    def unsubscribe(self, observer: Observer, *kinds: type) -> None:
        """Drop one subscription made with the same observer and kinds
        (a no-op when there is none)."""
        entry = (observer, kinds or (TelemetryEvent,))
        with self._lock:
            if entry in self._subscribers:
                self._subscribers.remove(entry)
            note_access(self, "_subscribers", write=True)

    def emit(self, *events: TelemetryEvent) -> None:
        """Deliver each of ``events``, in order, to its subscribers."""
        with self._lock:
            subscribers = tuple(self._subscribers)
        for event in events:
            for observer, kinds in subscribers:
                if isinstance(event, kinds):
                    observer(event)


_BUS = _Bus()
subscribe = _BUS.subscribe
unsubscribe = _BUS.unsubscribe
emit = _BUS.emit


def compat_aliases(
    kind: type[TelemetryEvent],
) -> tuple[Callable[[Observer], None], Callable[[Observer], None]]:
    """A ``register`` / ``unregister`` pair subscribing only ``kind``.

    Backs the per-family ``register_*_observer`` names the frozen
    benchmark harness imports: one callable registered through all six
    pairs still sees every event exactly once.
    """
    return (
        lambda observer: subscribe(observer, kind),
        lambda observer: unsubscribe(observer, kind),
    )


@dataclass(frozen=True)
class JoinEvent(TelemetryEvent):
    """Exactly-once record of one completed join leg.

    Emitted by a join operator when its output stream drains *naturally*
    (the merge loop ends on its own) — an abandoned iteration or an
    error emits nothing, so observers can treat the event as "this leg's
    numbers are final".  A co-partitioned sharded join emits one event
    per shard leg, labelled with :attr:`shard`; the serial operators
    leave it ``None``.

    Clocks are simulated seconds from the engine's
    :class:`~repro.storage.disk.SimulatedDisk`; they are ``None`` when
    the operator was not handed a disk to observe.
    """

    operator: str
    rows: int
    pages_skipped_by_pushdown: int = 0
    start_clock: float | None = None
    first_tuple_clock: float | None = None
    end_clock: float | None = None
    shard: int | None = None

    @property
    def time_to_first(self) -> float | None:
        """Seconds from operator start to first output tuple."""
        if self.start_clock is None or self.first_tuple_clock is None:
            return None
        return self.first_tuple_clock - self.start_clock

    def describe(self) -> str:
        where = "" if self.shard is None else f" shard={self.shard}"
        first = (
            "no tuples"
            if self.time_to_first is None
            else f"first tuple after {self.time_to_first:.6f}s"
        )
        return (
            f"{self.operator}{where}: {self.rows} rows, "
            f"{self.pages_skipped_by_pushdown} pages skipped by pushdown, "
            f"{first}"
        )


# Kept only for the frozen benchmark harness; deleted by the harness-v2 PR.
register_join_observer, unregister_join_observer = compat_aliases(JoinEvent)
emit_join_event = emit
