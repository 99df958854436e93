"""Shared degradation-telemetry plumbing: one event shape, one registry.

Three subsystems report "I did not do what was asked, here is the
structured record" events: the plan executor's
:class:`~repro.planner.executor.DegradationEvent` (an access path
failed, the query re-planned), the parallel executor's
:class:`~repro.planner.parallel.ExecutorFallbackEvent` (a requested
execution mode was downgraded) and the shard coordinator's
:class:`~repro.shard.ShardDegradationEvent` (a shard copy was retried,
repaired, failed over, or given up on).  They share one contract:

* the event is a frozen dataclass extending :class:`TelemetryEvent`
  with a human-readable :meth:`~TelemetryEvent.describe`;
* every downgrade path emits **exactly one** event — never zero (a
  silent downgrade) and never duplicates;
* subscribers register through an :class:`ObserverRegistry`, and events
  are delivered *outside* the registry lock so an observer touching the
  buffer pool cannot nest pool work under the observer lock.

The registry lock defaults to the declared ``executor-observers`` rank
of :data:`repro.invariants.sanitizer.GLOBAL_LOCK_ORDER`; the shard
coordinator names its own ``shard-observers`` lock.  Either way the
invariant is the same — observer lists never nest inside any other
engine lock, whichever subsystem owns them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar

from .invariants.sanitizer import guarded_by, note_access, tracked_lock

__all__ = [
    "JoinEvent",
    "ObserverRegistry",
    "TelemetryEvent",
    "emit_join_event",
    "register_join_observer",
    "unregister_join_observer",
]


@dataclass(frozen=True)
class TelemetryEvent:
    """Base shape of every structured downgrade/degradation event.

    Subclasses add their fields and override :meth:`describe`; the base
    exists so today's subscribers (the benchmark harness's per-layer
    counters, tests asserting "exactly one event per downgrade") can
    treat all event families uniformly.
    """

    def describe(self) -> str:
        """One human-readable line describing the downgrade."""
        raise NotImplementedError(
            f"{type(self).__name__} must implement describe()"
        )


_EventT = TypeVar("_EventT", bound=TelemetryEvent)


@guarded_by("_lock", "_observers")
class ObserverRegistry(Generic[_EventT]):
    """Subscribers of one event family behind the observers lock.

    Today's subscribers are tests and the benchmark harness.  They
    may register from one thread while a scan emits from another, so
    the list is guarded like every other shared structure.  Events are
    delivered *outside* the lock: an observer may do arbitrary engine
    work (touch the buffer pool, start a repair) without nesting it
    under the observer lock.
    """

    def __init__(self, name: str = "executor-observers") -> None:
        self._lock = tracked_lock(name)
        self._observers: list[Callable[[_EventT], Any]] = []

    def register(self, observer: Callable[[_EventT], Any]) -> None:
        with self._lock:
            self._observers.append(observer)
            note_access(self, "_observers", write=True)

    def unregister(self, observer: Callable[[_EventT], Any]) -> None:
        with self._lock:
            if observer in self._observers:
                self._observers.remove(observer)
            note_access(self, "_observers", write=True)

    def emit(self, event: _EventT) -> None:
        with self._lock:
            observers = tuple(self._observers)
        for observer in observers:
            observer(event)


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


#: process-wide registry for join telemetry; no observers are registered
#: by default, so emission is a no-op on every pre-existing code path
_JOIN_OBSERVERS: "ObserverRegistry[JoinEvent]" = ObserverRegistry(
    "join-observers"
)


def register_join_observer(observer: Callable[[JoinEvent], Any]) -> None:
    """Subscribe to the exactly-once per-leg :class:`JoinEvent` stream."""
    _JOIN_OBSERVERS.register(observer)


def unregister_join_observer(observer: Callable[[JoinEvent], Any]) -> None:
    _JOIN_OBSERVERS.unregister(observer)


def emit_join_event(event: JoinEvent) -> None:
    """Deliver a join leg's final record to all subscribers."""
    _JOIN_OBSERVERS.emit(event)
