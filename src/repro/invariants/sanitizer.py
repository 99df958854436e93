"""Deterministic concurrency sanitizer: lock-order + happens-before checks.

The engine's shared mutable structures (buffer-pool frame maps, I/O
scheduler queues, executor observer lists) are each guarded by one
*declared* lock.  This module provides
the runtime half of the concurrency contract that ``tools/reprolint``
rules R010–R013 enforce statically:

* :class:`TrackedLock` / :func:`tracked_lock` — a named reentrant lock
  that, when checks are armed (``REPRO_CHECKS=1``), validates every
  acquisition against the single global lock order declared with
  :func:`declare_lock_order` and against the runtime lock-order graph
  (an observed ``A -> B`` nesting followed by a ``B -> A`` nesting is a
  deadlock-in-waiting even if neither interleaving deadlocked *this*
  run).  Violations raise :class:`LockOrderViolation` carrying both
  acquisition stacks.
* :func:`guarded_by` — class decorator registering which fields a lock
  protects; :func:`note_access` consults the registry at every
  choke-point mutation and applies vector-clock happens-before
  tracking: two accesses to the same field by different actors must be
  ordered by the locks they held, otherwise :class:`RaceViolation`
  fires with both stacks and the simulated timestamps.
* :func:`current_actor` — names the current logical thread of control.
  Real threads get a default identity; tests push *virtual* actor names
  onto the thread-local ``_tls.actors`` stack and drive them from a
  single OS thread, so a seeded schedule (the chaos-harness seed)
  replays an interleaving — and its violation — deterministically.

Everything is gated on the invariant layer's ``enabled()`` flag: with
checks off, a :class:`TrackedLock` costs one extra boolean test per
acquisition over a plain ``threading.RLock`` and :func:`note_access`
returns immediately.
"""

from __future__ import annotations

import sys
import threading
import weakref
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, TypeVar

from .errors import InvariantViolation

__all__ = [
    "GLOBAL_LOCK_ORDER",
    "LockOrderViolation",
    "RaceViolation",
    "TrackedLock",
    "current_actor",
    "declare_lock_order",
    "guarded_by",
    "note_access",
    "tracked_lock",
]


class LockOrderViolation(InvariantViolation):
    """Two tracked locks were (or could be) acquired in inverted order."""


class RaceViolation(InvariantViolation):
    """Two actors touched guarded state without a happens-before edge."""


# The invariant package installs its ``enabled`` gate here after import
# (avoids a circular import between the package and this module).
_gate: Callable[[], bool] = lambda: False


def _set_gate(gate: Callable[[], bool]) -> None:
    global _gate
    _gate = gate


#: frames kept when a violation is being reported (rare, thorough)
_STACK_DEPTH = 8
#: frames kept on the per-operation hot path (every acquire / access)
_HOT_STACK_DEPTH = 4


def _capture_stack(
    skip: int = 2, depth: int = _STACK_DEPTH
) -> tuple[tuple[str, int, str], ...]:
    """A compact stack as raw ``(file, line, func)`` rows, cheapest capture.

    ``traceback.extract_stack`` touches ``linecache``; walking the frame
    objects directly — and deferring all string formatting to
    :func:`_format_stack`, which only runs when a violation is actually
    reported — keeps the armed overhead per tracked operation in the
    microsecond range.
    """
    frame = sys._getframe(skip)
    rows: list[tuple[str, int, str]] = []
    while frame is not None and len(rows) < depth:
        code = frame.f_code
        rows.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back  # type: ignore[assignment]
    return tuple(rows)


def _format_stack(rows: tuple[tuple[str, int, str], ...]) -> str:
    return "\n".join(f"    {file}:{line} in {func}" for file, line, func in rows)


# ----------------------------------------------------------------------
# actors: logical threads of control
# ----------------------------------------------------------------------
_tls = threading.local()


def current_actor() -> str:
    """The name of the current logical actor (virtual or OS thread)."""
    stack: list[str] | None = getattr(_tls, "actors", None)
    if stack:
        return stack[-1]
    name: str | None = getattr(_tls, "default_name", None)
    if name is None:
        name = f"thread-{threading.get_ident()}"
        _tls.default_name = name
    return name


def _held_stack() -> list[TrackedLock]:
    held: list[TrackedLock] | None = getattr(_tls, "held", None)
    if held is None:
        held = []
        _tls.held = held
    return held


# ----------------------------------------------------------------------
# global sanitizer state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Access:
    actor: str
    clock: dict[str, int]
    write: bool
    stack: tuple[tuple[str, int, str], ...]
    sim_time: float | None
    #: the object accessed: once it dies its id may be handed to a new
    #: object, whose accesses no order links to this one's
    owner: "weakref.ReferenceType[Any]"


class _State:
    """Process-wide sanitizer bookkeeping, behind its own plain mutex."""

    def __init__(self) -> None:
        self.mutex = threading.Lock()
        self.actor_clocks: dict[str, dict[str, int]] = {}
        # (outer, inner) -> stack captured the first time the nesting
        # was observed; used for cycle detection and error reports.
        self.lock_edges: dict[tuple[str, str], tuple[tuple[str, int, str], ...]] = {}
        self.last_access: dict[tuple[int, str], _Access] = {}
        self.order_checks = 0
        self.race_checks = 0


_state = _State()

# Declared once by the engine (below); tests may re-declare.
_declared_order: tuple[str, ...] = ()


def declare_lock_order(*names: str) -> tuple[str, ...]:
    """Declare THE global lock order: earlier names may nest later ones.

    There is exactly one declaration per process (reprolint R011
    enforces exactly one per linted tree); re-declaring replaces the
    order, which tests use to exercise violations.
    """
    global _declared_order
    _declared_order = tuple(names)
    return _declared_order


def _dominates(left: dict[str, int], right: dict[str, int]) -> bool:
    """True iff vector clock ``left`` >= ``right`` componentwise."""
    return all(left.get(key, 0) >= tick for key, tick in right.items())


def _actor_clock(name: str) -> dict[str, int]:
    """The named actor's vector clock; callable WITHOUT ``_state.mutex``.

    An actor's clock is only ever *mutated* by the thread currently
    running as that actor (lock acquire joins, lock release bumps);
    other threads never read it directly — they see snapshot copies
    published through :class:`TrackedLock` and :class:`_Access`.  Under
    the GIL the dict lookup is atomic, so only first-time creation takes
    the mutex (to keep the registry insert race-free).
    """
    clock = _state.actor_clocks.get(name)
    if clock is None:
        with _state.mutex:
            clock = _state.actor_clocks.setdefault(name, {name: 1})
    return clock


# ----------------------------------------------------------------------
# tracked locks
# ----------------------------------------------------------------------
class TrackedLock:
    """A named reentrant lock wired into the sanitizer.

    Checks off: one boolean test over a plain ``RLock``, per acquire and
    per release.  Checks on: every *outermost* acquisition is validated
    against the declared global order and the observed nesting graph
    **before** blocking (so an inversion raises instead of deadlocking),
    and release publishes the holder's vector clock to the lock,
    establishing the happens-before edge the race detector consumes.
    """

    __slots__ = ("name", "_lock", "_clock", "_acquire_stack", "_tracked")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.RLock()
        self._clock: dict[str, int] = {}
        self._acquire_stack: tuple[tuple[str, int, str], ...] = ()
        #: checked acquisitions not yet released (this lock's entries on
        #: the held stack); only the RLock's holder changes it
        self._tracked = 0

    def __repr__(self) -> str:
        return f"TrackedLock({self.name!r})"

    # -- tracking -------------------------------------------------------
    def _before_acquire(self) -> None:
        held = _held_stack()
        if self in held:
            return  # reentrant re-acquisition: order already validated
        if not held:
            return
        outer = held[-1]
        with _state.mutex:
            _state.order_checks += 1
            order = _declared_order
            if self.name in order and outer.name in order:
                if order.index(outer.name) > order.index(self.name):
                    raise LockOrderViolation(
                        f"lock-order inversion: acquiring {self.name!r} "
                        f"while holding {outer.name!r}, but the declared "
                        f"global order is {order!r}\n"
                        f"  {outer.name!r} acquired at:\n"
                        f"{_format_stack(outer._acquire_stack)}\n"
                        f"  {self.name!r} requested at:\n"
                        f"{_format_stack(_capture_stack(skip=3))}"
                    )
            prior = _state.lock_edges.get((self.name, outer.name))
            if prior is not None:
                raise LockOrderViolation(
                    f"lock-order cycle: {outer.name!r} -> {self.name!r} "
                    f"observed now, but {self.name!r} -> {outer.name!r} "
                    f"was observed earlier\n"
                    f"  earlier {self.name!r} -> {outer.name!r} nesting:\n"
                    f"{_format_stack(prior)}\n"
                    f"  current {outer.name!r} -> {self.name!r} nesting:\n"
                    f"{_format_stack(_capture_stack(skip=3))}"
                )
            if (outer.name, self.name) not in _state.lock_edges:
                # stacks are only kept for the FIRST observation of each
                # edge (that is all the cycle report needs), so the
                # steady-state nested acquire never pays a capture
                _state.lock_edges[(outer.name, self.name)] = _capture_stack(
                    skip=3
                )

    def _after_acquire(self) -> None:
        held = _held_stack()
        held.append(self)
        self._tracked += 1
        self._acquire_stack = _capture_stack(skip=3, depth=_HOT_STACK_DEPTH)
        published = self._clock
        if not published:
            # never released yet: nothing to join.  The unlocked read is
            # safe — ``_clock`` is published in ``_before_release``
            # before the RLock is dropped, so any clock a previous
            # holder left is visible to us by lock acquisition order.
            return
        # joining mutates only the current actor's own clock: no mutex
        clock = _actor_clock(current_actor())
        for key, tick in published.items():
            if clock.get(key, 0) < tick:
                clock[key] = tick

    def _before_release(self) -> None:
        _held_stack().remove(self)
        self._tracked -= 1
        if self._tracked:
            return  # still reentrantly held: publish on outermost release
        # snapshot-publish + bump touch only the current actor's own
        # clock and this lock's ``_clock`` reference (read by the next
        # holder, ordered by the RLock handoff itself): no mutex
        name = current_actor()
        clock = _actor_clock(name)
        self._clock = dict(clock)
        clock[name] = clock.get(name, 0) + 1

    # -- lock protocol --------------------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if not _gate():
            return self._lock.acquire(blocking, timeout)
        self._before_acquire()
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._after_acquire()
        return got

    def release(self) -> None:
        # keyed on what was tracked, not on the gate, which may have
        # flipped since the acquisition
        if self._tracked:
            self._before_release()
        self._lock.release()

    def __enter__(self) -> TrackedLock:
        (self.acquire if _gate() else self._lock.acquire)()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        """Whether this thread currently tracks the lock as held.

        Only meaningful while checks are armed (acquisitions made with
        checks off are not tracked).
        """
        return self in _held_stack()


def tracked_lock(name: str) -> TrackedLock:
    """Create the named :class:`TrackedLock` (declaration choke point).

    ``reprolint`` resolves lock *names* statically through this call,
    so every engine lock must be created here (or via the class
    directly) with a string-literal name from the declared order.
    """
    return TrackedLock(name)


# ----------------------------------------------------------------------
# guarded state registry + race detection
# ----------------------------------------------------------------------
_ClassT = TypeVar("_ClassT", bound=type)


def guarded_by(lock_attr: str, *fields: str) -> Callable[[_ClassT], _ClassT]:
    """Class decorator: the named fields mutate only under ``lock_attr``.

    Registers the mapping on the class (merged down the MRO) for both
    the static checker (reprolint R010 reads the decorator) and the
    runtime race detector (:func:`note_access` reads
    ``__guarded_by__``).
    """

    def wrap(cls: _ClassT) -> _ClassT:
        merged: dict[str, str] = {}
        for base in reversed(cls.__mro__):
            merged.update(getattr(base, "__guarded_by__", {}))
        merged.update({field: lock_attr for field in fields})
        cls.__guarded_by__ = merged  # type: ignore[attr-defined]
        return cls

    return wrap


def note_access(
    obj: Any,
    field: str,
    *,
    write: bool = True,
    sim_time: float | None = None,
) -> None:
    """Record one access to a guarded field; raise on a detected race.

    The check is happens-before on vector clocks: conflicting accesses
    (write/write or read/write) to the same field of the same object by
    *different* actors must be ordered — and the only sources of order
    are lock release/acquire edges on :class:`TrackedLock`.  Two
    critical sections under the declaring lock are therefore always
    ordered; an access that skips the lock has no edge and trips
    :class:`RaceViolation` with both stacks.
    """
    if not _gate():
        return
    guard_map: dict[str, str] = getattr(type(obj), "__guarded_by__", {})
    lock_attr = guard_map.get(field)
    if lock_attr is None:
        return
    lock = getattr(obj, lock_attr, None)
    protected = isinstance(lock, TrackedLock) and lock.held_by_current_thread()
    name = current_actor()
    stack = _capture_stack(skip=2, depth=_HOT_STACK_DEPTH)
    key = (id(obj), field)
    # snapshot our own clock before taking the mutex (own-thread only;
    # _actor_clock may itself take the mutex to create a fresh clock)
    clock = dict(_actor_clock(name))
    with _state.mutex:
        _state.race_checks += 1
        last = _state.last_access.get(key)
        if (
            last is not None
            and last.owner() is obj
            and last.actor != name
            and (write or last.write)
            and not _dominates(clock, last.clock)
        ):
            kind = "write" if write else "read"
            prior = "write" if last.write else "read"
            raise RaceViolation(
                f"data race on {type(obj).__name__}.{field}: {kind} by "
                f"actor {name!r} (sim_time={sim_time}) is unordered with "
                f"the previous {prior} by actor {last.actor!r} "
                f"(sim_time={last.sim_time}); the field is declared "
                f"guarded by {lock_attr!r} "
                f"({'held' if protected else 'NOT held'} here)\n"
                f"  previous {prior} by {last.actor!r}:\n"
                f"{_format_stack(last.stack)}\n"
                f"  current {kind} by {name!r}:\n"
                f"{_format_stack(stack)}"
            )
        _state.last_access[key] = _Access(
            name, clock, write, stack, sim_time, weakref.ref(obj)
        )


# The engine's single declared order.  Rationale, outermost first:
# the thread executor's staging lock is held while faulting pages in
# (staging -> buffer-pool); the pool issues scheduler reads while
# holding its own lock (buffer-pool -> io-scheduler); the telemetry
# bus's subscriber list never nests inside anything else.
GLOBAL_LOCK_ORDER = declare_lock_order(
    "executor-staging",
    "telemetry-observers",
    "buffer-pool",
    "io-scheduler",
)
