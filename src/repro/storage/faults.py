"""Deterministic fault injection for the simulated disk.

A :class:`FaultPlan` decides, purely as a function of ``(seed, page_id,
access_count)``, whether a given page access suffers a fault — a
transient read error, a corrupted-page bit flip, a torn write or a
latency spike.  Because the decision depends on nothing else (no global
RNG state, no wall clock), every chaos run replays *exactly* from its
seed: same faults on the same accesses in the same order.

:class:`FaultyDisk` wraps a :class:`~repro.storage.disk.SimulatedDisk`
and is interface-compatible with it — every data structure in the
engine (buffer pool, heap files, B+-trees, UB-Trees) runs unmodified on
top.  While a wrapper is *disarmed* (the default, and always during data
loading) or its plan is empty, every call is a pure delegation: fault
injection is compiled out of the hot path and benchmarks see no
overhead.

Fault semantics
---------------
``transient``
    The read raises :class:`~repro.storage.errors.TransientIOError`
    before touching the platter; a priced attempt still charges one
    random access of simulated time (the arm moved, the sector never
    answered).  Retried by the engine's retry policy.

``corrupt``
    The read succeeds but the page's content has rotted: one record is
    deterministically replaced with a bit-rot marker.  The true content
    is checksummed *before* the flip, so the engine's integrity check
    (:func:`~repro.storage.errors.ensure_page_integrity`) detects the
    mismatch — silent garbage cannot reach a query result.

``torn``
    The write is acknowledged but only a prefix of the records hits the
    disk; the checksum sealed at write time covers the full content, so
    the next read detects the tear.

``latency``
    The read succeeds but costs ``latency_seconds`` extra simulated
    time.  Harmless to correctness; stresses time-based assertions.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .disk import DiskParameters, SimulatedDisk, _DelegatingDisk
from .errors import TransientIOError
from .page import Page

__all__ = [
    "CORRUPT",
    "FaultPlan",
    "FaultyDisk",
    "LATENCY",
    "TORN",
    "TRANSIENT",
    "armed_disk_count",
]

#: fault kind tags (plain strings so schedules serialize trivially)
TRANSIENT = "transient"
CORRUPT = "corrupt"
TORN = "torn"
LATENCY = "latency"

_READ_KINDS = (TRANSIENT, CORRUPT, LATENCY)
_WRITE_KINDS = (TORN,)

_MASK64 = (1 << 64) - 1
_READ_SALT = 0x9E3779B97F4A7C15
_WRITE_SALT = 0xC2B2AE3D27D4EB4F
_FLIP_SALT = 0x165667B19E3779F9


def _mix(*parts: int) -> int:
    """SplitMix64-style avalanche over the given integers.

    Deterministic across processes and Python versions (no reliance on
    the salted builtin ``hash``), well distributed even for the small
    consecutive integers that page ids and access counts are.
    """
    state = 0x243F6A8885A308D3
    for part in parts:
        state = (state + (part & _MASK64) + _MASK64 + 1) & _MASK64
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        state = z ^ (z >> 31)
    return state


@dataclass(frozen=True)
class FaultPlan:
    """A replayable schedule of storage faults.

    Rate-based faults fire when the deterministic uniform draw for
    ``(seed, page_id, access_count)`` falls under the configured rates;
    ``scripted_reads`` / ``scripted_writes`` pin exact faults to exact
    accesses (``(page_id, access_count, kind)`` triples) and take
    precedence over the rates — the chaos tests use them to stage
    precise failure scenarios.
    """

    seed: int = 0
    transient_rate: float = 0.0
    corrupt_rate: float = 0.0
    torn_write_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 0.040
    scripted_reads: tuple[tuple[int, int, str], ...] = ()
    scripted_writes: tuple[tuple[int, int, str], ...] = ()

    def __post_init__(self) -> None:
        for name in ("transient_rate", "corrupt_rate", "torn_write_rate", "latency_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.transient_rate + self.corrupt_rate + self.latency_rate > 1.0:
            raise ValueError("read fault rates must sum to at most 1")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be >= 0")
        for triple in self.scripted_reads:
            if triple[2] not in _READ_KINDS:
                raise ValueError(f"unknown scripted read fault kind {triple[2]!r}")
        for triple in self.scripted_writes:
            if triple[2] not in _WRITE_KINDS:
                raise ValueError(f"unknown scripted write fault kind {triple[2]!r}")

    @property
    def is_empty(self) -> bool:
        """True when this plan can never inject a fault."""
        return (
            self.transient_rate == 0.0
            and self.corrupt_rate == 0.0
            and self.torn_write_rate == 0.0
            and self.latency_rate == 0.0
            and not self.scripted_reads
            and not self.scripted_writes
        )

    def _uniform(self, salt: int, page_id: int, access: int) -> float:
        return _mix(self.seed, salt, page_id, access) / 2.0**64

    def read_fault(self, page_id: int, access: int) -> str | None:
        """Fault kind for read number ``access`` of ``page_id``, if any."""
        for scripted_page, scripted_access, kind in self.scripted_reads:
            if scripted_page == page_id and scripted_access == access:
                return kind
        draw = self._uniform(_READ_SALT, page_id, access)
        if draw < self.transient_rate:
            return TRANSIENT
        if draw < self.transient_rate + self.corrupt_rate:
            return CORRUPT
        if draw < self.transient_rate + self.corrupt_rate + self.latency_rate:
            return LATENCY
        return None

    def write_fault(self, page_id: int, access: int) -> str | None:
        """Fault kind for write number ``access`` of ``page_id``, if any."""
        for scripted_page, scripted_access, kind in self.scripted_writes:
            if scripted_page == page_id and scripted_access == access:
                return kind
        if self._uniform(_WRITE_SALT, page_id, access) < self.torn_write_rate:
            return TORN
        return None


#: armed FaultyDisk instances, so the benchmark guard can refuse to time
#: a process with live fault injection (mirrors the REPRO_CHECKS guard)
_ARMED: "weakref.WeakSet[FaultyDisk]" = weakref.WeakSet()


def armed_disk_count() -> int:
    """Number of currently armed :class:`FaultyDisk` instances."""
    return len(_ARMED)


class FaultyDisk(_DelegatingDisk):
    """A :class:`SimulatedDisk` wrapper that injects plan-scheduled faults.

    Interface-compatible with the wrapped disk (all state lives in
    ``inner``; unaccounted ``peek`` and ``repair_page`` pass straight
    through and are never faulted).  Faults fire only while the wrapper
    is :meth:`armed <arm>` *and* the plan is non-empty; otherwise
    ``read``/``write`` delegate directly, so an idle wrapper is
    observationally identical to the bare disk (the fault-free parity
    tests assert bit-identical streams, stats and page-access order).

    Access counts tick only while armed, so a run's fault schedule is a
    pure function of the work done *after* :meth:`arm` — loading the
    dataset first and arming afterwards replays identically every time.
    """

    def __init__(
        self,
        inner: SimulatedDisk | None = None,
        plan: FaultPlan | None = None,
        *,
        params: DiskParameters | None = None,
    ) -> None:
        super().__init__(inner, params)
        self.plan = plan if plan is not None else FaultPlan()
        self.armed = False
        self._read_counts: dict[int, int] = {}
        self._write_counts: dict[int, int] = {}
        #: replay log: (op, kind, page_id, access) per injected fault
        self.fault_log: list[tuple[str, str, int, int]] = []

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def arm(self) -> None:
        """Start injecting faults (call after the dataset is loaded)."""
        self.armed = True
        _ARMED.add(self)

    def disarm(self) -> None:
        """Stop injecting faults; delegation becomes pure again."""
        self.armed = False
        _ARMED.discard(self)

    # ------------------------------------------------------------------
    # faulted I/O
    # ------------------------------------------------------------------
    def read(
        self,
        page_id: int,
        *,
        sequential: bool = False,
        category: str = "data",
        charge: bool = True,
    ) -> Page:
        if not self.armed or self.plan.is_empty:
            return self.inner.read(
                page_id, sequential=sequential, category=category, charge=charge
            )
        access = self._read_counts.get(page_id, 0)
        self._read_counts[page_id] = access + 1
        kind = self.plan.read_fault(page_id, access)
        if kind == TRANSIENT:
            self.fault_log.append(("read", TRANSIENT, page_id, access))
            self.inner.stats.faults.transient_errors += 1
            if charge:
                # the arm moved and the sector never answered: the failed
                # attempt still costs one random access of simulated time
                self.inner.advance_clock(self.params.t_pi + self.params.t_tau)
            raise TransientIOError(
                f"transient read error on page {page_id} (access #{access})"
            )
        page = self.inner.read(
            page_id, sequential=sequential, category=category, charge=charge
        )
        if kind == LATENCY:
            self.fault_log.append(("read", LATENCY, page_id, access))
            self.inner.stats.faults.latency_spikes += 1
            self.inner.stats.faults.latency_delay += self.plan.latency_seconds
            self.inner.advance_clock(self.plan.latency_seconds)
        elif kind == CORRUPT and page.records:
            self.fault_log.append(("read", CORRUPT, page_id, access))
            self._corrupt(page, access)
            self.inner.stats.faults.corrupt_reads += 1
        return page

    def write(
        self,
        page: Page,
        *,
        sequential: bool = False,
        category: str = "data",
    ) -> None:
        if not self.armed or self.plan.is_empty:
            return self.inner.write(page, sequential=sequential, category=category)
        access = self._write_counts.get(page.page_id, 0)
        self._write_counts[page.page_id] = access + 1
        kind = self.plan.write_fault(page.page_id, access)
        self.inner.write(page, sequential=sequential, category=category)
        if kind == TORN and page.records:
            self.fault_log.append(("write", TORN, page.page_id, access))
            # the checksum sealed here covers the *intended* content;
            # the tear below is what actually "reached the platter"
            page.seal_checksum()
            keep = len(page.records) // 2
            del page.records[keep:]
            page.version += 1
            self.inner.stats.faults.torn_writes += 1

    def _corrupt(self, page: Page, access: int) -> None:
        """Deterministically rot one record of ``page`` (bit-flip model).

        The true content is sealed into the checksum first (if no seal
        exists yet), so the engine's read-side integrity check catches
        the mismatch — this models on-platter rot under a page that was
        written with a valid checksum.
        """
        if page.stored_checksum is None:
            page.seal_checksum()
        index = _mix(self.plan.seed, _FLIP_SALT, page.page_id, access) % len(
            page.records
        )
        page.records[index] = ("__bitrot__", page.page_id, access)
        page.version += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "armed" if self.armed else "disarmed"
        return f"<FaultyDisk {state} seed={self.plan.seed} over {self.inner!r}>"
