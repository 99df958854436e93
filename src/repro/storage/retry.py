"""Retry with capped exponential backoff, priced on the simulated clock.

A transient read error (see :mod:`repro.storage.faults`) is retried a
bounded number of times; every backoff delay is charged to the simulated
disk clock via :meth:`~repro.storage.disk.SimulatedDisk.advance_clock`,
never to the host wall clock — reprolint rule R001 stays clean and every
chaos run replays with bit-identical "response times".

Reprolint rule R006 requires every retry loop in the engine to route
through a :class:`RetryPolicy` (its ``delays()`` schedule) instead of
hand-rolling attempt counting.  Each rung of the page-read ladder lives
here exactly once: :func:`charge_backoff` prices one delay,
:func:`verify_or_repair` decides whether a fetched page counts, and
:func:`read_page_resilient` is the loop over both used by the heap scan,
the external sort and log recovery.  The buffer pool keeps its own loop
(per-attempt quarantine accounting) *around* the same two helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import CorruptPageError, TransientIOError, ensure_page_integrity

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from .disk import SimulatedDisk
    from .page import Page
    from .scheduler import IOScheduler

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "NO_RETRY",
    "RetryPolicy",
    "charge_backoff",
    "read_page_resilient",
    "verify_or_repair",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient storage errors.

    ``max_retries`` extra attempts follow a failed first attempt; the
    ``k``-th retry waits ``min(base_delay * multiplier**k, max_delay)``
    seconds of *simulated* time.
    """

    max_retries: int = 2
    base_delay: float = 0.002
    multiplier: float = 2.0
    max_delay: float = 0.050

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")

    def delays(self) -> Iterator[float]:
        """The capped backoff schedule, one delay per permitted retry."""
        delay = self.base_delay
        for _ in range(self.max_retries):
            yield min(delay, self.max_delay)
            delay *= self.multiplier


#: engine-wide default: up to two retries, 2 ms then 4 ms of backoff
DEFAULT_RETRY_POLICY = RetryPolicy()

#: fail fast (used by tests that want the first error to surface)
NO_RETRY = RetryPolicy(max_retries=0)


def charge_backoff(disk: "SimulatedDisk | IOScheduler", delay: float) -> None:
    """Wait out one backoff ``delay`` on the simulated clock."""
    faults = disk.stats.faults
    faults.retries += 1
    faults.retry_delay += delay
    disk.advance_clock(delay)


def verify_or_repair(
    disk: "SimulatedDisk | IOScheduler", page: "Page", *, context: str
) -> None:
    """Accept a fetched ``page``, or heal it, or raise.

    A page that carries a checksum is verified; on a mismatch the disk
    stack gets its one chance to repair the primary in place from a
    replica (corruption is never retried — the bits will not heal).  The
    fetched object *is* the healed page afterwards: pages are shared
    in-memory objects on the simulated disk.  Without a successful
    repair the :class:`~repro.storage.errors.CorruptPageError`
    propagates.
    """
    try:
        ensure_page_integrity(page, context=context)
    except CorruptPageError:
        if not disk.repair_page(page.page_id):
            raise


def read_page_resilient(
    disk: "SimulatedDisk | IOScheduler",
    page_id: int,
    *,
    policy: RetryPolicy,
    sequential: bool = False,
    category: str = "data",
    charge: bool = True,
) -> "tuple[Page, int]":
    """Read one page, retrying transient errors per ``policy``.

    ``disk`` may be the disk stack itself or an
    :class:`~repro.storage.scheduler.IOScheduler` fronting it, in which
    case the demand read flows through the scheduler's device queues
    (claiming an in-flight prefetch of the page if one exists).

    Returns ``(page, retries_used)``.  Backoff delays are charged to the
    simulated clock and recorded in ``disk.stats.faults``; the page is
    returned only once :func:`verify_or_repair` accepts it.
    """
    delays = policy.delays()
    retries = 0
    while True:
        try:
            page = disk.read(
                page_id, sequential=sequential, category=category, charge=charge
            )
        except TransientIOError:
            delay = next(delays, None)
            if delay is None:
                raise
            charge_backoff(disk, delay)
            retries += 1
            continue
        verify_or_repair(disk, page, context=f"read of page {page_id}")
        return page, retries
