"""I/O accounting for the simulated disk.

The paper's evaluation (Section 4.1) prices every query as a sequence of
random page accesses (``t_pi`` each) and page transfers (``t_tau`` each),
with a prefetch window of ``C`` pages amortizing the positioning cost of
sequential scans.  :class:`IOStats` records the raw access counts so that
experiments can report both counted I/O and simulated elapsed time.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, field, fields
from typing import Any, ClassVar, TypeVar

_CountersT = TypeVar("_CountersT", bound="Counters")


class Counters:
    """Snapshot and diff for a dataclass of counters.

    ``later - earlier`` works field by field: numbers subtract, nested
    counters recurse, and a ``dict[str, CategoryStats]`` is taken per key
    in first-seen order (the left operand's keys, then the ones only the
    right has), a key missing on one side counting as all zeros.
    ``copy()`` is the difference from all-zero counters, which is exact
    for ints and floats alike.
    """

    __dataclass_fields__: ClassVar[dict[str, Field[Any]]]

    def copy(self: _CountersT) -> _CountersT:
        return self - type(self)()

    def __sub__(self: _CountersT, other: _CountersT) -> _CountersT:
        return type(self)(
            **{
                f.name: _minus(getattr(self, f.name), getattr(other, f.name))
                for f in fields(self)
            }
        )


def _minus(later: Any, earlier: Any) -> Any:
    if isinstance(later, dict):
        empty = CategoryStats()
        return {
            name: later.get(name, empty) - earlier.get(name, empty)
            for name in dict.fromkeys([*later, *earlier])
        }
    return later - earlier


@dataclass
class CategoryStats(Counters):
    """Access counts for one I/O category (``data``, ``index``, ``temp``)."""

    pages_read: int = 0
    pages_written: int = 0
    read_seeks: int = 0
    write_seeks: int = 0
    unpriced_reads: int = 0


@dataclass
class FaultStats(Counters):
    """Counters for injected faults and the engine's resilience responses.

    Populated by :class:`~repro.storage.faults.FaultyDisk` (injection
    side) and by the retry/quarantine/WAL/replica machinery (response
    side); all zero on a fault-free run.  The ``*_delay`` fields are
    simulated seconds already folded into :attr:`IOStats.time`.

    Durability counters:

    * ``wal_appends`` / ``wal_delay`` — write-ahead-log records forced to
      the log device and the simulated time the engine waited for them;
    * ``wal_reforced`` — log forces re-issued after the fault layer tore
      the log page (the verified-force loop detected and repaired it);
    * ``wal_rollbacks`` — aborted WAL batches (explicit or crash-driven);
    * ``wal_redo_pages`` — pages healed by redo during recovery;
    * ``replica_writes`` / ``replica_delay`` — replica copies written by
      the :class:`~repro.storage.replica.ReplicatedDisk` mirror;
    * ``repair_reads`` / ``repaired_pages`` / ``repair_delay`` — replica
      inspections and successful primary-page repairs;
    * ``quarantine_lifted`` — buffer-pool quarantines removed after a
      successful repair.
    """

    transient_errors: int = 0
    corrupt_reads: int = 0
    torn_writes: int = 0
    latency_spikes: int = 0
    latency_delay: float = 0.0
    retries: int = 0
    retry_delay: float = 0.0
    quarantined_pages: int = 0
    wal_appends: int = 0
    wal_delay: float = 0.0
    wal_reforced: int = 0
    wal_rollbacks: int = 0
    wal_redo_pages: int = 0
    replica_writes: int = 0
    replica_delay: float = 0.0
    repair_reads: int = 0
    repaired_pages: int = 0
    repair_delay: float = 0.0
    quarantine_lifted: int = 0

    @property
    def total_injected(self) -> int:
        """Number of faults the plan actually fired."""
        return (
            self.transient_errors
            + self.corrupt_reads
            + self.torn_writes
            + self.latency_spikes
        )


@dataclass
class PrefetchStats(Counters):
    """Counters of the sweep-ahead prefetch / multi-queue scheduler layer.

    Populated by :class:`~repro.storage.scheduler.IOScheduler` (queue
    occupancy and async-read lifecycle) and consumed by the buffer pool's
    accounting invariant; all zero when no scheduler is armed.

    * ``prefetch_issued`` — async reads submitted ahead of demand;
    * ``prefetch_hits`` — demand lookups served by an in-flight or
      completed prefetch (the overlap actually paid off);
    * ``prefetch_wasted`` — prefetched pages cancelled or evicted before
      any demand arrived (mispredicted sweep, or a failed async attempt);
    * ``queue_busy_time`` — simulated seconds of device-queue occupancy,
      summed over all queues (service time, regardless of overlap);
    * ``queue_wait_time`` — simulated seconds demand reads stalled
      waiting for an in-flight transfer to complete.
    """

    prefetch_issued: int = 0
    prefetch_hits: int = 0
    prefetch_wasted: int = 0
    queue_busy_time: float = 0.0
    queue_wait_time: float = 0.0


@dataclass
class IOStats(Counters):
    """Aggregate statistics of a :class:`~repro.storage.disk.SimulatedDisk`.

    ``time`` is simulated elapsed time in seconds; all other fields count
    page-granularity events.  Statistics are split per category so that
    experiments can separate base-table I/O from temporary (sort run) I/O,
    mirroring the paper's separate reporting of response time and temporary
    storage.
    """

    time: float = 0.0
    categories: dict[str, CategoryStats] = field(default_factory=dict)
    faults: FaultStats = field(default_factory=FaultStats)
    prefetch: PrefetchStats = field(default_factory=PrefetchStats)

    def category(self, name: str) -> CategoryStats:
        """Return (creating if needed) the statistics bucket for ``name``."""
        if name not in self.categories:
            self.categories[name] = CategoryStats()
        return self.categories[name]

    @property
    def pages_read(self) -> int:
        return sum(c.pages_read for c in self.categories.values())

    @property
    def pages_written(self) -> int:
        return sum(c.pages_written for c in self.categories.values())
