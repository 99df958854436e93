"""Simulated storage substrate: disk, pages, buffer pool, heap files.

This package replaces the paper's physical testbed (Oracle 8 on a disk
array) with a deterministic simulation that prices I/O using the exact
cost model of Section 4.1 — positioning time ``t_pi``, transfer time
``t_tau`` and a prefetch window of ``C`` pages.

The resilience layer lives here too: typed storage errors
(:mod:`~repro.storage.errors`), retry policies priced on the simulated
clock (:mod:`~repro.storage.retry`) and deterministic fault injection
(:mod:`~repro.storage.faults`).  The durability layer completes it:
a simulated-clock write-ahead log with redo recovery
(:mod:`~repro.storage.wal`) and k-way page replication with
checksum-triggered repair (:mod:`~repro.storage.replica`).
"""

from ..telemetry import compat_aliases
from .buffer import BufferPool
from .disk import ICDE99_ANALYSIS, ICDE99_TESTBED, DiskParameters, SimulatedDisk
from .errors import (
    CorruptPageError,
    LogDeviceError,
    MissingPageError,
    QuarantinedPageError,
    SimulatedCrashError,
    StorageError,
    TransientIOError,
    ensure_page_integrity,
)
from .faults import FaultPlan, FaultyDisk, armed_disk_count
from .heap import HeapFile
from .page import Page, PageImage, PageOverflowError
from .prefetch import SweepPrefetcher
from .replica import ReplicatedDisk
from .retry import DEFAULT_RETRY_POLICY, NO_RETRY, RetryPolicy, read_page_resilient
from .scheduler import IOScheduler, armed_scheduler_count
from .stats import CategoryStats, FaultStats, IOStats, PrefetchStats
from .wal import (
    AppendOnlyLog,
    RecoveryEvent,
    RecoveryReport,
    WALRecord,
    WriteAheadLog,
    active_wal,
)

# Kept only for the frozen benchmark harness; deleted by the harness-v2 PR.
register_recovery_observer, unregister_recovery_observer = compat_aliases(RecoveryEvent)

__all__ = [
    "AppendOnlyLog",
    "BufferPool",
    "CategoryStats",
    "CorruptPageError",
    "DEFAULT_RETRY_POLICY",
    "DiskParameters",
    "FaultPlan",
    "FaultStats",
    "FaultyDisk",
    "HeapFile",
    "ICDE99_ANALYSIS",
    "ICDE99_TESTBED",
    "IOScheduler",
    "IOStats",
    "LogDeviceError",
    "MissingPageError",
    "NO_RETRY",
    "Page",
    "PageImage",
    "PageOverflowError",
    "PrefetchStats",
    "QuarantinedPageError",
    "RecoveryEvent",
    "RecoveryReport",
    "ReplicatedDisk",
    "RetryPolicy",
    "SimulatedCrashError",
    "SimulatedDisk",
    "StorageError",
    "SweepPrefetcher",
    "TransientIOError",
    "WALRecord",
    "WriteAheadLog",
    "active_wal",
    "armed_disk_count",
    "armed_scheduler_count",
    "ensure_page_integrity",
    "read_page_resilient",
]
