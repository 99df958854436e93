"""repro — a full reproduction of the Tetris algorithm (ICDE 1999).

Markl, Zirkel, Bayer: *Processing Operations with Restrictions in RDBMS
without External Sorting: The Tetris Algorithm*.

The package builds every layer the paper relies on:

* ``repro.storage`` — a simulated disk priced with the paper's cost model,
* ``repro.btree`` — B+-trees and index-organized tables,
* ``repro.core`` — Z-order / Tetris-order curves, UB-Trees, the Tetris
  sweep itself,
* ``repro.relational`` — schemas, encoders, tables and Volcano-style
  operators (scans, external merge sort, joins, grouping),
* ``repro.costmodel`` — the analytic formulas of Section 4,
* ``repro.planner`` — cost-based access-path selection (the paper's
  future-work optimizer sketch),
* ``repro.tpcd`` — a TPC-D-like generator and the Q3/Q4/Q6 workloads,
* ``repro.viz`` — ASCII visualizations of partitionings and sweeps.
"""

from .core import (
    ComparisonSpace,
    Curve,
    IntersectionSpace,
    QueryBox,
    QuerySpace,
    TetrisScan,
    TetrisStats,
    UBTree,
    ZRegion,
    ZSpace,
    tetris_sorted,
)
from .storage import (
    BufferPool,
    CategoryStats,
    CorruptPageError,
    DEFAULT_RETRY_POLICY,
    DiskParameters,
    FaultPlan,
    FaultStats,
    FaultyDisk,
    HeapFile,
    ICDE99_ANALYSIS,
    ICDE99_TESTBED,
    IOStats,
    MissingPageError,
    NO_RETRY,
    Page,
    QuarantinedPageError,
    RecoveryReport,
    ReplicatedDisk,
    RetryPolicy,
    SimulatedCrashError,
    SimulatedDisk,
    StorageError,
    TransientIOError,
    WriteAheadLog,
    active_wal,
    armed_disk_count,
    ensure_page_integrity,
    read_page_resilient,
)

__version__ = "1.0.0"

__all__ = [
    "BufferPool",
    "CategoryStats",
    "ComparisonSpace",
    "CorruptPageError",
    "Curve",
    "DEFAULT_RETRY_POLICY",
    "DiskParameters",
    "FaultPlan",
    "FaultStats",
    "FaultyDisk",
    "HeapFile",
    "ICDE99_ANALYSIS",
    "ICDE99_TESTBED",
    "IOStats",
    "IntersectionSpace",
    "MissingPageError",
    "NO_RETRY",
    "Page",
    "QuarantinedPageError",
    "QueryBox",
    "QuerySpace",
    "RecoveryReport",
    "ReplicatedDisk",
    "RetryPolicy",
    "SimulatedCrashError",
    "SimulatedDisk",
    "StorageError",
    "TetrisScan",
    "TetrisStats",
    "TransientIOError",
    "UBTree",
    "WriteAheadLog",
    "ZRegion",
    "ZSpace",
    "active_wal",
    "armed_disk_count",
    "ensure_page_integrity",
    "read_page_resilient",
    "tetris_sorted",
    "__version__",
]
