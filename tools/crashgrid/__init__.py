"""Exhaustive crash-schedule explorer for cross-shard 2PC.

The atomicity claim of :mod:`repro.txn` — a multi-shard write commits
everywhere or nowhere, no matter when the process dies — is not the kind
of claim a few hand-picked crash tests settle.  This tool settles it by
**enumeration**: a reference run counts every append the workload makes
on every durable device (the coordinator's decision log, each shard
copy's WAL, each shard copy's data disk), and the grid then re-executes
the workload once per ``(device, append index)`` pair with a
deterministic crash armed at exactly that point.  After each crash the
world recovers (:meth:`~repro.txn.TransactionCoordinator.recover`) and
must land in one of exactly two states:

* **committed** — the post-recovery sharded scan is bit-identical to the
  fault-free oracle, and the decision log holds a durable ``commit``
  verdict for the workload's gid;
* **aborted** — the scan is bit-identical to the untouched baseline, and
  the decision log holds *no* commit verdict (presumed abort).

Any other landing — a partial write, a scan matching neither state, an
outcome contradicting the decision log, a crash point that never fired,
or a second recovery pass that is not a no-op — raises
:class:`CrashGridViolation`.  Every append index is visited; there are
no sampled or skipped schedules, and the grid refuses to report success
unless the enumeration was complete.

Run ``python -m tools.crashgrid`` for the CLI (writes ``BENCH_txn.json``
with the explored-schedule count and the 2PC commit-path overhead
against a raw, coordinator-less sharded load).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import kernels
from repro.shard import ShardedDatabase
from repro.storage.errors import SimulatedCrashError
from repro.txn import TransactionCoordinator
from tools.chaos import (
    ChaosViolation,
    build_sharded_world,
    build_txn_world,
    chaos_data,
    scan_fingerprint,
    settle_txn_landing,
)

__all__ = [
    "CrashGridResult",
    "CrashGridViolation",
    "CrashPoint",
    "WORKLOADS",
    "run_crash_grid",
]

#: the two workload shapes the grid explores
WORKLOADS = ("load", "insert")


class CrashGridViolation(AssertionError):
    """A crash schedule broke the all-or-nothing recovery contract."""


@dataclass(frozen=True)
class CrashPoint:
    """What one (device, append-index) crash schedule did."""

    device: str
    index: int  #: 1-based append index the crash was armed at
    outcome: str  #: "committed" | "aborted"
    rows: int  #: row total after recovery
    decided: str  #: decision-log verdict for the gid ("" = presumed abort)


@dataclass(frozen=True)
class CrashGridResult:
    """One workload's complete enumeration over every device."""

    workload: str
    backend: str
    devices: tuple[str, ...]
    appends_per_device: tuple[int, ...]
    points: tuple[CrashPoint, ...] = field(repr=False)

    @property
    def schedules(self) -> int:
        return len(self.points)

    @property
    def committed(self) -> int:
        return sum(1 for p in self.points if p.outcome == "committed")

    @property
    def aborted(self) -> int:
        return sum(1 for p in self.points if p.outcome == "aborted")

    def describe(self) -> str:
        return (
            f"workload={self.workload:<7s} backend={self.backend:<6s} "
            f"devices={len(self.devices)} schedules={self.schedules} "
            f"committed={self.committed} aborted={self.aborted}"
        )


def _world_clock(
    sdb: ShardedDatabase, txn: "TransactionCoordinator | None"
) -> float:
    """Summed simulated seconds across every device in the world."""
    total = sdb.clock_total()
    if txn is not None:
        total += txn.log.device.clock
    return total


def _run_workload(
    txn: TransactionCoordinator,
    workload: str,
    rows: list[tuple],
    extra: list[tuple],
) -> None:
    """One global transaction (callers pre-load the insert baseline)."""
    if workload == "load":
        txn.atomic_load(rows)
    else:
        txn.atomic_insert(extra)


def run_crash_grid(
    workload: str = "load",
    *,
    backend: "str | None" = None,
    shards: int = 2,
    copies: int = 1,
    rows: int = 24,
    extra_rows: int = 8,
    page_capacity: int = 8,
    seed: int = 99,
) -> CrashGridResult:
    """Enumerate every crash point of one workload; raise on any breach.

    The ``insert`` workload pre-loads ``rows`` rows fault-free (through
    the coordinator, so the explored transaction is the *second* gid)
    and then crashes an ``atomic_insert`` of ``extra_rows`` more;
    ``load`` crashes the initial ``atomic_load`` itself.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; pick {WORKLOADS}")
    backend_name = backend or kernels.get_backend().name
    data = chaos_data(rows, seed)
    extra = chaos_data(extra_rows, seed + 1)

    def fresh_world() -> "tuple[ShardedDatabase, TransactionCoordinator]":
        sdb, txn = build_txn_world(
            shards=shards, copies=copies, page_capacity=page_capacity
        )
        if workload == "insert":
            txn.atomic_load(data)
        return sdb, txn

    try:
        with kernels.use_backend(backend_name):
            # reference run: count appends, fingerprint both landing states
            sdb, txn = fresh_world()
            baseline_fp = scan_fingerprint(sdb)
            devices = txn.devices()
            before = {dev: txn.append_count(dev) for dev in devices}
            _run_workload(txn, workload, data, extra)
            gid = f"{workload}#{0 if workload == 'load' else 1}"
            counts = {
                dev: txn.append_count(dev) - before[dev] for dev in devices
            }
            oracle_fp = scan_fingerprint(sdb)
            if oracle_fp == baseline_fp:
                raise CrashGridViolation(
                    "workload is a no-op; the grid would prove nothing"
                )

            points: list[CrashPoint] = []
            for device in devices:
                for index in range(1, counts[device] + 1):
                    sdb, txn = fresh_world()
                    txn.crash_after(device, index)
                    try:
                        _run_workload(txn, workload, data, extra)
                    except SimulatedCrashError:
                        pass
                    else:
                        raise CrashGridViolation(
                            f"crash at {device}#{index} never fired — the "
                            "reference count claims this append happens"
                        )
                    report, decided = settle_txn_landing(
                        f"{device}#{index}", sdb, txn, gid, oracle_fp, baseline_fp
                    )
                    points.append(
                        CrashPoint(
                            device=device,
                            index=index,
                            outcome=(
                                "committed" if decided == "commit" else "aborted"
                            ),
                            rows=report.total_rows,
                            decided=decided,
                        )
                    )
    except ChaosViolation as exc:
        # the shared kit speaks chaos; under the grid a breach is the grid's
        raise CrashGridViolation(str(exc)) from exc
    expected = sum(counts[dev] for dev in devices)
    if len(points) != expected:
        raise CrashGridViolation(
            f"enumeration incomplete: visited {len(points)} of "
            f"{expected} crash points"
        )
    return CrashGridResult(
        workload=workload,
        backend=backend_name,
        devices=devices,
        appends_per_device=tuple(counts[dev] for dev in devices),
        points=tuple(points),
    )


def measure_commit_overhead(
    *,
    shards: int = 2,
    copies: int = 1,
    rows: int = 24,
    page_capacity: int = 8,
    seed: int = 99,
) -> dict:
    """Simulated-clock cost of the 2PC commit path vs a raw sharded load.

    Both worlds run ``wal=True``; the raw world loads without a
    coordinator (per-copy local WAL batches, no prepare forces, no
    decision log), so the difference prices exactly what 2PC adds:
    the per-participant prepare force, the coordinator's three decision
    records, and their verified-force overhead.
    """
    data = chaos_data(rows, seed)
    raw = build_sharded_world(
        shards=shards, copies=copies, page_capacity=page_capacity, wal=True
    )
    raw.load(data)
    raw_clock = _world_clock(raw, None)
    sdb, txn = build_txn_world(
        shards=shards, copies=copies, page_capacity=page_capacity
    )
    txn.atomic_load(data)
    txn_clock = _world_clock(sdb, txn)
    return {
        "rows": rows,
        "shards": shards,
        "copies": copies,
        "raw_load_seconds": round(raw_clock, 6),
        "txn_load_seconds": round(txn_clock, 6),
        "overhead_seconds": round(txn_clock - raw_clock, 6),
        "overhead_ratio": round(txn_clock / raw_clock, 4) if raw_clock else None,
    }
