"""``chaos``: seeded fault-schedule sweeps over the full query stack.

The harness builds a multi-instance physical design (heap + two IOTs +
UB-Tree over the same rows), runs a Q6-style sort+restriction query
through :func:`repro.planner.execute_sorted_query` under a seeded
:class:`~repro.storage.faults.FaultPlan`, and holds the engine to its
resilience contract:

* a run that completes must return *exactly* the correct answer —
  the right multiset of rows, in an order the PR-2
  :class:`~repro.invariants.StreamChecker` accepts (monotone in the
  sort key, every row inside the query space), and bit-identical to the
  fault-free run when no degradation happened;
* a run that cannot complete must fail with a typed
  :class:`~repro.storage.errors.StorageError` (usually
  :class:`~repro.planner.PlanExhaustedError` carrying the degradation
  trail);
* the same seed must replay the same outcome, fault-for-fault.

Anything else — a wrong row, a truncated stream, an untyped crash — is a
:class:`ChaosViolation`: the silent-garbage class of bug this harness
exists to catch.

That is the ``read`` sweep.  Five more — ``write``, ``prefetch``,
``shard``, ``join`` and ``txn`` — ride on the same machinery, and
:data:`SWEEPS` is the one table that lists all six: flag, pinned seeds,
size, parameters, reachable statuses, and the function that runs one
schedule (its docstring states the sweep's fire and oracle in full).
:func:`run_schedule` runs one ``(sweep, seed)``; :func:`run_suite`
loops it over backends × seeds.

Usage: ``python -m tools.chaos --seeds 11 17 23`` (add ``--backend
python`` to force a kernel backend; default sweeps whatever is
available).  ``--replay SEED`` re-runs one schedule and prints its full
fault log and degradation/repair trail as JSON.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import kernels
from repro.costmodel import CostParameters
from repro.invariants import StreamChecker
from repro.planner import (
    PhysicalDesign,
    PlanExhaustedError,
    QueryResult,
    execute_sorted_query,
)
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.relational.operators import MergeJoin, MergeSemiJoin
from repro.shard import CoPartitionedJoin, ShardedDatabase, ShardFailedError
from repro.storage import (
    FaultPlan,
    FaultyDisk,
    SimulatedCrashError,
    StorageError,
)
from repro.storage.faults import CORRUPT
from repro.storage.stats import FaultStats
from repro.txn import TransactionCoordinator
from repro.txn.coordinator import TxnRecoveryReport

__all__ = [
    "ChaosOutcome",
    "ChaosViolation",
    "QUERY",
    "SWEEPS",
    "Sweep",
    "build_sharded_world",
    "build_txn_world",
    "build_world",
    "chaos_data",
    "chaos_plan",
    "join_scenario",
    "run_schedule",
    "run_suite",
    "scan_fingerprint",
    "settle_txn_landing",
    "shard_scenario",
    "write_plan",
]

#: the harness's fixed Q6-style query: restriction on one UB dimension,
#: sort on the other
QUERY: dict[str, Any] = {
    "restrictions": {"a1": (100, 900)},
    "sort_attr": "a2",
}

#: the memory budget every harness query is planned under
COST = CostParameters(memory_pages=8)


class ChaosViolation(AssertionError):
    """The engine broke the correct-or-typed-error contract."""


# ----------------------------------------------------------------------
# the world kit, shared with ``tools.crashgrid``
# ----------------------------------------------------------------------
#: index dimensions of every sharded world; the first is the shard attribute
SHARD_DIMS: tuple[str, str] = ("a1", "a2")


def chaos_schema() -> Schema:
    return Schema(
        [
            Attribute("a1", IntEncoder(0, 1023)),
            Attribute("a2", IntEncoder(0, 1023)),
            Attribute("v", IntEncoder(0, 10**9)),
        ]
    )


def chaos_data(rows: int, data_seed: int = 0) -> list[tuple]:
    rng = random.Random(data_seed)
    return [(rng.randrange(1024), rng.randrange(1024), i) for i in range(rows)]


def build_world(
    fault_plan: "FaultPlan | None" = None,
    *,
    rows: int = 1200,
    wal: bool = False,
    replicas: int = 0,
    devices: int = 1,
    prefetch_depth: int = 0,
) -> tuple[Database, PhysicalDesign, list[tuple]]:
    """One logical relation in four physical instances, optionally faulty.

    Fault injection stays disarmed during loading, so the dataset is
    always pristine and a schedule's damage is a pure function of the
    query's own access pattern.  ``replicas=k`` slides a
    :class:`~repro.storage.replica.ReplicatedDisk` under the fault
    layer and captures every loaded page, so checksum failures during
    the query can be repaired in place instead of quarantined.
    ``devices``/``prefetch_depth`` arm the multi-queue
    :class:`~repro.storage.scheduler.IOScheduler` and sweep-ahead
    prefetcher (used by the prefetch identity sweep).

    ``wal=True`` builds the write sweep's world instead: WAL-armed and
    *empty* — the whole point is that ``bulk_load`` itself runs with
    torn-write faults armed and must end bit-identical to a fault-free
    load after recovery, so nothing is pre-loaded and the returned rows
    are the caller's to load.
    """
    schema = chaos_schema()
    data = chaos_data(rows)
    db = Database(
        buffer_pages=48,
        fault_plan=fault_plan,
        quarantine_threshold=2,
        wal=wal,
        replicas=replicas,
        devices=devices,
        prefetch_depth=prefetch_depth,
    )

    def instance(table: Any) -> Any:
        # load right after creation: page placement follows this order
        if not wal:
            table.load(data)
        return table

    heap = instance(db.create_heap_table("heap", schema, 40))
    iot_a1 = instance(
        db.create_iot("iot_a1", schema, key=("a1", "a2"), page_capacity=40)
    )
    iot_a2 = instance(
        db.create_iot("iot_a2", schema, key=("a2", "a1"), page_capacity=40)
    )
    ub = instance(
        db.create_ub_table("ub", schema, dims=SHARD_DIMS, page_capacity=40)
    )
    if not wal:
        if replicas:
            db.capture_replicas()
        db.reset_measurement()
    design = PhysicalDesign(
        attributes=SHARD_DIMS, heap=heap, iots={"a1": iot_a1, "a2": iot_a2}, ub=ub
    )
    return db, design, data


def page_fingerprint(db: Database) -> tuple:
    """Canonical content of every allocated data page.

    Two worlds with equal fingerprints hold bit-identical record sets,
    structural payloads and physical placement — the currency in which
    the write sweep's "replayed to committed state" claim is settled.
    """
    entries = []
    for page in sorted(db.disk.iter_pages(), key=lambda p: p.page_id):
        payload = page.payload
        if payload is None:
            psig: Any = None
        elif isinstance(payload, dict):
            psig = tuple(sorted((key, repr(value)) for key, value in payload.items()))
        elif hasattr(payload, "keys") and hasattr(payload, "children"):
            psig = ("node", tuple(payload.keys), tuple(payload.children))
        else:  # pragma: no cover - no third payload shape exists today
            psig = repr(payload)
        entries.append((page.page_id, repr(page.records), psig))
    return tuple(entries)


def build_sharded_world(
    *,
    shards: int,
    copies: int = 1,
    page_capacity: int = 32,
    fault_plans: "dict[tuple[int, int], FaultPlan] | None" = None,
    wal: bool = False,
    wal_fault_plans: "dict[tuple[int, int], FaultPlan] | None" = None,
) -> ShardedDatabase:
    """An empty world range-sharded on ``a1``; the caller loads it.

    ``fault_plans`` / ``wal_fault_plans`` put fire on the data disks /
    journal log devices of chosen ``(shard, copy)`` engines.
    """
    return ShardedDatabase(
        chaos_schema(),
        SHARD_DIMS,
        SHARD_DIMS[0],
        shards=shards,
        copies=copies,
        page_capacity=page_capacity,
        quarantine_threshold=2,
        fault_plans=fault_plans,
        wal=wal,
        wal_fault_plans=wal_fault_plans,
    )


def txn_plan(seed: int) -> FaultPlan:
    """Log-device fault mix for one txn-sweep seed.

    Torn and transient *appends* only — log devices refuse corrupt
    plans by contract (a checksum lie on the log would be silent
    history rewriting, not a crash), and the verified force is expected
    to absorb everything this plan throws.
    """
    return FaultPlan(seed=seed, transient_rate=0.05, torn_write_rate=0.20)


def build_txn_world(
    seed: "int | None" = None,
    *,
    shards: int = 2,
    copies: int = 1,
    page_capacity: int = 16,
) -> "tuple[ShardedDatabase, TransactionCoordinator]":
    """A WAL-armed sharded world with a 2PC coordinator attached.

    With a ``seed``, every shard WAL *and* the coordinator's decision
    log get their own derived fault plan; with ``None`` the world is
    fault-free (the txn sweep's oracle, every crash-grid world).
    """
    wal_plans = None
    log_plan = None
    if seed is not None:
        wal_plans = {
            (s, c): txn_plan(seed + 7 * s + c)
            for s in range(shards)
            for c in range(copies)
        }
        log_plan = txn_plan(seed + 101)
    sdb = build_sharded_world(
        shards=shards,
        copies=copies,
        page_capacity=page_capacity,
        wal=True,
        wal_fault_plans=wal_plans,
    )
    return sdb, TransactionCoordinator(sdb, log_fault_plan=log_plan)


def scan_fingerprint(sdb: ShardedDatabase) -> tuple:
    """Full-domain sharded scan: the equality oracle of 2PC worlds."""
    result = sdb.sorted_scan({"a1": (0, 1023)}, "a2")
    if result.partial or result.degraded:
        raise ChaosViolation("fingerprint scan degraded with no fault armed")
    return tuple(result.rows)


def settle_txn_landing(
    where: str,
    sdb: ShardedDatabase,
    txn: TransactionCoordinator,
    gid: str,
    oracle_fp: tuple,
    baseline_fp: tuple,
) -> "tuple[TxnRecoveryReport, str]":
    """Recover a crashed 2PC world and hold it to all-or-nothing.

    The recovered world must equal the fault-free oracle exactly when
    the decision log holds a durable ``commit`` verdict for ``gid``, and
    the untouched baseline otherwise (presumed abort); the first pass
    must leave no decided-but-unacked transaction behind (an in-doubt
    prepared batch is invisible to the fingerprint scan), and a second
    pass must resolve nothing, re-ack nothing and change nothing.
    Returns the first pass's report and the verdict (``""`` = presumed
    abort); ``where`` names the schedule in messages.
    """
    report = txn.recover()
    unacked = txn.log.unacked_decisions()
    if unacked:
        raise ChaosViolation(
            f"{where}: txn recovery left decided transactions unacked "
            f"{unacked!r}"
        )
    fp = scan_fingerprint(sdb)
    decided = txn.log.decision_for(gid) or ""
    if fp != (oracle_fp if decided == "commit" else baseline_fp):
        raise ChaosViolation(
            f"{where}: recovery landed on neither verdict's state — the "
            f"decision log says {decided or 'presumed-abort'!r} for {gid!r}, "
            "and the world is not that state (a partial write survived, or "
            "the outcome contradicts the log)"
        )
    again = txn.recover()
    if (
        again.resolved_commits
        or again.resolved_aborts
        or again.reacked
        or scan_fingerprint(sdb) != fp
    ):
        raise ChaosViolation(
            f"{where}: txn recovery is not idempotent ({again.describe()})"
        )
    return report, decided


@dataclass(frozen=True)
class ChaosOutcome:
    """What one fault schedule did to one query (or one write workload)."""

    seed: int
    backend: str
    status: str  #: "clean" | "degraded" | "failed" | "recovered" | "partial"
    rows: int
    faults_injected: int
    retries: int
    quarantined: int
    degradations: tuple[str, ...] = ()
    error: str | None = None
    #: pages repaired from replicas during the run
    repaired: int = 0
    #: quarantine entries lifted after a successful repair
    lifted: int = 0
    #: pages healed by WAL redo during recovery (write schedules)
    healed: int = 0
    #: replayable injection log (op, kind, page_id, access)
    fault_log: tuple[tuple[str, str, int, int], ...] = field(repr=False, default=())

    def describe(self) -> str:
        base = (
            f"seed={self.seed:<4d} backend={self.backend:<6s} "
            f"status={self.status:<9s} rows={self.rows:<5d} "
            f"faults={self.faults_injected:<3d} retries={self.retries:<3d} "
            f"quarantined={self.quarantined}"
        )
        if self.repaired or self.lifted:
            base += f"  repaired={self.repaired} lifted={self.lifted}"
        if self.healed:
            base += f"  healed={self.healed}"
        if self.error:
            base += f"  error={self.error.splitlines()[0][:80]}"
        return base


def _outcome(
    seed: int,
    backend: str,
    status: str,
    rows: int,
    tally: "FaultStats | Mapping[str, int]",
    *,
    events: Iterable[Any] = (),
    error: "str | None" = None,
    healed: int = 0,
    fault_log: Iterable[tuple[str, str, int, int]] = (),
) -> ChaosOutcome:
    """The one place a run's tallies become a :class:`ChaosOutcome`.

    ``tally`` is the armed disk's ``FaultStats`` for a ``Database``
    world, or a mapping shaped like ``ShardedDatabase.fault_totals()``
    for a sharded one (reprolint R014 keeps harnesses out of per-copy
    internals); a counter the mapping omits reads as 0.  ``events`` are
    degradation events of either family — anything with ``describe()``.
    """
    if isinstance(tally, FaultStats):
        tally = {
            "injected": tally.total_injected,
            "retries": tally.retries,
            "quarantined": tally.quarantined_pages,
            "repaired": tally.repaired_pages,
            "lifted": tally.quarantine_lifted,
        }
    return ChaosOutcome(
        seed=seed,
        backend=backend,
        status=status,
        rows=rows,
        faults_injected=tally["injected"],
        retries=tally.get("retries", 0),
        quarantined=tally.get("quarantined", 0),
        degradations=tuple(event.describe() for event in events),
        error=error,
        repaired=tally.get("repaired", 0),
        lifted=tally.get("lifted", 0),
        healed=healed,
        fault_log=tuple(fault_log),
    )


# ----------------------------------------------------------------------
# read + prefetch sweeps: the harness query on an armed four-instance world
# ----------------------------------------------------------------------
def chaos_plan(seed: int) -> FaultPlan:
    """The read sweep's fault mix for one seed.

    Rates are deliberately harsh relative to real hardware so that a
    three-seed CI sweep still exercises retries, quarantine and plan
    degradation; the seed alone decides which accesses are hit.
    """
    return FaultPlan(
        seed=seed,
        transient_rate=0.03,
        corrupt_rate=0.004,
        torn_write_rate=0.01,
        latency_rate=0.02,
        latency_seconds=0.030,
    )


def _harness_query(design: PhysicalDesign) -> QueryResult:
    return execute_sorted_query(
        design, QUERY["restrictions"], QUERY["sort_attr"], COST
    )


def _oracle_rows(data: "list[tuple]") -> list:
    """Ground truth for :data:`QUERY`, straight from the in-memory dataset."""
    positions = {"a1": 0, "a2": 1, "v": 2}
    survivors = []
    for row in data:
        keep = True
        for attr, (lo, hi) in QUERY["restrictions"].items():
            value = row[positions[attr]]
            if (lo is not None and value < lo) or (hi is not None and value > hi):
                keep = False
                break
        if keep:
            survivors.append(row)
    return sorted(survivors, key=lambda row: row[positions[QUERY["sort_attr"]]])


def _baseline(rows: int) -> "tuple[PhysicalDesign, list[tuple], list[tuple]]":
    """The fault-free world's design, its exact stream, and the oracle."""
    _, design, data = build_world(rows=rows)
    baseline = _harness_query(design)
    oracle = _oracle_rows(data)
    if sorted(baseline.rows) != sorted(oracle) or baseline.degraded:
        raise ChaosViolation(
            "fault-free baseline is broken; chaos results are meaningless"
        )
    return design, baseline.rows, oracle


def _verify_result(
    result: QueryResult,
    baseline_rows: "list[tuple]",
    oracle: "list[tuple]",
    design: PhysicalDesign,
    seed: int,
) -> None:
    """Hold a completed run to the correctness contract."""
    rows = result.rows
    if sorted(rows) != sorted(oracle):
        missing = len(oracle) - len(rows)
        raise ChaosViolation(
            f"seed {seed}: completed query returned a wrong multiset of rows "
            f"({len(rows)} rows vs {len(oracle)} expected, delta {missing}); "
            "this is silent garbage"
        )
    if not result.degraded and rows != baseline_rows:
        raise ChaosViolation(
            f"seed {seed}: non-degraded run is not bit-identical to the "
            "fault-free run"
        )
    # order + membership via the PR-2 stream contract: encode each output
    # row into the UB space and replay it through the StreamChecker
    ub = design.ub
    if ub is not None:
        space = ub.build_query_box(QUERY["restrictions"])
        checker = StreamChecker((ub.dims.index(QUERY["sort_attr"]),), space)
        for row in rows:
            checker.observe(ub.point_of(row))


@dataclass
class _FiredQuery:
    """One armed run plus the structure the prefetch identity check needs."""

    outcome: ChaosOutcome
    rows: "list[tuple] | None"  #: completed output, or None on failure
    #: (method, instance, error_type, fallback_method, fallback_instance)
    #: per degradation — error *messages* legitimately differ between the
    #: demand and prefetch paths ("read of page N" vs "prefetched read of
    #: page N"), so identity is judged on the structural trail
    trail: tuple[tuple[str, str, str, "str | None", "str | None"], ...]
    prefetch_issued: int


def _fire_query(
    plan: FaultPlan,
    seed: int,
    backend: str,
    rows: int,
    baseline_rows: "list[tuple]",
    oracle: "list[tuple]",
    **world: int,
) -> _FiredQuery:
    """Run :data:`QUERY` on a four-instance world armed with ``plan`` and
    classify the run clean / degraded / failed (verified when it
    completes)."""
    db, design, _ = build_world(plan, rows=rows, **world)
    disk = db.disk
    if not isinstance(disk, FaultyDisk):  # pragma: no cover - plan is never None
        raise RuntimeError("chaos world lost its FaultyDisk")
    result = error = None
    events: tuple = ()
    db.arm_faults()
    try:
        result = _harness_query(design)
        events = result.degradations
    except PlanExhaustedError as exc:
        events, error = exc.degradations, str(exc)
    except StorageError as exc:
        # typed, but the executor should have wrapped it — still within
        # contract for the caller, so report it as a failure outcome
        error = f"{type(exc).__name__}: {exc}"
    finally:
        db.disarm_faults()
    if result is None:
        status = "failed"
    else:
        _verify_result(result, baseline_rows, oracle, design, seed)
        status = "degraded" if result.degraded else "clean"
    out_rows = None if result is None else result.rows
    outcome = _outcome(
        seed,
        backend,
        status,
        len(out_rows or ()),
        disk.stats.faults,
        events=events,
        error=error,
        fault_log=disk.fault_log,
    )
    trail = tuple(
        (e.method, e.instance, e.error_type, e.fallback_method, e.fallback_instance)
        for e in events
    )
    return _FiredQuery(outcome, out_rows, trail, disk.stats.prefetch.prefetch_issued)


def _read_schedule(
    seed: int, backend: str, *, rows: int, replicas: int = 0
) -> tuple[ChaosOutcome]:
    """Run the harness query under one seeded schedule and verify it.

    ``replicas=k`` rebuilds the faulty world on a k-way
    :class:`~repro.storage.replica.ReplicatedDisk`, so checksum failures
    repair in place instead of degrading the plan (seed 17's pinned
    "degraded" outcome turns "clean").
    """
    _, baseline_rows, oracle = _baseline(rows)
    fired = _fire_query(
        chaos_plan(seed), seed, backend, rows, baseline_rows, oracle,
        replicas=replicas,
    )
    return (fired.outcome,)


def _prefetch_schedule(
    seed: int, backend: str, *, rows: int
) -> tuple[ChaosOutcome, ChaosOutcome]:
    """Prove a corrupt prefetched page degrades like a demand-fetched one.

    The seed picks a victim heap page inside the sweep-ahead window (so
    the prefetch world reads it speculatively, not on demand) and
    scripts a single corrupt fault on its first armed read.  The same
    scripted plan then runs twice: once on a demand-only world and once
    with four device queues and depth-8 prefetching armed.  Because
    scripted faults key on per-page access counts — not on global rate
    draws that reordered or cancelled async reads could perturb — the
    fault fires at the exact same logical access in both worlds, and
    everything observable must match: status, the structural degradation
    trail, the fault log, and (bit for bit) the output rows.

    Returns the ``(demand, prefetch)`` outcome pair after all identity
    checks pass; any divergence raises :class:`ChaosViolation`.
    """
    clean_design, baseline_rows, oracle = _baseline(rows)
    if clean_design.heap is None:  # pragma: no cover - build_world makes one
        raise RuntimeError("prefetch sweep needs the heap instance")
    page_ids = clean_design.heap.heap.page_ids
    if len(page_ids) < 2:
        raise ChaosViolation(
            "prefetch sweep needs a multi-page heap to pick a victim "
            "inside the sweep-ahead window"
        )
    # a page the scan reaches only after its first prefetch top-up:
    # positions 1..8 are submitted asynchronously while page 0 is
    # still being consumed, so the fault provably hits a *prefetched*
    # read in the scheduler world
    victim = page_ids[1 + seed % min(8, len(page_ids) - 1)]
    plan = FaultPlan(seed=seed, scripted_reads=((victim, 0, CORRUPT),))

    demand = _fire_query(
        plan, seed, backend, rows, baseline_rows, oracle,
        devices=1, prefetch_depth=0,
    )
    prefetch = _fire_query(
        plan, seed, backend, rows, baseline_rows, oracle,
        devices=4, prefetch_depth=8,
    )

    if demand.prefetch_issued != 0:
        raise ChaosViolation(
            f"seed {seed}: demand world issued prefetches; the comparison "
            "is not demand-vs-prefetch"
        )
    if prefetch.prefetch_issued == 0:
        raise ChaosViolation(
            f"seed {seed}: prefetch world never prefetched; the identity "
            "check is vacuous"
        )
    if demand.outcome.faults_injected < 1 or prefetch.outcome.faults_injected < 1:
        raise ChaosViolation(
            f"seed {seed}: scripted corrupt fault on page {victim} never "
            "fired; the victim page was not read"
        )
    if demand.outcome.fault_log != prefetch.outcome.fault_log:
        raise ChaosViolation(
            f"seed {seed}: fault logs diverged between demand and prefetch "
            f"worlds ({demand.outcome.fault_log} vs "
            f"{prefetch.outcome.fault_log}); scripted faults must replay "
            "access-for-access"
        )
    if demand.outcome.status != prefetch.outcome.status:
        raise ChaosViolation(
            f"seed {seed}: demand world ended {demand.outcome.status!r} but "
            f"prefetch world ended {prefetch.outcome.status!r}"
        )
    if demand.trail != prefetch.trail:
        raise ChaosViolation(
            f"seed {seed}: degradation trails diverged "
            f"({demand.trail} vs {prefetch.trail})"
        )
    if demand.rows != prefetch.rows:
        raise ChaosViolation(
            f"seed {seed}: output rows are not bit-identical between the "
            "demand and prefetch worlds"
        )
    return demand.outcome, prefetch.outcome


# ----------------------------------------------------------------------
# write sweep: torn writes during WAL-journaled bulk loads
# ----------------------------------------------------------------------
def write_plan(seed: int) -> FaultPlan:
    """The write sweep's fault mix: torn writes only, at a harsh rate.

    Reads stay pristine so every divergence the sweep finds is the WAL's
    responsibility — a page the redo pass failed to heal, not collateral
    read damage.
    """
    return FaultPlan(seed=seed, torn_write_rate=0.25)


def _load_write_world(design: PhysicalDesign, data: "list[tuple]") -> None:
    """The write workload: all four instances bulk-loaded (WAL batches)."""
    design.heap.bulk_load(data)
    design.iots["a1"].bulk_load(data)
    design.iots["a2"].bulk_load(data)
    if design.ub is not None:
        design.ub.bulk_load(data)


def _write_schedule(seed: int, backend: str, *, rows: int) -> tuple[ChaosOutcome]:
    """Bulk-load a world under seeded torn writes and verify recovery.

    Three legs, all on the same seed:

    1. *redo*: load all four instances with faults armed, run
       :meth:`~repro.relational.Database.recover`, and require the disk
       to be bit-identical to a fault-free world loaded the same way —
       then require recovery to be idempotent and the harness query to
       return exactly the oracle rows.
    2. *insert*: journaled single-row UB-Tree inserts under the same
       faults, recovered and fingerprint-checked the same way.
    3. *crash*: a fresh world whose WAL kills the process mid-load
       (:class:`~repro.storage.errors.SimulatedCrashError`); the batch
       rollback must leave the disk bit-identical to its pre-load state,
       and recovery on the rolled-back log must change nothing.
    """
    extras = chaos_data(24, data_seed=1)

    # fault-free oracle, loaded through the same WAL-journaled paths
    oracle_db, oracle_design, data = build_world(rows=rows, wal=True)
    _load_write_world(oracle_design, data)
    oracle_fp = page_fingerprint(oracle_db)
    oracle_rows = _oracle_rows(data)

    # leg 1: torn writes during every bulk_load, then redo recovery
    db, design, _ = build_world(write_plan(seed), rows=rows, wal=True)
    disk = db.disk
    if not isinstance(disk, FaultyDisk):  # pragma: no cover - plan is never None
        raise RuntimeError("write-chaos world lost its FaultyDisk")
    db.arm_faults()
    try:
        _load_write_world(design, data)
    finally:
        db.disarm_faults()
    db.recover()
    if page_fingerprint(db) != oracle_fp:
        raise ChaosViolation(
            f"seed {seed}: recovered disk is not bit-identical to a "
            "fault-free load; WAL redo missed a torn page"
        )
    again = db.recover()
    if again.healed_pages or page_fingerprint(db) != oracle_fp:
        raise ChaosViolation(f"seed {seed}: recovery is not idempotent")
    # the oracle world runs the same query so that its temp-sort
    # allocations keep both worlds' page allocators in lock-step —
    # leg 2's split pages must land at the same physical addresses
    _harness_query(oracle_design)
    result = _harness_query(design)
    if result.rows != oracle_rows or result.degraded:
        raise ChaosViolation(
            f"seed {seed}: post-recovery query diverged from the oracle"
        )

    # leg 2: journaled inserts under the same torn-write schedule.
    # Recovery runs after every insert: the WAL's contract is
    # crash-consistency at *batch* granularity, and a torn page must
    # be healed before the next batch builds on top of it (pages are
    # shared objects, so a torn write damages the live page too).
    for row in extras:
        db.arm_faults()
        try:
            design.ub.insert(row)  # type: ignore[union-attr]
        finally:
            db.disarm_faults()
        db.recover()
    for row in extras:
        oracle_design.ub.insert(row)  # type: ignore[union-attr]
    if page_fingerprint(db) != page_fingerprint(oracle_db):
        raise ChaosViolation(
            f"seed {seed}: recovered inserts diverged from fault-free "
            "inserts; journaled insert left a half-applied split"
        )

    # leg 3: simulated crash mid-load must roll back to pristine
    crash_db, crash_design, _ = build_world(rows=rows, wal=True)
    pre_fp = page_fingerprint(crash_db)
    if crash_db.wal is None:
        raise ChaosViolation("write world built without an armed WAL")
    crash_db.wal.crash_after_appends(3 + seed % 11)
    try:
        crash_design.heap.bulk_load(data)
    except SimulatedCrashError:
        pass
    else:
        raise ChaosViolation(
            f"seed {seed}: crash hook never fired during bulk_load"
        )
    if page_fingerprint(crash_db) != pre_fp:
        raise ChaosViolation(
            f"seed {seed}: crashed bulk_load left a half-built heap"
        )
    crash_db.recover()
    if page_fingerprint(crash_db) != pre_fp:
        raise ChaosViolation(
            f"seed {seed}: recovery disturbed a cleanly rolled-back world"
        )

    faults = disk.stats.faults
    return (
        _outcome(
            seed,
            backend,
            "recovered" if faults.torn_writes else "clean",
            len(result.rows),
            faults,
            healed=faults.wal_redo_pages,
            fault_log=disk.fault_log,
        ),
    )


# ----------------------------------------------------------------------
# shard + join sweeps: kill/corrupt/slow one shard copy mid-stream
# ----------------------------------------------------------------------
def shard_scenario(seed: int) -> tuple[str, str]:
    """Deterministic ``(scenario, fault)`` grid cell for one seed.

    ``seed % 3`` picks the replication scenario — ``clean`` (nothing
    armed), ``failover`` (two copies per shard, one of them faulted) or
    ``lone`` (a single copy, so the failure ladder must bottom out in a
    typed error or a flagged partial) — and ``(seed // 3) % 3`` picks
    the fault: ``kill`` (the copy dies mid-scan), ``corrupt``
    (persistent checksum damage driving quarantine) or ``slow``
    (latency injection only; the scan must still finish bit-identical).
    """
    scenario = ("clean", "failover", "lone")[seed % 3]
    fault = ("kill", "corrupt", "slow")[(seed // 3) % 3]
    return scenario, fault


def join_scenario(seed: int) -> tuple[str, str, str]:
    """``(scenario, fault, kind)`` for one join-sweep seed.

    The first two axes reuse :func:`shard_scenario`'s grid; the third
    picks the join kind — ``(seed // 9) % 2`` alternates between the
    inner :class:`~repro.relational.operators.MergeJoin` and the
    :class:`~repro.relational.operators.MergeSemiJoin` of Q4, so the
    pinned sweep exercises both merge loops' abandon paths.
    """
    scenario, fault = shard_scenario(seed)
    kind = ("inner", "semi")[(seed // 9) % 2]
    return scenario, fault, kind


def _serial_stream(
    data: "list[tuple]", restrictions: "dict | None", sort_attr: str
) -> "list[tuple]":
    """The unsharded fault-free engine's exact keyed stream."""
    table = Database().create_ub_table("oracle", chaos_schema(), SHARD_DIMS, 32)
    table.bulk_load(data)
    return list(table.tetris_scan(restrictions, sort_attr))


def _sharded_schedule(
    seed: int,
    backend: str,
    shards: int,
    copies: int,
    build: "Callable[[int, dict | None], tuple[ShardedDatabase, Callable, list]]",
    shard_key: "Callable[[tuple], int]",
) -> tuple[ChaosOutcome]:
    """One sharded operation under the seed's :func:`shard_scenario` cell.

    ``build(copies, plans)`` is the sweep's subject: it makes the
    world(s) with the scenario's copy count and ``plans`` on the victim
    copy, and returns the sharded database under fire, the operation
    to run (it takes ``allow_partial=``), and the fault-free oracle rows.
    The victim shard is ``seed % shards`` — always on the operation's
    path — and the cell decides what happens to its primary copy
    mid-stream: ``corrupt``/``slow`` plans are armed on that copy only,
    ``kill`` is scheduled through
    :meth:`~repro.shard.ShardedDatabase.kill_copy`.  The contract is
    graded accordingly:

    * any run that completes non-partial must be **bit-identical** to
      the fault-free oracle — across failover to a replica copy,
      cross-copy page repair, and latency injection alike;
    * a ``lone`` run (no replicas) that loses its copy must end in a
      typed :class:`~repro.shard.ShardFailedError` or — on odd seeds,
      which opt into ``allow_partial`` — a result whose
      ``failed_ranges`` exactly account for every missing row
      (``shard_key`` maps an output row to its encoded shard key);
    * a wrong or reordered row, a silently dropped shard, or an untyped
      crash is a :class:`ChaosViolation`.
    """
    scenario, fault = shard_scenario(seed)
    armed_fault = None if scenario == "clean" else fault
    allow_partial = scenario == "lone" and bool(seed % 2)
    victim = seed % shards
    plans: "dict[tuple[int, int], FaultPlan] | None" = None
    if armed_fault == "corrupt":
        plans = {(victim, 0): FaultPlan(seed=seed, corrupt_rate=0.30)}
    elif armed_fault == "slow":
        plans = {
            (victim, 0): FaultPlan(
                seed=seed, latency_rate=0.5, latency_seconds=0.020
            )
        }
    sdb, run, oracle = build(copies if scenario == "failover" else 1, plans)

    sdb.arm_faults()
    if armed_fault == "kill":
        sdb.kill_copy(victim, 0, after_rows=12 + seed % 25)
    try:
        result = run(allow_partial=allow_partial)
    except ShardFailedError as exc:
        failed = _outcome(
            seed,
            backend,
            "failed",
            0,
            sdb.fault_totals(),
            events=exc.degradations,
            error=f"shard {exc.shard}: {exc}",
        )
        return (failed,)
    finally:
        sdb.disarm_faults()

    totals = sdb.fault_totals()
    if result.partial:
        lost = result.failed_ranges
        expected = [
            row
            for row in oracle
            if not any(lo <= shard_key(row) <= hi for lo, hi in lost)
        ]
        if result.rows != expected:
            raise ChaosViolation(
                f"seed {seed}: partial result is not the oracle stream minus "
                "its flagged ranges; the surviving rows are silently wrong"
            )
        if not result.degradations:
            raise ChaosViolation(
                f"seed {seed}: partial result carries no degradation events; "
                "a shard was dropped silently"
            )
    else:
        if result.rows != oracle:
            raise ChaosViolation(
                f"seed {seed}: completed run is not bit-identical to the "
                f"fault-free serial oracle ({len(result.rows)} rows vs "
                f"{len(oracle)}); this is silent garbage"
            )
        if scenario == "clean" and result.degraded:
            raise ChaosViolation(
                f"seed {seed}: fault-free sharded world reported degradations"
            )
        if scenario == "failover":
            if fault in ("kill", "corrupt") and not result.degraded:
                raise ChaosViolation(
                    f"seed {seed}: armed {fault} fault never forced a "
                    "degradation; the schedule is vacuous"
                )
            if fault == "slow" and totals["injected"] < 1:
                raise ChaosViolation(
                    f"seed {seed}: latency plan never injected; the schedule "
                    "is vacuous"
                )
    if armed_fault == "kill" and sdb.health()[victim][0] != "dead":
        raise ChaosViolation(
            f"seed {seed}: scheduled kill never fired; the schedule is vacuous"
        )
    status = (
        "partial" if result.partial else ("degraded" if result.degraded else "clean")
    )
    return (
        _outcome(
            seed, backend, status, len(result.rows), totals,
            events=result.degradations,
        ),
    )


def _shard_schedule(
    seed: int, backend: str, *, rows: int, shards: int = 4, copies: int = 2
) -> tuple[ChaosOutcome]:
    """The harness query as a sharded sorted scan, one copy under fire.

    The oracle is the unsharded fault-free engine's keyed stream, itself
    checked against the pure-python ground truth; an output pair's shard
    key is the first component of its curve key.
    """

    def build(copies: int, plans: "dict | None") -> tuple:
        sdb = build_sharded_world(shards=shards, copies=copies, fault_plans=plans)
        data = chaos_data(rows)
        sdb.load(data)
        oracle = _serial_stream(data, QUERY["restrictions"], QUERY["sort_attr"])
        if sorted(payload for _, payload in oracle) != sorted(_oracle_rows(data)):
            raise ChaosViolation(
                "fault-free oracle is broken; shard-chaos results are "
                "meaningless"
            )
        scan = partial(sdb.sorted_scan, QUERY["restrictions"], QUERY["sort_attr"])
        return sdb, scan, oracle

    return _sharded_schedule(
        seed, backend, shards, copies, build, shard_key=lambda pair: pair[0][0]
    )


def _join_schedule(
    seed: int, backend: str, *, rows: int, shards: int = 4, copies: int = 2
) -> tuple[ChaosOutcome]:
    """A co-partitioned merge join with one probe-side copy under fire.

    Both sides are range-sharded on the join attribute ``a1`` over the
    same encoded domain, so every slab pair is join-aligned.  The fault
    is armed on the *right* (probe) side's victim copy — the side a
    pipelined merge join is mid-stream on whenever the build cursor
    advances — and the join runs unrestricted, so the armed fault is
    always on the join path.  The right relation is twice the size of
    the left (duplicate join keys on the probe side, the usual
    fact-table shape).  The oracle is the serial merge join of the two
    serial sorted streams; an output row's shard key is its encoded
    join key.
    """
    kind = join_scenario(seed)[2]
    encoder = chaos_schema().attribute("a1").encoder

    def build(copies: int, plans: "dict | None") -> tuple:
        left = build_sharded_world(shards=shards, copies=copies)
        left_data = chaos_data(rows)
        left.load(left_data)
        right = build_sharded_world(shards=shards, copies=copies, fault_plans=plans)
        right_data = chaos_data(rows * 2, data_seed=1)
        right.load(right_data)
        join_cls = MergeJoin if kind == "inner" else MergeSemiJoin
        oracle = list(
            join_cls(
                [row for _, row in _serial_stream(left_data, None, "a1")],
                [row for _, row in _serial_stream(right_data, None, "a1")],
                left_key=lambda row: row[0],
                right_key=lambda row: row[0],
            )
        )
        return right, CoPartitionedJoin(left, right, kind=kind).run, oracle

    return _sharded_schedule(
        seed, backend, shards, copies, build,
        shard_key=lambda row: encoder.encode(row[0]),
    )


# ----------------------------------------------------------------------
# txn sweep: the 2PC commit path under log-device fire, plus a seeded
# crash mid-transaction followed by a reboot and decision-log recovery
# ----------------------------------------------------------------------
def _txn_faults(sdb: ShardedDatabase, txn: TransactionCoordinator) -> int:
    """Faults injected into every log device this world owns."""
    total = sdb.fault_totals()["log_injected"]
    if isinstance(txn.log.device, FaultyDisk):
        total += txn.log.device.stats.faults.total_injected
    return total


def _txn_schedule(seed: int, backend: str, *, rows: int) -> tuple[ChaosOutcome]:
    """One seed's 2PC schedule: commit through fire, then crash+recover.

    Two legs, both against a fault-free oracle world driven through the
    identical coordinator path:

    1. *commit through fire*: an ``atomic_load`` and an
       ``atomic_insert`` run with torn/transient append faults armed on
       every shard WAL and the decision log; the verified force must
       absorb every fault and the world must land bit-identical to the
       oracle.
    2. *crash + reboot + recover*: a fresh faulted world loads, then a
       deterministic crash (seed-picked log device, seed-picked append
       countdown) kills the insert mid-protocol.  Injection stops (the
       reboot), :meth:`~repro.txn.TransactionCoordinator.recover`
       replays the decision log, and the world must land on the oracle
       (durable commit verdict) or the pre-insert baseline (presumed
       abort) — with a second recovery pass changing nothing.
    """
    data = chaos_data(rows)
    extras = chaos_data(24, data_seed=1)

    oracle_sdb, oracle_txn = build_txn_world()
    oracle_txn.atomic_load(data)
    base_fp = scan_fingerprint(oracle_sdb)
    devices = oracle_txn.devices()
    before = {d: oracle_txn.append_count(d) for d in devices}
    oracle_txn.atomic_insert(extras)
    #: per-device appends the insert transaction makes — identical
    #: in the faulted world (fault retries re-force, they do not
    #: re-append), so the seed can aim anywhere in the protocol
    insert_appends = {d: oracle_txn.append_count(d) - before[d] for d in devices}
    oracle_fp = scan_fingerprint(oracle_sdb)

    # leg 1: the whole commit path under seeded log-device fire
    sdb, txn = build_txn_world(seed)
    sdb.arm_faults()
    txn.log.arm_log_faults()
    try:
        txn.atomic_load(data)
        txn.atomic_insert(extras)
    finally:
        sdb.disarm_faults()
        txn.log.disarm_log_faults()
    if scan_fingerprint(sdb) != oracle_fp:
        raise ChaosViolation(
            f"seed {seed}: committed world diverged from the oracle; "
            "a log fault leaked past the verified force"
        )
    faults = _txn_faults(sdb, txn)

    # leg 2: crash mid-insert, reboot, decision-log recovery
    sdb2, txn2 = build_txn_world(seed)
    sdb2.arm_faults()
    txn2.log.arm_log_faults()
    crashed = False
    resolved = 0
    try:
        txn2.atomic_load(data)
        # crash only on *log* devices: their appends happen strictly
        # inside transactions, so a countdown that never fires here
        # can never go off later (data-disk crash points are covered
        # exhaustively by ``tools.crashgrid``)
        log_devices = [
            device for device in txn2.devices() if not device.endswith(".disk")
        ]
        device = log_devices[seed % len(log_devices)]
        countdown = 1 + (seed // 3) % insert_appends[device]
        txn2.crash_after(device, countdown)
        try:
            txn2.atomic_insert(extras)
        except SimulatedCrashError:
            crashed = True
    finally:
        sdb2.disarm_faults()
        txn2.log.disarm_log_faults()
    faults += _txn_faults(sdb2, txn2)
    if crashed:
        report, _ = settle_txn_landing(
            f"seed {seed}", sdb2, txn2, "insert#1", oracle_fp, base_fp
        )
        resolved = report.resolved_commits + report.resolved_aborts
    elif scan_fingerprint(sdb2) != oracle_fp:
        raise ChaosViolation(
            f"seed {seed}: uncrashed insert diverged from the oracle"
        )
    return (
        _outcome(
            seed,
            backend,
            "recovered" if crashed else "clean",
            len(oracle_fp),
            {"injected": faults},
            healed=resolved,
        ),
    )


# ----------------------------------------------------------------------
# the sweep table and the one driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sweep:
    """One row of :data:`SWEEPS`: everything a caller may know about a sweep."""

    name: str
    #: CLI flag that selects the sweep (``None``: the default sweep); a
    #: flag that is also one of ``params`` carries that parameter's value
    flag: "str | None"
    #: what the sweep fires, in a line (completes the flag's ``--help``)
    what: str
    seeds: tuple[int, ...]  #: the pinned CI seeds
    rows: int  #: default relation size
    #: exactly the statuses the pinned seeds reach, on every backend
    statuses: frozenset[str]
    #: runs one schedule — ``(seed, backend_name, *, rows, **params)`` —
    #: to one verified outcome per ``legs`` entry, the graded one last
    run: Callable[..., tuple[ChaosOutcome, ...]]
    #: keyword parameters ``run`` accepts besides ``rows``
    params: tuple[str, ...] = ()
    #: ``(--replay mode, sweep-line label)`` per outcome of a schedule;
    #: left empty it becomes the single unlabelled ``(name, "")``
    legs: tuple[tuple[str, str], ...] = ()
    #: whether a sweep line is followed by its degradation trail
    trail: bool = True
    #: closing line of a sweep, after ``chaos: ``
    summary: str = "{count} schedule(s) — {statuses}; zero silent wrong answers"

    def __post_init__(self) -> None:
        if not self.legs:
            object.__setattr__(self, "legs", ((self.name, ""),))


_GRID_STATUSES = frozenset({"clean", "degraded", "failed", "partial"})

_TABLE = (
    Sweep(
        name="read",
        flag=None,
        what="seeded transient/corrupt/torn/latency faults under the harness query",
        # chosen to cover clean, degraded and failed outcomes on both
        # kernel backends
        seeds=(17, 23, 33),
        rows=1200,
        statuses=frozenset({"clean", "degraded", "failed"}),
        run=_read_schedule,
        params=("replicas",),
    ),
    Sweep(
        name="write",
        flag="write",
        what="torn writes during WAL-journaled bulk loads",
        # chosen so every schedule tears at least one page mid-``bulk_load``
        # on both kernel backends, forcing the WAL's redo path to do real work
        seeds=(7, 19, 41),
        rows=600,
        statuses=frozenset({"recovered"}),
        run=_write_schedule,
    ),
    Sweep(
        name="prefetch",
        flag="prefetch",
        what=(
            "a scripted corrupt page must degrade identically whether "
            "demand-fetched or prefetched"
        ),
        # each picks a different victim page inside the sweep-ahead window
        seeds=(3, 12, 29),
        rows=1200,
        statuses=frozenset({"degraded"}),
        run=_prefetch_schedule,
        legs=(("prefetch-demand", "demand   "), ("prefetch-armed", "prefetch ")),
        trail=False,
        summary=(
            "{count} prefetch identity schedule(s) — {statuses}; "
            "demand and prefetch worlds degraded identically"
        ),
    ),
    Sweep(
        name="shard",
        flag="shards",
        what=(
            "kill/corrupt/slow one shard copy of a K-way range-sharded "
            "world mid-scan"
        ),
        # each lands on a different cell of the :func:`shard_scenario` grid,
        # so the default sweep covers a clean sharded run, a latency-only
        # run, failover by kill, cross-copy repair after corruption, a typed
        # failure and a flagged-partial result on both kernel backends
        seeds=(2, 6, 7, 10, 13, 29),
        rows=900,
        statuses=_GRID_STATUSES,
        run=_shard_schedule,
        params=("shards", "copies"),
    ),
    Sweep(
        name="join",
        flag="join",
        what=(
            "kill/corrupt/slow one probe-side shard copy mid-join; the output "
            "must stay bit-identical to the serial merge join or end in a "
            "typed error / flagged partial"
        ),
        # the same grid cells as the shard sweep (clean, latency-only,
        # failover by kill, cross-copy repair, typed failure, flagged
        # partial) but spread over both join kinds: 2/6/7 run the inner
        # merge join, 10/13/29 the merge semi-join
        seeds=(2, 6, 7, 10, 13, 29),
        rows=500,
        statuses=_GRID_STATUSES,
        run=_join_schedule,
        params=("shards", "copies"),
    ),
    Sweep(
        name="txn",
        flag="txn",
        what=(
            "log-device faults during atomic cross-shard writes, plus a "
            "seeded crash + recovery"
        ),
        # 6 crashes the decision log's ack force (verdict durable, recovery
        # re-acks a fully committed transaction), 23 crashes a shard WAL
        # mid-work (presumed abort rolls everything back), and 85 crashes a
        # shard WAL's own commit record (recovery resolves the in-doubt
        # batches forward to commit) — so the default sweep covers
        # commit-through-fire plus all three recovery verdict paths on both
        # kernel backends
        seeds=(6, 23, 85),
        rows=200,
        statuses=frozenset({"recovered"}),
        run=_txn_schedule,
    ),
)

#: the sweep table, by name; the first row is the default sweep
SWEEPS: dict[str, Sweep] = {sweep.name: sweep for sweep in _TABLE}


def run_schedule(
    sweep: str, seed: int, *, backend: "str | None" = None, **params: int
) -> tuple[ChaosOutcome, ...]:
    """Run one seeded schedule of the named sweep and verify it.

    ``params`` may carry ``rows`` (default: the sweep's) and whatever
    :attr:`Sweep.params` lists.  Returns one outcome per
    :attr:`Sweep.legs` entry; reaching one at all means every check
    passed — anything else raised :class:`ChaosViolation`.
    """
    spec = SWEEPS[sweep]
    backend_name = backend or kernels.get_backend().name
    params.setdefault("rows", spec.rows)
    with kernels.use_backend(backend_name):
        return spec.run(seed, backend_name, **params)


def run_suite(
    sweep: str,
    seeds: "Iterable[int] | None" = None,
    *,
    backends: "Sequence[str] | None" = None,
    **params: int,
) -> list[tuple[ChaosOutcome, ...]]:
    """Sweep ``seeds`` (default: the sweep's pinned seeds) across
    ``backends`` (default: all available)."""
    seeds = SWEEPS[sweep].seeds if seeds is None else tuple(seeds)
    names = list(backends) if backends else kernels.available_backends()
    return [
        run_schedule(sweep, seed, backend=name, **params)
        for name in names
        for seed in seeds
    ]
