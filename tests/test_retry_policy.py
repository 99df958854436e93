"""RetryPolicy edge cases: zero-attempt policies, backoff cap
saturation, exact simulated-clock charges when retry loops stack
across layers (resilient reads and the buffer pool's inlined loop), and
a database's policy reaching every read path.

Every delay in a backoff schedule is charged to the *simulated* clock
(reprolint R001 bans the wall clock), so the numbers here are exact
equalities, not tolerances.
"""

import pytest

from repro.planner.executor import build_access_path
from repro.relational import Attribute, Database, IntEncoder, Schema
from repro.storage import (
    DEFAULT_RETRY_POLICY,
    ICDE99_ANALYSIS,
    NO_RETRY,
    BufferPool,
    CorruptPageError,
    FaultPlan,
    FaultyDisk,
    HeapFile,
    IOScheduler,
    QuarantinedPageError,
    ReplicatedDisk,
    RetryPolicy,
    SimulatedDisk,
    TransientIOError,
    read_page_resilient,
)
from repro.storage.faults import CORRUPT, TRANSIENT

from oracles import allocated_pages


class FlakyDisk(SimulatedDisk):
    """Raises a set number of transient errors per page, then delegates.

    Failures raise before any pricing, so the exact clock charge of a
    retried read is ``sum(backoff delays) + cost(successful read)``.
    """

    def __init__(self, failures):
        super().__init__()
        self._remaining = dict(failures)

    def read(self, page_id, **kwargs):
        remaining = self._remaining.get(page_id, 0)
        if remaining:
            self._remaining[page_id] = remaining - 1
            raise TransientIOError(f"flaky read of page {page_id}")
        return super().read(page_id, **kwargs)


def make_flaky(failures, pages=3, capacity=4):
    disk = FlakyDisk(failures)
    for index in range(pages):
        page = disk.allocate(capacity)
        page.add((index,))
    return disk


# ----------------------------------------------------------------------
# schedule shape
# ----------------------------------------------------------------------
class TestSchedule:
    def test_zero_attempt_policy_has_an_empty_schedule(self):
        assert list(RetryPolicy(max_retries=0).delays()) == []
        assert list(NO_RETRY.delays()) == []

    def test_backoff_cap_saturates(self):
        policy = RetryPolicy(
            max_retries=5, base_delay=0.01, multiplier=3.0, max_delay=0.02
        )
        assert list(policy.delays()) == [0.01, 0.02, 0.02, 0.02, 0.02]

    def test_cap_below_base_clamps_every_delay(self):
        policy = RetryPolicy(
            max_retries=3, base_delay=0.04, multiplier=2.0, max_delay=0.01
        )
        assert list(policy.delays()) == [0.01, 0.01, 0.01]

    def test_multiplier_one_is_a_flat_schedule(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=0.003, multiplier=1.0, max_delay=1.0
        )
        assert list(policy.delays()) == [0.003] * 4

    def test_zero_delay_schedule_is_legal(self):
        policy = RetryPolicy(max_retries=2, base_delay=0.0, max_delay=0.0)
        assert list(policy.delays()) == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-0.001)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay=-0.001)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ----------------------------------------------------------------------
# zero-attempt behaviour on the read paths
# ----------------------------------------------------------------------
class TestZeroAttempt:
    def test_resilient_read_fails_fast_and_charges_nothing(self):
        disk = make_flaky({0: 1})
        with pytest.raises(TransientIOError):
            read_page_resilient(disk, 0, policy=NO_RETRY)
        assert disk.clock == 0.0
        assert disk.stats.faults.retries == 0
        assert disk.stats.faults.retry_delay == 0.0

    def test_buffer_pool_fails_fast_too(self):
        disk = make_flaky({0: 1})
        pool = BufferPool(disk, 4, retry_policy=NO_RETRY, quarantine_threshold=10)
        with pytest.raises(TransientIOError):
            pool.get(0)
        assert disk.clock == 0.0
        assert pool.retry_attempts == 0
        assert pool._failures.get(0, 0) == 1  # the failure is still recorded


# ----------------------------------------------------------------------
# exact simulated-clock charges
# ----------------------------------------------------------------------
class TestExactCharges:
    POLICY = RetryPolicy(
        max_retries=3, base_delay=0.002, multiplier=2.0, max_delay=0.005
    )  # schedule: 2 ms, 4 ms, 5 ms (capped)

    def test_single_read_charges_delays_plus_one_read(self):
        disk = make_flaky({1: 2})
        page, retries = read_page_resilient(disk, 1, policy=self.POLICY)
        assert page.records == [(1,)]
        assert retries == 2
        expected_backoff = 0.002 + 0.004
        assert disk.stats.faults.retries == 2
        assert disk.stats.faults.retry_delay == expected_backoff
        assert disk.clock == expected_backoff + disk.params.random_cost(1)

    def test_exhausted_schedule_charges_every_delay(self):
        disk = make_flaky({1: 10})
        with pytest.raises(TransientIOError):
            read_page_resilient(disk, 1, policy=self.POLICY)
        expected_backoff = 0.002 + 0.004 + 0.005  # full capped schedule
        assert disk.stats.faults.retries == 3
        assert disk.stats.faults.retry_delay == expected_backoff
        assert disk.clock == expected_backoff  # no read ever succeeded

    def test_nested_retry_loops_accumulate_exactly(self):
        """Resilient reads and the buffer pool's inlined loop stack: the
        clock carries the exact sum of both layers' backoff schedules
        plus the two successful reads."""
        disk = make_flaky({0: 2, 2: 3})
        # layer 1: a bare resilient read of page 0 (two failures)
        read_page_resilient(disk, 0, policy=self.POLICY)
        # layer 2: a buffer-pool lookup of page 2 (three failures)
        pool = BufferPool(disk, 4, retry_policy=self.POLICY, quarantine_threshold=10)
        pool.get(2)
        faults = disk.stats.faults
        assert faults.retries == 5
        # bit-exact: accumulate in the same order the engine charged it
        expected_backoff = 0.0
        expected_clock = 0.0
        for delay in (0.002, 0.004):
            expected_backoff += delay
            expected_clock += delay
        expected_clock += disk.params.random_cost(1)
        for delay in (0.002, 0.004, 0.005):
            expected_backoff += delay
            expected_clock += delay
        expected_clock += disk.params.random_cost(1)
        assert faults.retry_delay == expected_backoff
        assert disk.clock == expected_clock
        assert pool.retry_attempts == 3
        assert pool.disk_fetches == 4  # three failed attempts + the success

    def test_retry_charges_replay_identically(self):
        """Same failures, same policy -> bit-identical clock."""
        clocks = []
        for _ in range(2):
            disk = make_flaky({0: 1, 1: 2})
            read_page_resilient(disk, 0, policy=self.POLICY)
            read_page_resilient(disk, 1, policy=self.POLICY)
            clocks.append(disk.clock)
        assert clocks[0] == clocks[1]


# ----------------------------------------------------------------------
# ladder parity: one fault, four read entry points, one answer
# ----------------------------------------------------------------------
TARGET = 1  # second page of a two-page heap, so a depth-1 scan prefetches it
TRUE_RECORDS = [(10,), (11,)]

#: scenario -> (fault kind, how many reads it hits, replica copies)
SCENARIOS = {
    "transient-once": (TRANSIENT, 1, 0),
    "transient-exhausted": (TRANSIENT, 3, 0),
    "corrupt-replicated": (CORRUPT, 1, 2),
    "corrupt-unreplicated": (CORRUPT, 1, 0),
}


class LadderWorld:
    """heap -> [replicas] -> fault layer -> one queue with depth-1 prefetch.

    A transient fault can only meet a reader that waits for the page, so
    in a prefetched world the async attempt absorbs one extra transient
    first (that is how the page falls back to the demand path); a corrupt
    read rides the async transfer and is met at claim time.
    """

    def __init__(self, scenario, *, prefetched, armed):
        kind, hits, copies = SCENARIOS[scenario]
        if kind == TRANSIENT and prefetched:
            hits += 1
        base = SimulatedDisk()
        inner = ReplicatedDisk(base, copies) if copies else base
        plan = FaultPlan(
            scripted_reads=tuple((TARGET, access, kind) for access in range(hits))
        )
        self.disk = FaultyDisk(inner, plan)
        self.scheduler = IOScheduler(self.disk, 1, prefetch_depth=1)
        self.heap = HeapFile(self.disk, 2, scheduler=self.scheduler)
        self.heap.load([(0,), (1,)] + TRUE_RECORDS)
        assert self.heap.page_ids == [0, TARGET]
        if copies:
            inner.capture_all()
        self.pool = BufferPool(self.disk, 4, scheduler=self.scheduler)
        if armed:
            self.disk.arm()


def _serve_resilient(world):
    return lambda: read_page_resilient(
        world.disk, TARGET, policy=DEFAULT_RETRY_POLICY
    )[0]


def _serve_pool_miss(world):
    return lambda: world.pool.get(TARGET)


def _serve_pool_claim(world):
    world.pool.prefetch(TARGET)
    return lambda: world.pool.get(TARGET)


def _serve_heap_prefetched(world):
    scan = world.heap.scan_pages()
    next(scan)  # serves page 0 and submits the async read of TARGET
    return lambda: next(scan)


#: entry point -> (set-up returning the call that serves TARGET, prefetched?)
ENTRY_POINTS = {
    "read_page_resilient": (_serve_resilient, False),
    "pool-demand-miss": (_serve_pool_miss, False),
    "pool-prefetch-claim": (_serve_pool_claim, True),
    "heap-scan-prefetched": (_serve_heap_prefetched, True),
}

LADDER_FIELDS = ("retries", "retry_delay", "repair_reads", "repaired_pages")


def climb(entry, scenario, *, armed=True):
    """Serve TARGET once; returns (world, outcome, fault deltas, seconds)."""
    serve, prefetched = ENTRY_POINTS[entry]
    world = LadderWorld(scenario, prefetched=prefetched, armed=armed)
    call = serve(world)
    before = world.disk.stats.faults.copy()
    started = world.disk.clock
    try:
        page = call()
    except (TransientIOError, CorruptPageError) as exc:
        outcome = type(exc).__name__
    else:
        assert page.page_id == TARGET
        assert page.records == TRUE_RECORDS  # true content, healed if need be
        outcome = "ok"
    delta = world.disk.stats.faults - before
    deltas = {name: getattr(delta, name) for name in LADDER_FIELDS}
    return world, outcome, deltas, world.disk.clock - started


class TestLadderParity:
    FAILED_ATTEMPT = ICDE99_ANALYSIS.t_pi + ICDE99_ANALYSIS.t_tau
    HEAL = 2 * ICDE99_ANALYSIS.random_cost(1)  # one replica read + write-back

    #: scenario -> (outcome, ladder fault deltas, ladder seconds)
    EXPECTED = {
        "transient-once": (
            "ok",
            {"retries": 1, "retry_delay": 0.002, "repair_reads": 0, "repaired_pages": 0},
            FAILED_ATTEMPT + 0.002,
        ),
        "transient-exhausted": (
            "TransientIOError",
            {"retries": 2, "retry_delay": 0.002 + 0.004, "repair_reads": 0, "repaired_pages": 0},
            3 * FAILED_ATTEMPT + 0.002 + 0.004,
        ),
        "corrupt-replicated": (
            "ok",
            {"retries": 0, "retry_delay": 0.0, "repair_reads": 1, "repaired_pages": 1},
            HEAL,
        ),
        "corrupt-unreplicated": (
            "CorruptPageError",
            {"retries": 0, "retry_delay": 0.0, "repair_reads": 0, "repaired_pages": 0},
            0.0,
        ),
    }

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_same_fault_same_ladder(self, entry, scenario):
        """Outcome, fault counters and the ladder's simulated-clock charge
        do not depend on which read entry point met the fault.

        The charge is what serving the page cost beyond the one transfer
        the fault-free twin pays (random, sequential or a claim's wait —
        that part is the entry point's own); an exhausted retry schedule
        never got its transfer, so there the whole cost is the ladder's.
        """
        expected_outcome, expected_deltas, expected_charge = self.EXPECTED[scenario]
        _, outcome, deltas, seconds = climb(entry, scenario)
        assert outcome == expected_outcome
        assert deltas == pytest.approx(expected_deltas, abs=1e-12)
        if scenario != "transient-exhausted":
            _, clean, _, transfer = climb(entry, scenario, armed=False)
            assert clean == "ok"
            seconds -= transfer
        assert seconds == pytest.approx(expected_charge, abs=1e-12)

    @pytest.mark.parametrize(
        "entry, scenario, quarantined, failures, retry_attempts, rejected",
        [
            ("pool-demand-miss", "transient-once", False, 1, 1, 0),
            ("pool-prefetch-claim", "transient-once", False, 1, 1, 0),
            # the third failure reaches the quarantine threshold
            ("pool-demand-miss", "transient-exhausted", True, 3, 2, 0),
            ("pool-prefetch-claim", "transient-exhausted", True, 3, 2, 0),
            ("pool-demand-miss", "corrupt-replicated", False, 0, 0, 0),
            ("pool-prefetch-claim", "corrupt-replicated", False, 0, 0, 0),
            # unrepairable corruption: straight to quarantine; a claim that
            # ends there was neither hit nor miss, so it counts as rejected
            ("pool-demand-miss", "corrupt-unreplicated", True, 3, 0, 0),
            ("pool-prefetch-claim", "corrupt-unreplicated", True, 3, 0, 1),
        ],
    )
    def test_pool_quarantine_bookkeeping(
        self, entry, scenario, quarantined, failures, retry_attempts, rejected
    ):
        """What the pool adds *around* the shared ladder, per scenario."""
        world, _, _, _ = climb(entry, scenario)
        pool = world.pool
        assert (TARGET in pool._quarantined) is quarantined
        assert pool._failures.get(TARGET, 0) == failures
        assert pool.retry_attempts == retry_attempts
        assert pool.rejected == rejected
        assert world.disk.stats.faults.quarantined_pages == int(quarantined)
        assert (TARGET in pool) is (not quarantined)
        assert pool.prefetch_pending == frozenset()
        # every issued prefetch was claimed, or cancelled by its own fault
        assert pool.prefetch_issued == pool.prefetch_claimed + pool.prefetch_cancelled
        if quarantined:
            with pytest.raises(QuarantinedPageError):
                pool.get(TARGET)


# ----------------------------------------------------------------------
# the database's policy reaches every read path
# ----------------------------------------------------------------------
class TestDatabasePolicy:
    """``Database(retry_policy=P)`` governs heap scans and sort-run reads,
    not only the buffer pool and the WAL."""

    def _heap(self, policy):
        schema = Schema([Attribute("k", IntEncoder(0, 1023))])
        db = Database(fault_plan=FaultPlan(), retry_policy=policy)
        table = db.create_heap_table("t", schema, 4)
        table.bulk_load([((i * 37) % 1024,) for i in range(40)])
        return db, table

    @pytest.mark.parametrize(
        "policy, retries", [(NO_RETRY, 0), (None, 1)], ids=["no-retry", "default"]
    )
    def test_heap_scan(self, policy, retries):
        db, table = self._heap(policy)
        first = table.heap.page_ids[0]
        db.disk.plan = FaultPlan(scripted_reads=((first, 0, TRANSIENT),))
        db.arm_faults()
        if policy is NO_RETRY:
            with pytest.raises(TransientIOError):
                list(table.scan())
        else:
            assert len(list(table.scan())) == 40
        assert db.disk.stats.faults.retries == retries

    @pytest.mark.parametrize("policy", [NO_RETRY, None], ids=["no-retry", "default"])
    def test_sort_run_read(self, policy):
        db, table = self._heap(policy)
        sort, _ = build_access_path(table, None, ("k",), memory_pages=1)
        # every page allocated from here on is a sort run: fail its first read
        runs = range(allocated_pages(db.disk), allocated_pages(db.disk) + 64)
        db.disk.plan = FaultPlan(
            scripted_reads=tuple((page, 0, TRANSIENT) for page in runs)
        )
        db.arm_faults()
        if policy is NO_RETRY:
            with pytest.raises(TransientIOError):
                list(sort)
            assert db.disk.stats.faults.retries == 0
        else:
            rows = list(sort)
            assert rows == sorted(rows) and len(rows) == 40
            faults = db.disk.stats.faults
            assert faults.retries == faults.transient_errors > 0
        assert sort.stats.spilled
