"""The shard coordinator streams slices; this file holds it to the
row-at-a-time drain it replaced.

``ShardedDatabase._stream_copy`` used to pull one tuple at a time off a
copy's sweep, re-encode its point on the tetris curve, run the kill
schedule, the predicate and the resume skip on it and append it to an
ever-growing ledger.  It now takes whole ``(keys, rows)`` slices from
``TetrisScan.slices()``.  The old loop survives only here
(:class:`RowAtATimeShardedDatabase`), as the reference every observable
of the new one must equal: rows, per-shard counts, degradation events,
``rows_served``, per-copy ``IOStats`` and every sweep's page order —
under kills that land mid-slice, predicates, fault plans, duplicate
points and sort orders whose k-way merge genuinely interleaves.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tetris import TetrisScan
from repro.relational import Attribute, IntEncoder, Schema
from repro.shard import CoPartitionedJoin, ShardedDatabase, ShardFailedError
from repro.shard import coordinator
from repro.shard.errors import ShardCopyKilledError
from repro.storage import FaultPlan

DIMS = ("a1", "a2")
SCHEMA = Schema(
    [
        Attribute("a1", IntEncoder(0, 31)),
        Attribute("a2", IntEncoder(0, 31)),
        Attribute("v", IntEncoder(0, 10**6)),
    ]
)
#: sort orders: the shard attribute (streams concatenate), another one
#: (the merge interleaves) and composites led by either
SORTS = ("a1", "a2", ("a2", "a1"), ("a1", "a2"))
PREDICATES = {
    "all": None,
    "thirds": lambda row: row[2] % 3 != 0,
    "low": lambda row: row[1] < 20,
    "none": lambda row: False,
}
PREDICATE_NAMES = ("all", "thirds", "thirds", "low", "low", "none")


# ----------------------------------------------------------------------
# the reference: one tuple per pull, a scalar encode each, a full ledger
# ----------------------------------------------------------------------
def note_row_served(copy) -> None:
    """``ShardCopy.note_row_served`` as it was: one row, one kill check."""
    if not copy.alive:
        raise ShardCopyKilledError(
            f"shard {copy.shard_index} copy {copy.copy_index} is dead"
        )
    copy.rows_served += 1
    if copy._kill_at is not None and copy.rows_served >= copy._kill_at:
        copy.alive = False
        raise ShardCopyKilledError(
            f"shard {copy.shard_index} copy {copy.copy_index} killed "
            f"after serving {copy.rows_served} rows"
        )


class RowAtATimeShardedDatabase(ShardedDatabase):
    """The coordinator whose copy drain is the per-row loop of old.

    Every delivered row goes up as a one-row slice, so the ladder, the
    merge and the join legs above it are the engine's own.
    """

    def _stream_copy(
        self, copy, shard_box, sort_attr, resume, predicate=None, held=False
    ):
        # ``held`` is ignored: it changes only how the sweep cuts, and
        # this drain pulls one row at a time
        if not copy.alive:
            raise ShardCopyKilledError(
                f"shard {copy.shard_index} copy {copy.copy_index} is dead"
            )
        # the ledger of old: every (key, (point, payload)) ever yielded
        emitted = resume.__dict__.setdefault("emitted", [])
        box = shard_box
        last_key = None
        skip_at_last = 0
        if emitted:
            last_key = emitted[-1][0]
            for key, _ in reversed(emitted):
                if key != last_key:
                    break
                skip_at_last += 1
            primary = self._sort_dims(sort_attr)[0]
            box = box.restricted(
                primary, emitted[-1][1][0][primary], self.space.coord_max[primary]
            )
        scan = copy.table.tetris_scan(box, sort_attr)
        encode = scan.tetris_curve.encode
        for point, payload in scan:
            note_row_served(copy)
            if predicate is not None and not predicate(payload):
                continue
            key = encode(point)
            if last_key is not None:
                if key < last_key:
                    continue
                if key == last_key and skip_at_last > 0:
                    skip_at_last -= 1
                    continue
            pair = (key, (point, payload))
            emitted.append(pair)
            yield [key], [pair[1]]


ENGINES = (RowAtATimeShardedDatabase, ShardedDatabase)


# ----------------------------------------------------------------------
# worlds and what is observed of them
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class World:
    """One sharded table: contents, layout, kill schedule, fault plans."""

    points: tuple[tuple[int, int], ...]
    shards: int = 2
    copies: int = 2
    #: (shard, copy, after_rows): applied before the first operation
    kills: tuple[tuple[int, int, int | None], ...] = ()
    #: (shard, copy, seed, transient_rate, corrupt_rate)
    faults: tuple[tuple[int, int, int, float, float], ...] = ()

    def build(self, engine) -> ShardedDatabase:
        plans = {
            (shard % self.shards, copy % self.copies): FaultPlan(
                seed=seed, transient_rate=transient, corrupt_rate=corrupt
            )
            for shard, copy, seed, transient, corrupt in self.faults
        }
        sdb = engine(
            SCHEMA,
            DIMS,
            "a1",
            shards=self.shards,
            copies=self.copies,
            page_capacity=8,
            buffer_pages=4,
            fault_plans=plans,
        )
        sdb.load([(a1, a2, v) for v, (a1, a2) in enumerate(self.points)])
        sdb.reset_measurement()
        for shard, copy, after_rows in self.kills:
            sdb.kill_copy(
                shard % self.shards, copy % self.copies, after_rows=after_rows
            )
        sdb.arm_faults()
        return sdb


@contextlib.contextmanager
def collected_scans():
    """Every :class:`TetrisScan` built inside the block, in order."""
    scans: list[TetrisScan] = []
    original = TetrisScan.__init__

    def collecting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        scans.append(self)

    TetrisScan.__init__ = collecting
    try:
        yield scans
    finally:
        TetrisScan.__init__ = original


def engine_state(sdbs, scans) -> dict:
    copies = [copy for sdb in sdbs for copy in sdb.all_copies()]
    return {
        "health": [sdb.health() for sdb in sdbs],
        "io": [repr(copy.db.disk.stats) for copy in copies],
        "pages": [list(scan.page_access_order) for scan in scans],
        "regions": [
            (scan.stats.regions_examined, scan.stats.regions_read) for scan in scans
        ],
    }


def rows_served(sdbs) -> list[int]:
    return [copy.rows_served for sdb in sdbs for copy in sdb.all_copies()]


@dataclass(frozen=True)
class ScanCase:
    world: World
    restrictions: tuple[tuple[str, int, int], ...] = ()
    sort_attr: str | tuple[str, ...] = "a2"
    allow_partial: bool = False
    #: a second scan meets the copies the first one lost
    repeats: int = 1


def observe_scans(engine, case: ScanCase) -> dict:
    sdb = case.world.build(engine)
    restrictions = {attr: (lo, hi) for attr, lo, hi in case.restrictions} or None
    outcomes = []
    with collected_scans() as scans:
        for _ in range(case.repeats):
            try:
                result = sdb.sorted_scan(
                    restrictions, case.sort_attr, allow_partial=case.allow_partial
                )
            except ShardFailedError as exc:
                outcomes.append(("failed", exc.shard, exc.degradations))
            else:
                outcomes.append(
                    (
                        result.rows,
                        result.per_shard_rows,
                        result.degradations,
                        result.failed_ranges,
                        result.per_shard_elapsed,
                    )
                )
    return {
        "outcomes": outcomes,
        "served": rows_served([sdb]),
        **engine_state([sdb], scans),
    }


def assert_scans_agree(case: ScanCase) -> dict:
    reference, got = (observe_scans(engine, case) for engine in ENGINES)
    for name in reference:
        assert got[name] == reference[name], (name, case)
    return got


@dataclass(frozen=True)
class JoinCase:
    left: World
    right: World
    kind: str = "inner"
    left_predicate: str = "all"
    right_predicate: str = "all"
    restrictions: tuple[tuple[str, int, int], ...] = ()
    allow_partial: bool = False


def observe_join(engine, case: JoinCase) -> dict:
    left, right = case.left.build(engine), case.right.build(engine)
    restrictions = {attr: (lo, hi) for attr, lo, hi in case.restrictions} or None
    with collected_scans() as scans:
        try:
            result = CoPartitionedJoin(left, right, kind=case.kind).run(
                restrictions,
                restrictions,
                left_predicate=PREDICATES[case.left_predicate],
                right_predicate=PREDICATES[case.right_predicate],
                allow_partial=case.allow_partial,
            )
        except ShardFailedError as exc:
            outcome = ("failed", exc.shard, exc.degradations)
        else:
            outcome = (
                result.rows,
                result.per_shard_rows,
                result.degradations,
                result.failed_ranges,
                result.per_shard_elapsed,
                result.join_events,
            )
    return {
        "outcome": outcome,
        "served": rows_served([left, right]),
        **engine_state([left, right], scans),
    }


def assert_joins_agree(case: JoinCase) -> dict:
    reference, got = (observe_join(engine, case) for engine in ENGINES)
    for name in reference:
        if name == "served":
            continue
        assert got[name] == reference[name], (name, case)
    # a merge join stops pulling once either side runs dry, possibly
    # inside a slice: the copy has handed that slice over whole, the
    # row-at-a-time drain had only counted the rows pulled from it
    assert all(
        slices >= rows for slices, rows in zip(got["served"], reference["served"])
    ), case
    return got


# ----------------------------------------------------------------------
# Hypothesis: contents x restriction x sort x kills x faults
# ----------------------------------------------------------------------
def dense_points(count: int, seed: int, spread: int = 4) -> tuple:
    """Points drawn from a ``spread x spread`` grid stretched over the
    domain: about ``count / spread**2`` duplicates of each."""
    rng = random.Random(seed)
    step = 32 // spread
    return tuple(
        (rng.randrange(spread) * step, rng.randrange(spread) * step)
        for _ in range(count)
    )


@st.composite
def worlds(draw, max_rows=140, spreads=(4, 8, 32)):
    # 4: nearly all duplicates; 32: nearly none
    spread = draw(st.sampled_from(spreads))
    count = draw(st.sampled_from((0, 3)) | st.integers(40, max_rows))
    points = dense_points(count, draw(st.integers(0, 10_000)), spread)
    kills = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 2),
                st.one_of(st.none(), st.integers(0, 60)),
            ),
            max_size=3,
        )
    )
    faults = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),
                st.integers(0, 2),
                st.integers(0, 50),
                st.sampled_from((0.0, 0.15, 0.4)),
                st.sampled_from((0.0, 0.15, 0.4)),
            ),
            max_size=2,
        )
    )
    return World(
        points,
        shards=draw(st.integers(1, 4)),
        copies=draw(st.integers(1, 3)),
        kills=tuple(kills),
        faults=tuple(faults),
    )


@st.composite
def boxes(draw):
    restrictions = []
    for attr in DIMS:
        if draw(st.integers(0, 2)) == 0:
            lo = draw(st.integers(0, 31))
            restrictions.append((attr, lo, draw(st.integers(lo, 31))))
    return tuple(restrictions)


@st.composite
def scan_cases(draw):
    return ScanCase(
        draw(worlds()),
        draw(boxes()),
        draw(st.sampled_from(SORTS)),
        draw(st.booleans()),
        draw(st.integers(1, 2)),
    )


@st.composite
def join_cases(draw):
    # coarse grids, so that join keys meet
    left = draw(worlds(max_rows=90, spreads=(4, 8)))
    right = draw(worlds(max_rows=140, spreads=(4, 8)))
    right = World(right.points, left.shards, right.copies, right.kills, right.faults)
    return JoinCase(
        left,
        right,
        draw(st.sampled_from(("inner", "semi"))),
        draw(st.sampled_from(PREDICATE_NAMES)),
        draw(st.sampled_from(PREDICATE_NAMES)),
        draw(boxes()),
        draw(st.booleans()),
    )


#: kills inside duplicate-key groups, so the resume skip has to count
DUPLICATE_SCAN = ScanCase(
    World(dense_points(120, 3), kills=((0, 0, 7), (1, 0, 13), (1, 1, 9)), copies=3),
    sort_attr="a2",
)
#: a predicate thins every slice before a kill forces a resume
FILTERED_JOIN = JoinCase(
    World(dense_points(90, 5, spread=8), kills=((0, 0, 11), (1, 0, 17))),
    World(dense_points(140, 6, spread=8), kills=((0, 0, 23), (1, 0, 9), (1, 1, 31)),
          copies=3),
    left_predicate="thirds",
    right_predicate="thirds",
)


@settings(max_examples=120, deadline=None)
@given(scan_cases())
@example(DUPLICATE_SCAN)
def test_sorted_scan_equals_the_row_at_a_time_drain(case):
    assert_scans_agree(case)


@settings(max_examples=80, deadline=None)
@given(join_cases())
@example(FILTERED_JOIN)
def test_join_legs_equal_the_row_at_a_time_drain(case):
    assert_joins_agree(case)


def test_the_pinned_examples_degrade_and_resume():
    """Not vacuous: the explicit examples fail over mid-stream, with
    duplicate keys on both sides of a resume point."""
    got = assert_scans_agree(DUPLICATE_SCAN)
    (rows, _, degradations, _, _), = got["outcomes"]
    assert [event.action for event in degradations] == ["failover"] * 3
    assert len(rows) == 120
    assert len({point for point, _ in rows}) <= 16
    got = assert_joins_agree(FILTERED_JOIN)
    assert [event.action for event in got["outcome"][2]].count("failover") >= 4


# ----------------------------------------------------------------------
# teeth
# ----------------------------------------------------------------------
def test_keys_paired_by_position_after_the_predicate_fail(monkeypatch):
    """Sabotage: the filtered rows keep the slice's *first* keys instead
    of their own."""

    def by_position(column, passed):
        if column and isinstance(column[0], int):
            return column[: sum(map(bool, passed))]
        return compress(column, passed)

    monkeypatch.setattr(coordinator, "compress", by_position)
    with pytest.raises(AssertionError):
        test_join_legs_equal_the_row_at_a_time_drain()


def test_a_resume_skip_blind_to_multiplicity_fails(monkeypatch):
    """Sabotage: the ledger forgets how many rows went out at the
    resume key, so a restart re-emits the whole tie."""
    real = coordinator._ResumePoint.advance

    def forgetful(self, keys, rows):
        real(self, keys, rows)
        self.served_at_key = 0

    monkeypatch.setattr(coordinator._ResumePoint, "advance", forgetful)
    with pytest.raises(AssertionError):
        test_sorted_scan_equals_the_row_at_a_time_drain()
    with pytest.raises(AssertionError):
        test_join_legs_equal_the_row_at_a_time_drain()


# ----------------------------------------------------------------------
# a kill that lands mid-slice
# ----------------------------------------------------------------------
def drain_shard(sdb, *, predicate=None):
    """Drain shard 0 through the ladder; returns ``(keys, rows, events,
    prefix)`` — ``prefix`` is how many rows were out before the first
    rung fired."""
    shard = sdb.shards[0]
    box = sdb._reference_table().build_query_box(None)
    events, failed = [], []
    keys, rows = [], []
    prefix = None
    for slice_keys, slice_rows in sdb._stream_shard(
        shard, box, "a2", False, events, failed, predicate
    ):
        if events and prefix is None:
            prefix = len(rows)
        assert len(slice_keys) == len(slice_rows) > 0
        keys.extend(slice_keys)
        rows.extend(slice_rows)
    assert not failed
    return keys, rows, tuple(events), prefix


GRID_WORLD = World(dense_points(160, 9, spread=8), shards=1, copies=2)


def wide_slice():
    """``(first, length)`` of a clean sweep's first later slice of at
    least three rows: its first row's stream index and its row count."""
    sdb = GRID_WORLD.build(ShardedDatabase)
    scan = sdb.shards[0].copies[0].table.tetris_scan(None, "a2")
    first = 0
    for number, (_, rows) in enumerate(scan.slices()):
        if number and len(rows) >= 3:
            return first, len(rows)
        first += len(rows)
    raise AssertionError("no multi-row slice to kill in")


@pytest.mark.parametrize("predicate", ["all", "thirds"])
@pytest.mark.parametrize("where", ["first", "last", "past", "zero", "now"])
def test_kill_lands_mid_slice(where, predicate):
    first, length = wide_slice()
    # the row that reaches the count is the one that is never delivered
    after_rows = {
        "first": first + 1,
        "last": first + length,
        "past": first + length + 1,
        "zero": 0,
        "now": None,
    }[where]
    observed = []
    for engine in ENGINES:
        sdb = GRID_WORLD.build(engine)
        sdb.kill_copy(0, 0, after_rows=after_rows)
        with collected_scans() as scans:
            keys, rows, events, prefix = drain_shard(
                sdb, predicate=PREDICATES[predicate]
            )
        observed.append(
            (keys, rows, events, prefix, rows_served([sdb]), engine_state([sdb], scans))
        )
    reference, got = observed
    assert got == reference
    keys, rows, events, prefix, served, _ = got
    clean = drain_shard(
        GRID_WORLD.build(ShardedDatabase), predicate=PREDICATES[predicate]
    )
    # nothing lost, nothing re-emitted, one failover
    assert (keys, rows) == clean[:2] and keys == sorted(keys)
    assert [event.action for event in events] == ["failover"]
    if after_rows:
        assert served[0] == after_rows
        assert f"killed after serving {after_rows} rows" in events[0].error
        if predicate == "all":
            assert prefix == after_rows - 1
    else:
        assert prefix == 0 and served[0] == (0 if after_rows is None else 1)


# ----------------------------------------------------------------------
# the resume ledger is O(1)
# ----------------------------------------------------------------------
class TestResumeLedger:
    def big_leg(self):
        rng = random.Random(21)
        points = tuple((rng.randrange(32), rng.randrange(32)) for _ in range(6000))
        return World(points, shards=1, copies=2).build(ShardedDatabase)

    def test_a_drained_leg_leaves_no_served_row_behind(self):
        sdb = self.big_leg()
        box = sdb._reference_table().build_query_box(None)
        stream = sdb._stream_shard(
            sdb.shards[0], box, "a1", False, [], [], None
        )
        delivered, widest = 0, 0
        for keys, rows in stream:
            delivered += len(rows)
            widest = max(widest, len(rows))
            if delivered >= 5000:
                break
        assert delivered < 6000, "the leg must still be live"
        shard_frame = stream.gi_frame
        copy_frame = stream.gi_yieldfrom.gi_frame
        resume = shard_frame.f_locals["resume"]
        assert copy_frame.f_locals["resume"] is resume
        # last key, rows served at that key, last point: three scalars
        assert set(vars(resume)) == {"key", "served_at_key", "point"}
        assert type(resume.key) is int and type(resume.served_at_key) is int
        assert [type(value) for value in resume.point] == [int, int]
        assert resume.point == rows[-1][0] and resume.key == keys[-1]
        # and nothing else in the coordinator's frames grows with the leg
        held = sum(
            len(value)
            for frame in (shard_frame, copy_frame)
            for value in frame.f_locals.values()
            if isinstance(value, (list, dict, set))
        )
        assert held <= 2 * widest < 500

    def test_resume_inside_a_run_of_duplicate_points(self):
        world = World(dense_points(400, 4), shards=1, copies=3)
        clean_keys, clean_rows, _, _ = drain_shard(world.build(ShardedDatabase))
        # a kill strictly inside a run of equal keys, then another one
        # inside the same run on the copy that took over
        inside = next(
            index
            for index in range(40, len(clean_keys) - 3)
            if len(set(clean_keys[index - 2 : index + 4])) == 1
        )
        sdb = world.build(ShardedDatabase)
        sdb.kill_copy(0, 0, after_rows=inside + 1)
        sdb.kill_copy(0, 1, after_rows=2)
        keys, rows, events, prefix = drain_shard(sdb)
        assert prefix == inside
        assert [event.action for event in events] == ["failover", "failover"]
        assert (keys, rows) == (clean_keys, clean_rows)
