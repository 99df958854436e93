"""Deterministic concurrency sanitizer tests (``repro.invariants.sanitizer``).

The sanitizer is the runtime half of the concurrency toolchain: reprolint
R010–R011 prove what the call graph can see statically, and the vector-clock
race detector plus the lock-order graph catch everything else at runtime when
``REPRO_CHECKS=1``.  Every racy interleaving here is driven by *virtual*
actors from a single OS thread under a seeded schedule, so each violation is
a pure function of the seed: run the same seed twice and the same violation
fires at the same step with the same report.
"""

from __future__ import annotations

import random

import pytest

from repro.invariants import sanitizer
from repro.invariants.sanitizer import (
    GLOBAL_LOCK_ORDER,
    LockOrderViolation,
    RaceViolation,
    TrackedLock,
    current_actor,
    declare_lock_order,
    guarded_by,
    note_access,
    tracked_lock,
)

from oracles import actor, checks, declared_lock_order, reset_sanitizer, sanitizer_counters


@pytest.fixture()
def armed():
    """Arm the invariant gate and restore global sanitizer state after."""
    reset_sanitizer()
    with checks():
        yield
    reset_sanitizer()
    declare_lock_order(*GLOBAL_LOCK_ORDER)


@guarded_by("_lock", "entries")
class SharedMap:
    """A tiny guarded map mirroring the engine's registry shape."""

    def __init__(self) -> None:
        self._lock = tracked_lock("map-lock")
        self.entries: dict[str, int] = {}

    def put(self, key: str, value: int) -> None:
        with self._lock:
            note_access(self, "entries")
            self.entries[key] = value

    def put_unguarded(self, key: str, value: int) -> None:
        # Deliberately skips self._lock: the injected bug under test.
        note_access(self, "entries")
        self.entries[key] = value

    def get(self, key: str) -> int | None:
        with self._lock:
            note_access(self, "entries", write=False)
            return self.entries.get(key)


# ----------------------------------------------------------------------
# seeded schedules
# ----------------------------------------------------------------------
def _drive_lock_schedule(seed: int, steps: int = 64) -> tuple[int, str]:
    """Acquire random nested lock pairs until the sanitizer objects.

    Returns ``(step, message)`` for the first violation; the schedule is
    a pure function of the seed, so both are too.
    """
    declare_lock_order("alpha", "beta", "gamma")
    locks = {
        "alpha": tracked_lock("alpha"),
        "beta": tracked_lock("beta"),
        "gamma": tracked_lock("gamma"),
    }
    rng = random.Random(seed)
    for step in range(steps):
        outer, inner = rng.sample(sorted(locks), 2)
        try:
            with locks[outer]:
                with locks[inner]:
                    pass
        except LockOrderViolation as error:
            return step, str(error)
    raise AssertionError("seeded schedule never inverted the lock order")


def _drive_race_schedule(seed: int, steps: int = 64) -> tuple[int, str]:
    """Two virtual actors hammer one guarded map; one path skips the lock.

    Each step the seeded scheduler picks an actor and (rarely) the buggy
    unguarded mutation.  The first unordered conflicting pair raises; the
    step index and report are a pure function of the seed.
    """
    shared = SharedMap()
    rng = random.Random(seed)
    for step in range(steps):
        name = rng.choice(["scan-worker", "evict-worker"])
        buggy = rng.random() < 0.25
        try:
            with actor(name):
                if buggy:
                    shared.put_unguarded("k", step)
                else:
                    shared.put("k", step)
        except RaceViolation as error:
            return step, str(error)
    raise AssertionError("seeded schedule never raced on the shared map")


# ----------------------------------------------------------------------
# lock-order detection
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_declared_inversion_raises_with_both_stacks(self, armed):
        declare_lock_order("alpha", "beta")
        alpha = tracked_lock("alpha")
        beta = tracked_lock("beta")
        with pytest.raises(LockOrderViolation) as exc:
            with beta:
                with alpha:
                    pass
        message = str(exc.value)
        assert "lock-order inversion" in message
        assert "('alpha', 'beta')" in message
        assert "'beta' acquired at:" in message
        assert "'alpha' requested at:" in message

    def test_declared_order_nesting_is_clean(self, armed):
        declare_lock_order("alpha", "beta")
        alpha = tracked_lock("alpha")
        beta = tracked_lock("beta")
        with alpha:
            with beta:
                pass
        assert sanitizer_counters()["order_checks"] == 1

    def test_undeclared_inversion_caught_by_cycle_graph(self, armed):
        declare_lock_order()  # nothing declared: only the graph can catch it
        first = tracked_lock("undeclared-a")
        second = tracked_lock("undeclared-b")
        with first:
            with second:
                pass
        with pytest.raises(LockOrderViolation) as exc:
            with second:
                with first:
                    pass
        message = str(exc.value)
        assert "lock-order cycle" in message
        assert "earlier 'undeclared-a' -> 'undeclared-b' nesting:" in message
        assert "current 'undeclared-b' -> 'undeclared-a' nesting:" in message

    def test_inversion_raises_before_blocking(self, armed):
        # The order check runs BEFORE the acquire: the violating thread
        # never touches the underlying RLock, so nothing deadlocks and
        # the outer lock is still cleanly releasable afterwards.
        declare_lock_order("alpha", "beta")
        alpha = tracked_lock("alpha")
        beta = tracked_lock("beta")
        with beta:
            with pytest.raises(LockOrderViolation):
                alpha.acquire()
        assert not alpha.held_by_current_thread()
        assert not beta.held_by_current_thread()
        # Both locks remain usable in the legal order.
        with alpha:
            with beta:
                pass

    def test_reentrant_reacquisition_is_not_an_inversion(self, armed):
        declare_lock_order("alpha", "beta")
        alpha = tracked_lock("alpha")
        beta = tracked_lock("beta")
        with alpha:
            with beta:
                with alpha:  # reentrant: already held, no new edge
                    pass

    def test_seeded_inversion_is_deterministic(self, armed):
        # The stack trailer embeds the *invoking* line, so determinism is
        # asserted on the schedule step and the diagnostic header: same
        # seed, same inversion, same report.
        first_step, first_message = _drive_lock_schedule(seed=0xC0FFEE)
        reset_sanitizer()
        second_step, second_message = _drive_lock_schedule(seed=0xC0FFEE)
        assert first_step == second_step
        assert first_message.splitlines()[0] == second_message.splitlines()[0]
        step, message = first_step, first_message
        assert "declared global order is ('alpha', 'beta', 'gamma')" in message
        # A different seed takes a different path to (some) violation.
        reset_sanitizer()
        other_step, _ = _drive_lock_schedule(seed=2)
        assert other_step != step


# ----------------------------------------------------------------------
# race detection
# ----------------------------------------------------------------------
class TestRaceDetection:
    def test_locked_actors_are_ordered(self, armed):
        shared = SharedMap()
        with actor("scan-worker"):
            shared.put("page", 1)
        with actor("evict-worker"):
            shared.put("page", 2)  # HB edge via map-lock release/acquire
            assert shared.get("page") == 2
        assert sanitizer_counters()["race_checks"] >= 3

    def test_unguarded_mutation_races(self, armed):
        shared = SharedMap()
        with actor("scan-worker"):
            shared.put("page", 1)
        with actor("evict-worker"):
            with pytest.raises(RaceViolation) as exc:
                shared.put_unguarded("page", 2)
        message = str(exc.value)
        assert "data race on SharedMap.entries" in message
        assert "guarded by '_lock'" in message
        assert "NOT held here" in message
        assert "previous write by 'scan-worker':" in message
        assert "current write by 'evict-worker':" in message

    def test_read_write_conflict_races(self, armed):
        shared = SharedMap()
        with actor("scan-worker"):
            with shared._lock:
                note_access(shared, "entries", write=False)
        with actor("evict-worker"):
            with pytest.raises(RaceViolation):
                shared.put_unguarded("page", 2)

    def test_same_actor_never_races_with_itself(self, armed):
        shared = SharedMap()
        with actor("scan-worker"):
            shared.put_unguarded("page", 1)
            shared.put_unguarded("page", 2)  # program order: no race

    def test_unguarded_fields_are_ignored(self, armed):
        shared = SharedMap()
        with actor("scan-worker"):
            note_access(shared, "not_guarded")
        with actor("evict-worker"):
            note_access(shared, "not_guarded")  # no registry entry: no-op
        assert sanitizer_counters()["tracked_fields"] == 0

    def test_a_dead_object_never_races_with_the_one_reusing_its_id(self, armed):
        """Accesses are keyed by ``id(obj)``.  Once an object dies CPython
        may hand its id to the next one, whose lock carries no order from
        the dead object's critical sections."""
        kept = []  # every fresh object stays alive, so each round is new
        for _ in range(16):  # whether a round reuses depends on the hash seed
            with actor("scan-worker"):
                shared = SharedMap()
                shared.put("page", 1)
            stale = id(shared)
            del shared
            fresh = [SharedMap() for _ in range(64)]
            kept.append(fresh)
            reused = [one for one in fresh if id(one) == stale]
            if reused:
                break
        else:
            pytest.skip("the allocator did not reuse the id")
        with actor("evict-worker"):
            reused[0].put("page", 2)

    def test_seeded_race_is_deterministic(self, armed):
        first_step, first_message = _drive_race_schedule(seed=0xBADCAB)
        reset_sanitizer()
        second_step, second_message = _drive_race_schedule(seed=0xBADCAB)
        assert first_step == second_step
        assert first_message.splitlines()[0] == second_message.splitlines()[0]
        assert "data race on SharedMap.entries" in first_message


# ----------------------------------------------------------------------
# actors, gating and bookkeeping
# ----------------------------------------------------------------------
class TestActorsAndGate:
    def test_virtual_actors_nest(self):
        default = current_actor()
        assert default.startswith("thread-")
        with actor("outer"):
            assert current_actor() == "outer"
            with actor("inner"):
                assert current_actor() == "inner"
            assert current_actor() == "outer"
        assert current_actor() == default

    def test_gate_off_costs_nothing_and_raises_nothing(self):
        reset_sanitizer()
        declare_lock_order("alpha", "beta")
        alpha = tracked_lock("alpha")
        beta = tracked_lock("beta")
        with checks(False):
            with beta:
                with alpha:  # inverted, but checks are off
                    pass
            shared = SharedMap()
            with actor("scan-worker"):
                shared.put_unguarded("k", 1)
            with actor("evict-worker"):
                shared.put_unguarded("k", 2)
        counters = sanitizer_counters()
        assert counters["order_checks"] == 0
        assert counters["race_checks"] == 0
        declare_lock_order(*GLOBAL_LOCK_ORDER)

    def test_reset_clears_all_state(self, armed):
        declare_lock_order()
        first = tracked_lock("undeclared-a")
        second = tracked_lock("undeclared-b")
        with first:
            with second:
                pass
        shared = SharedMap()
        with actor("scan-worker"):
            shared.put("k", 1)
        assert sanitizer_counters()["lock_edges"] >= 1
        assert sanitizer_counters()["tracked_fields"] >= 1
        reset_sanitizer()
        counters = sanitizer_counters()
        assert counters == {
            "order_checks": 0,
            "race_checks": 0,
            "lock_edges": 0,
            "tracked_fields": 0,
        }
        # The forgotten edge no longer forbids the opposite nesting.
        with second:
            with first:
                pass

    def test_engine_order_is_declared_on_import(self):
        assert declared_lock_order() == GLOBAL_LOCK_ORDER
        assert GLOBAL_LOCK_ORDER == (
            "telemetry-observers",
            "buffer-pool",
            "io-scheduler",
        )

    def test_tracked_lock_repr_and_factory(self):
        lock = tracked_lock("repr-check")
        assert isinstance(lock, TrackedLock)
        assert repr(lock) == "TrackedLock('repr-check')"


class TestGateFlipsMidSection:
    """A critical section entered with checks on and left with them off,
    or the reverse, leaves no held entry behind, and the lock publishes
    its holder's clock exactly when an armed acquisition is released —
    at the first release after it, reentrant or not."""

    STEPS = {
        "acquire-on-release-off": [("acquire", True), ("release", False)],
        "acquire-off-release-on": [("acquire", False), ("release", True)],
        "on-then-off-inside": [
            ("acquire", True), ("acquire", False),
            ("release", False), ("release", False),
        ],
        "off-then-on-inside": [
            ("acquire", False), ("acquire", True),
            ("release", True), ("release", False),
        ],
        "on-twice-released-off": [
            ("acquire", True), ("acquire", True),
            ("release", False), ("release", False),
        ],
        "on-twice-mixed-release": [
            ("acquire", True), ("acquire", True),
            ("release", True), ("release", False),
        ],
    }
    #: ticks of the actor's clock after each step: a publish bumps it
    PUBLISHED_AFTER = {
        "acquire-on-release-off": [0, 1],
        "acquire-off-release-on": [0, 0],
        "on-then-off-inside": [0, 0, 1, 1],
        "off-then-on-inside": [0, 0, 1, 1],
        "on-twice-released-off": [0, 0, 0, 1],
        "on-twice-mixed-release": [0, 0, 0, 1],
    }

    @pytest.mark.parametrize("scenario", sorted(STEPS))
    def test_flip_leaves_nothing_held(self, scenario):
        reset_sanitizer()
        lock = tracked_lock("flip-lock")
        ticks = []
        with actor(f"flip-{scenario}") as name:
            clock = sanitizer._actor_clock(name)
            start = clock.get(name, 0)
            for step, armed_now in self.STEPS[scenario]:
                with checks(armed_now):
                    getattr(lock, step)()
                ticks.append(clock.get(name, 0) - start)
            assert sanitizer._held_stack() == []
        assert ticks == self.PUBLISHED_AFTER[scenario]
        assert not lock._lock._is_owned()
        with checks():
            assert not lock.held_by_current_thread()
        reset_sanitizer()

    @pytest.mark.parametrize("entered_armed", [True, False])
    def test_flip_inside_a_with_block(self, entered_armed):
        reset_sanitizer()
        lock = tracked_lock("flip-lock")
        with actor(f"flip-with-{entered_armed}") as name:
            clock = sanitizer._actor_clock(name)
            start = clock.get(name, 0)
            with checks(entered_armed):
                lock.__enter__()
            with checks(not entered_armed):
                lock.__exit__(None, None, None)
            assert sanitizer._held_stack() == []
            assert clock.get(name, 0) - start == int(entered_armed)
        assert not lock._lock._is_owned()
        reset_sanitizer()
