"""Tests for ``tools.reprolint``: each rule fires on a seeded violation.

Every rule gets a minimal fixture that *must* be flagged and a fixed
variant that must pass — so the linter's guarantees are themselves under
test, and a refactor cannot silently neuter a rule.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

from tools.reprolint import (
    ALL_RULES,
    Violation,
    check_backend_parity,
    lint_paths,
    lint_source,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(violations: "list[Violation]") -> set[str]:
    return {violation.rule for violation in violations}


def lint(source: str, *, path: str = "module.py", hot_path: bool = False):
    return lint_source(textwrap.dedent(source), path, hot_path=hot_path)


# ----------------------------------------------------------------------
# R001: wall-clock time
# ----------------------------------------------------------------------
class TestR001WallClock:
    def test_time_time_flagged(self):
        found = lint(
            """
            import time

            def measure():
                return time.time()
            """
        )
        assert rules_of(found) == {"R001"}

    def test_perf_counter_attribute_flagged(self):
        found = lint("import time\nstart = time.perf_counter()\n")
        assert rules_of(found) == {"R001"}

    def test_from_time_import_flagged(self):
        found = lint("from time import perf_counter\n")
        assert rules_of(found) == {"R001"}

    def test_datetime_now_flagged(self):
        found = lint(
            """
            import datetime

            stamp = datetime.datetime.now()
            """
        )
        assert rules_of(found) == {"R001"}

    def test_date_today_flagged(self):
        found = lint("import datetime as dt\nday = dt.date.today()\n")
        assert rules_of(found) == {"R001"}

    def test_simulated_clock_passes(self):
        found = lint(
            """
            def measure(disk):
                return disk.clock
            """
        )
        assert found == []

    def test_time_sleep_passes(self):
        # sleep does not *read* the clock; only readers are banned
        found = lint("import time\ntime.sleep(0)\n")
        assert found == []


# ----------------------------------------------------------------------
# R002: per-tuple loops over page records in hot paths
# ----------------------------------------------------------------------
class TestR002HotPathLoops:
    LOOP = """
    def scan(page):
        out = []
        for record in page.records:
            out.append(record)
        return out
    """

    def test_for_loop_flagged_in_hot_path(self):
        found = lint(self.LOOP, hot_path=True)
        assert rules_of(found) == {"R002"}

    def test_same_loop_allowed_outside_hot_paths(self):
        assert lint(self.LOOP, hot_path=False) == []

    def test_hot_path_inferred_from_filename(self):
        found = lint_source(
            textwrap.dedent(self.LOOP), "src/repro/core/tetris.py"
        )
        assert rules_of(found) == {"R002"}

    def test_operator_modules_are_hot_paths(self):
        """A records loop planted in any relational operator module is
        flagged; a module beside the operators is not policed."""
        for module in ("scan.py", "group.py", "future_operator.py"):
            found = lint_source(
                textwrap.dedent(self.LOOP), f"src/repro/relational/operators/{module}"
            )
            assert rules_of(found) == {"R002"}, module
        assert lint_source(textwrap.dedent(self.LOOP), "src/repro/relational/table.py") == []

    def test_comprehension_flagged(self):
        found = lint(
            "def points(page):\n    return [r[1][0] for r in page.records]\n",
            hot_path=True,
        )
        assert rules_of(found) == {"R002"}

    def test_enumerate_flagged(self):
        found = lint(
            """
            def scan(page):
                for index, record in enumerate(page.records):
                    pass
            """,
            hot_path=True,
        )
        assert rules_of(found) == {"R002"}

    def test_kernel_call_passes(self):
        found = lint(
            """
            def scan(kernel, curve, space, page):
                return kernel.scan_page_run(curve, space, page, 0)
            """,
            hot_path=True,
        )
        assert found == []

    def test_indexing_selected_records_passes(self):
        # subscripting by kernel-selected indices is the sanctioned idiom
        found = lint(
            """
            def emit(kernel, space, page):
                records = page.records
                for index in kernel.filter_space_page(space, page):
                    yield records[index]
            """,
            hot_path=True,
        )
        assert found == []


# ----------------------------------------------------------------------
# R003: records mutation without version bump
# ----------------------------------------------------------------------
class TestR003VersionBump:
    def test_append_without_bump_flagged(self):
        found = lint(
            """
            def add(page, record):
                page.records.append(record)
            """
        )
        assert rules_of(found) == {"R003"}

    def test_append_with_bump_passes(self):
        found = lint(
            """
            def add(page, record):
                page.records.append(record)
                page.version += 1
            """
        )
        assert found == []

    def test_slice_assignment_without_bump_flagged(self):
        found = lint(
            """
            def truncate(page, cut):
                page.records = page.records[:cut]
            """
        )
        assert rules_of(found) == {"R003"}

    def test_del_without_bump_flagged(self):
        found = lint(
            """
            def remove(page, index):
                del page.records[index]
            """
        )
        assert rules_of(found) == {"R003"}

    def test_insort_without_bump_flagged(self):
        found = lint(
            """
            from bisect import insort

            def add(leaf, key, value):
                insort(leaf.records, (key, value))
            """
        )
        assert rules_of(found) == {"R003"}

    def test_pairing_is_per_function(self):
        # a bump in a *different* function does not excuse the mutation
        found = lint(
            """
            def mutate(page, record):
                page.records.append(record)

            def bump(page):
                page.version += 1
            """
        )
        assert rules_of(found) == {"R003"}

    def test_distinct_owners_tracked_separately(self):
        found = lint(
            """
            def move(left, right, record):
                left.records.append(record)
                right.records.pop()
                left.version += 1
            """
        )
        assert rules_of(found) == {"R003"}
        assert "right" in found[0].message

    def test_read_only_access_passes(self):
        found = lint(
            """
            def count(page):
                return len(page.records)
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R004: backend parity (cross-file)
# ----------------------------------------------------------------------
class TestR004BackendParity:
    BASE = """
    class KernelBackend:
        def encode_batch(self, curve, points):
            raise NotImplementedError

        def brand_new_kernel(self, data):
            raise NotImplementedError

        def _private_helper(self):
            pass
    """
    PURE_COMPLETE = """
    class PureBackend(KernelBackend):
        def encode_batch(self, curve, points):
            return []

        def brand_new_kernel(self, data):
            return []
    """
    NUMPY_PARTIAL = """
    class FancyBackend(KernelBackend):
        def encode_batch(self, curve, points):
            return []
    """
    # the missing method lives on a helper class, not on the backend
    NUMPY_HELPER_ONLY = """
    class NumPySortRunBuffer:
        def brand_new_kernel(self, data):
            return []

    class FancyBackend(PurePythonBackend):
        def encode_batch(self, curve, points):
            return []
    """

    def write_kernels(self, tmp_path, numpy_source):
        kernels = tmp_path / "kernels"
        kernels.mkdir()
        (kernels / "base.py").write_text(textwrap.dedent(self.BASE))
        (kernels / "pure.py").write_text(textwrap.dedent(self.PURE_COMPLETE))
        (kernels / "numpy_backend.py").write_text(textwrap.dedent(numpy_source))
        return kernels

    def test_missing_override_flagged(self, tmp_path):
        kernels = self.write_kernels(tmp_path, self.NUMPY_PARTIAL)
        found = check_backend_parity(kernels)
        assert rules_of(found) == {"R004"}
        assert "brand_new_kernel" in found[0].message
        assert "FancyBackend" in found[0].message

    def test_a_method_on_a_helper_class_does_not_count(self, tmp_path):
        kernels = self.write_kernels(tmp_path, self.NUMPY_HELPER_ONLY)
        found = check_backend_parity(kernels)
        assert rules_of(found) == {"R004"}
        assert "brand_new_kernel" in found[0].message
        assert "FancyBackend" in found[0].message

    def test_private_methods_not_required(self, tmp_path):
        kernels = self.write_kernels(tmp_path, self.PURE_COMPLETE)
        assert check_backend_parity(kernels) == []

    def test_lint_paths_discovers_kernels_dir(self, tmp_path):
        self.write_kernels(tmp_path, self.NUMPY_PARTIAL)
        found = lint_paths([tmp_path])
        assert "R004" in rules_of(found)


# ----------------------------------------------------------------------
# R005: bare asserts
# ----------------------------------------------------------------------
class TestR005BareAssert:
    def test_assert_flagged(self):
        found = lint(
            """
            def dispatch(table):
                assert table.kind == "ub"
                return table
            """
        )
        assert rules_of(found) == {"R005"}

    def test_explicit_raise_passes(self):
        found = lint(
            """
            def dispatch(table):
                if table.kind != "ub":
                    raise TypeError("need a UB table")
                return table
            """
        )
        assert found == []

    def test_require_instance_passes(self):
        found = lint(
            """
            from repro.invariants import require_instance

            def dispatch(table, UBTable):
                return require_instance(table, UBTable, "dispatch")
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R006: swallowed exceptions and policy-free retry loops
# ----------------------------------------------------------------------
class TestR006SwallowedExceptions:
    def test_bare_except_flagged(self):
        found = lint(
            """
            def load(store, page_id):
                try:
                    return store.read(page_id)
                except:
                    return None
            """
        )
        assert rules_of(found) == {"R006"}

    def test_except_exception_pass_flagged(self):
        found = lint(
            """
            def load(store, page_id):
                try:
                    return store.read(page_id)
                except Exception:
                    pass
            """
        )
        assert rules_of(found) == {"R006"}

    def test_except_base_exception_ellipsis_flagged(self):
        found = lint(
            """
            def load(store, page_id):
                try:
                    return store.read(page_id)
                except BaseException:
                    ...
            """
        )
        assert rules_of(found) == {"R006"}

    def test_except_exception_with_handling_passes(self):
        found = lint(
            """
            def load(store, page_id):
                try:
                    return store.read(page_id)
                except Exception as exc:
                    raise RuntimeError("load failed") from exc
            """
        )
        assert found == []

    def test_specific_exception_pass_passes(self):
        """Swallowing a *specific* error is an explicit, auditable choice."""
        found = lint(
            """
            def free_quietly(store, page_id):
                try:
                    store.free(page_id)
                except MissingPageError:
                    pass
            """
        )
        assert found == []

    def test_hand_rolled_retry_loop_flagged(self):
        found = lint(
            """
            def load(store, page_id):
                for _ in range(3):
                    try:
                        return store.read(page_id)
                    except TransientIOError:
                        continue
            """
        )
        assert rules_of(found) == {"R006"}

    def test_retry_loop_through_policy_passes(self):
        found = lint(
            """
            def load(store, page_id, policy):
                delays = policy.delays()
                while True:
                    try:
                        return store.read(page_id)
                    except TransientIOError:
                        delay = next(delays, None)
                        if delay is None:
                            raise
                        store.advance_clock(delay)
            """
        )
        assert found == []

    def test_retry_loop_charging_the_shared_backoff_passes(self):
        """``charge_backoff`` is the engine's one way to price a delay, so
        a loop that waits through it is policy-driven even when the
        schedule reaches it as a plain iterator."""
        found = lint(
            """
            def load(store, page_id, schedule):
                while True:
                    try:
                        return store.read(page_id)
                    except TransientIOError:
                        delay = next(schedule, None)
                        if delay is None:
                            raise
                        charge_backoff(store, delay)
            """
        )
        assert found == []

    def test_transient_error_outside_loop_passes(self):
        """A one-shot catch is not a retry loop; nothing to police."""
        found = lint(
            """
            def probe(store, page_id):
                try:
                    return store.read(page_id)
                except TransientIOError:
                    return None
            """
        )
        assert found == []

    def test_suppression_applies(self):
        found = lint(
            """
            def load(store, page_id):
                try:
                    return store.read(page_id)
                except Exception:  # reprolint: allow(R006)
                    pass
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R007: disk mutation bypassing the WAL
# ----------------------------------------------------------------------
class TestR007WalBypass:
    def test_bare_disk_write_flagged(self):
        found = lint(
            """
            def persist(self, page):
                self.disk.write(page, category=self.category)
            """
        )
        assert rules_of(found) == {"R007"}

    def test_bare_disk_free_flagged(self):
        found = lint(
            """
            def drop(self, page_id):
                self.disk.free(page_id)
            """
        )
        assert rules_of(found) == {"R007"}

    def test_allocation_flagged(self):
        found = lint(
            """
            def grow(self):
                return [self.disk.allocate(80) for _ in range(64)]
            """
        )
        assert rules_of(found) == {"R007"}

    def test_wal_participating_function_passes(self):
        found = lint(
            """
            def persist(self, wal, page):
                wal.log_image(page)
                self.disk.write(page, category=self.category)
            """
        )
        assert found == []

    def test_active_wal_guard_passes(self):
        found = lint(
            """
            def allocate(self):
                page = self.disk.allocate(80)
                wal = active_wal(self.disk)
                if wal is not None:
                    wal.log_alloc(page)
                return page
            """
        )
        assert found == []

    def test_temp_category_exempt(self):
        """Sort-run spills are scratch I/O, not durable state."""
        found = lint(
            """
            def spill(self, page):
                self.disk.write(page, sequential=True, category="temp")
            """
        )
        assert found == []

    def test_wal_category_exempt(self):
        found = lint(
            """
            def force(self, page):
                self.disk.write(page, sequential=True, category="wal")
            """
        )
        assert found == []

    def test_storage_layer_exempt(self):
        """The storage package implements the machinery; R007 is for its
        consumers."""
        found = lint(
            """
            def persist(self, page):
                self.disk.write(page, category="data")
            """,
            path="src/repro/storage/buffer.py",
        )
        assert found == []

    def test_non_disk_owner_passes(self):
        found = lint(
            """
            def persist(self, page):
                self.store.write(page)
            """
        )
        assert found == []

    def test_suppression_applies(self):
        found = lint(
            """
            def persist(self, page):
                self.disk.write(page)  # reprolint: allow(R007)
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# R008: disk reads bypassing the BufferPool/IOScheduler gate
# ----------------------------------------------------------------------
class TestR008UngatedDiskReads:
    def test_bare_disk_read_flagged(self):
        found = lint(
            """
            def fetch(self, page_id):
                return self.disk.read(page_id, category="data")
            """
        )
        assert rules_of(found) == {"R008"}

    def test_stacked_disk_owner_flagged(self):
        found = lint(
            """
            def fetch(self, page_id):
                return self.db.disk.read(page_id, sequential=True)
            """
        )
        assert rules_of(found) == {"R008"}

    def test_replica_category_exempt(self):
        """Repair traffic is infrastructure, not engine data access."""
        found = lint(
            """
            def heal(self, page_id):
                return self.disk.read(page_id, category="replica")
            """
        )
        assert found == []

    def test_wal_category_exempt(self):
        found = lint(
            """
            def replay(self, page_id):
                return self.disk.read(page_id, sequential=True, category="wal")
            """
        )
        assert found == []

    def test_storage_layer_exempt(self):
        """The pool and scheduler themselves must touch the disk."""
        found = lint(
            """
            def _fetch(self, page_id):
                return self.disk.read(page_id, category="data")
            """,
            path="src/repro/storage/buffer.py",
        )
        assert found == []

    def test_pool_read_passes(self):
        found = lint(
            """
            def fetch(self, page_id):
                return self.buffer.get(page_id, category="data")
            """
        )
        assert found == []

    def test_non_disk_owner_passes(self):
        found = lint(
            """
            def fetch(self, page_id):
                return self.store.read(page_id)
            """
        )
        assert found == []

    def test_peek_passes(self):
        """`peek` is unpriced in-memory inspection, not a disk read."""
        found = lint(
            """
            def inspect(self, page_id):
                return self.disk.peek(page_id)
            """
        )
        assert found == []

    def test_suppression_applies(self):
        found = lint(
            """
            def fetch(self, page_id):
                return self.disk.read(page_id)  # reprolint: allow(R008)
            """
        )
        assert found == []


# ----------------------------------------------------------------------
# suppression, aggregation, CLI
# ----------------------------------------------------------------------
# R009: no process, serialization or thread-pool machinery anywhere
# ----------------------------------------------------------------------
class TestR009IPCConfinement:
    def test_multiprocessing_import_flagged(self):
        for path in ("src/repro/core/tetris.py", "src/repro/planner/parallel.py"):
            found = lint("import multiprocessing\n", path=path)
            assert rules_of(found) == {"R009"}, path

    def test_pickle_import_flagged(self):
        for path in ("src/repro/storage/wal.py", "src/repro/planner/parallel.py"):
            found = lint("import pickle\n", path=path)
            assert rules_of(found) == {"R009"}, path

    def test_submodule_from_import_flagged(self):
        found = lint(
            "from concurrent.futures import ThreadPoolExecutor\n",
            path="src/repro/relational/table.py",
        )
        assert rules_of(found) == {"R009"}

    def test_shared_memory_from_import_flagged(self):
        found = lint(
            "from multiprocessing import shared_memory\n",
            path="src/repro/kernels/numpy_backend.py",
        )
        assert rules_of(found) == {"R009"}

    def test_parallel_executor_module_is_sanctioned(self):
        # no module is: the slabs run in the caller, parallel.py included
        found = lint(
            "from concurrent.futures import ThreadPoolExecutor\n",
            path="src/repro/planner/parallel.py",
        )
        assert rules_of(found) == {"R009"}

    def test_no_kernels_module_may_import_shared_memory(self):
        modules = sorted((REPO_ROOT / "src/repro/kernels").glob("*.py"))
        assert modules
        for module in modules:
            found = lint(
                "import multiprocessing.shared_memory\n",
                path=f"src/repro/kernels/{module.name}",
            )
            assert rules_of(found) == {"R009"}, module.name

    def test_unrelated_import_passes(self):
        found = lint("import threading\nimport queue\n", path="src/repro/x.py")
        assert found == []

    def test_suppression_applies(self):
        found = lint(
            "import pickle  # reprolint: allow(R009)\n",
            path="src/repro/core/tetris.py",
        )
        assert found == []


# ----------------------------------------------------------------------
# R014: shard isolation
# ----------------------------------------------------------------------
class TestR014ShardIsolation:
    def test_deep_import_flagged(self):
        found = lint(
            "from repro.shard.coordinator import ShardedDatabase\n",
            path="src/repro/planner/executor.py",
        )
        assert rules_of(found) == {"R014"}

    def test_plain_import_of_internals_flagged(self):
        found = lint(
            "import repro.shard.merge\n", path="src/repro/core/tetris.py"
        )
        assert rules_of(found) == {"R014"}

    def test_relative_deep_import_flagged(self):
        found = lint(
            "from ..shard.coordinator import ShardCopy\n",
            path="src/repro/planner/executor.py",
        )
        assert rules_of(found) == {"R014"}

    def test_facade_import_passes(self):
        found = lint(
            "from repro.shard import ShardedDatabase\n",
            path="src/repro/planner/executor.py",
        )
        assert found == []

    def test_type_checking_import_passes(self):
        found = lint(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from ..shard.coordinator import ShardedDatabase
            """,
            path="src/repro/invariants/sharding.py",
        )
        assert found == []

    def test_copy_engine_dereference_flagged(self):
        found = lint(
            """
            def poke(copy):
                return copy.db.clock
            """,
            path="src/repro/planner/executor.py",
        )
        assert rules_of(found) == {"R014"}

    def test_copies_chain_dereference_flagged(self):
        found = lint(
            """
            def poke(sdb):
                return sdb.shards[0].copies[1].disk
            """,
            path="tools/chaos/__init__.py",
        )
        assert rules_of(found) == {"R014"}

    def test_suffix_name_dereference_flagged(self):
        found = lint(
            """
            def poke(primary_copy):
                primary_copy.buffer.drop_all()
            """,
            path="src/repro/core/tetris.py",
        )
        assert rules_of(found) == {"R014"}

    def test_shard_package_is_exempt(self):
        found = lint(
            """
            def heal(copy, peer):
                page = peer.db.disk.peek(3)
                return copy.db.buffer.lift_quarantine(3)
            """,
            path="src/repro/shard/coordinator.py",
        )
        assert found == []

    def test_coordinator_api_use_passes(self):
        found = lint(
            """
            def run(sdb):
                sdb.kill_copy(1, 0, after_rows=10)
                return sdb.sorted_scan({"a1": (0, 9)}, "a2")
            """,
            path="tools/chaos/__init__.py",
        )
        assert found == []

    def test_unrelated_attribute_passes(self):
        found = lint(
            """
            def repair(slots):
                for copy in slots:
                    if copy.intact:
                        return list(copy.records)
            """,
            path="src/repro/storage/replica.py",
        )
        assert found == []

    def test_suppression_applies(self):
        found = lint(
            "from repro.shard.merge import merge_shard_streams"
            "  # reprolint: allow(R014)\n",
            path="src/repro/core/tetris.py",
        )
        assert found == []


# ----------------------------------------------------------------------
# R015: 2PC participant discipline
# ----------------------------------------------------------------------
class TestR015TxnParticipants:
    def test_direct_commit_participant_flagged(self):
        found = lint(
            """
            def sneak(copy):
                copy.txn_commit("load#0")
            """,
            path="tools/chaos/__init__.py",
        )
        assert rules_of(found) == {"R015"}

    def test_every_mutator_flagged(self):
        found = lint(
            """
            def drive(copy, rows):
                copy.txn_begin("g")
                copy.txn_load(rows)
                copy.txn_insert(rows)
                copy.txn_prepare("g")
                copy.txn_abort("g")
                copy.txn_recover()
            """,
            path="src/repro/planner/executor.py",
        )
        assert rules_of(found) == {"R015"}
        assert len(found) == 6

    def test_txn_package_is_exempt(self):
        found = lint(
            """
            def drive(copy, gid):
                copy.txn_prepare(gid)
                copy.txn_commit(gid)
            """,
            path="src/repro/txn/coordinator.py",
        )
        assert found == []

    def test_shard_package_is_exempt(self):
        found = lint(
            """
            def recover(self):
                return tuple(
                    copy.txn_recover() for copy in self.all_copies()
                )
            """,
            path="src/repro/shard/coordinator.py",
        )
        assert found == []

    def test_read_only_surface_passes(self):
        found = lint(
            """
            def observe(sdb):
                for copy in sdb.all_copies():
                    print(copy.name)
                    print(len(copy.wal_records()))
                    print(copy.crash_hooks())
            """,
            path="tools/crashgrid/__init__.py",
        )
        assert found == []

    def test_suppression_applies(self):
        found = lint(
            'def f(copy):\n'
            '    copy.txn_abort("g")'
            "  # reprolint: allow(R015)\n",
            path="tools/chaos/__init__.py",
        )
        assert found == []


# ----------------------------------------------------------------------
# R016: pushdown cover construction confined to the planner
# ----------------------------------------------------------------------
class TestR016PushdownConstruction:
    def test_direct_construction_flagged(self):
        found = lint(
            """
            from repro.core.query_space import IntervalUnionSpace

            space = IntervalUnionSpace(dim=0, intervals=((1, 5),))
            """,
            path="src/repro/core/tetris.py",
        )
        assert rules_of(found) == {"R016"}

    def test_qualified_construction_flagged(self):
        found = lint(
            """
            from repro.core import query_space

            space = query_space.IntervalUnionSpace(0, ((1, 5),))
            """,
            path="src/repro/relational/table.py",
        )
        assert rules_of(found) == {"R016"}

    def test_build_key_cover_call_flagged(self):
        found = lint(
            """
            from repro.planner.pushdown import build_key_cover

            cover = build_key_cover([1, 2, 3], budget=4)
            """,
            path="src/repro/tpcd/plans.py",
        )
        assert rules_of(found) == {"R016"}

    def test_planner_pushdown_is_exempt(self):
        found = lint(
            """
            def pushdown_space(keys, budget):
                cover = build_key_cover(keys, budget)
                return IntervalUnionSpace(0, cover.intervals)
            """,
            path="src/repro/planner/pushdown.py",
        )
        assert found == []

    def test_query_space_module_is_exempt(self):
        found = lint(
            """
            def intersect(self, other):
                return IntervalUnionSpace(self.dim, merged)
            """,
            path="src/repro/core/query_space.py",
        )
        assert found == []

    def test_isinstance_dispatch_passes(self):
        found = lint(
            """
            from repro.core.query_space import IntervalUnionSpace

            def filter_rows(space):
                if isinstance(space, IntervalUnionSpace):
                    return space.intervals
                return None
            """,
            path="src/repro/kernels/pure.py",
        )
        assert found == []

    def test_suppression(self):
        found = lint(
            "space = IntervalUnionSpace(0, ())  # reprolint: allow(R016)\n",
            path="src/repro/core/tetris.py",
        )
        assert found == []


# ----------------------------------------------------------------------
class TestDriver:
    def test_suppression_by_rule(self):
        found = lint("assert True  # reprolint: allow(R005)\n")
        assert found == []

    def test_blanket_suppression(self):
        found = lint("assert True  # reprolint: allow\n")
        assert found == []

    def test_suppression_of_other_rule_does_not_apply(self):
        found = lint("assert True  # reprolint: allow(R001)\n")
        assert rules_of(found) == {"R005"}

    def test_syntax_error_reported_not_raised(self):
        found = lint("def broken(:\n")
        assert rules_of(found) == {"E999"}

    def test_violation_format(self):
        violation = lint("assert True\n", path="pkg/mod.py")[0]
        assert str(violation).startswith("pkg/mod.py:1:0: R005 ")

    def test_lint_paths_on_directory(self, tmp_path):
        (tmp_path / "clean.py").write_text("x = 1\n")
        (tmp_path / "dirty.py").write_text("assert x\n")
        found = lint_paths([tmp_path])
        assert [Path(v.path).name for v in found] == ["dirty.py"]

    def test_main_exit_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(dirty)]) == 1
        assert "R005" in capsys.readouterr().out
        assert main([str(clean)]) == 0
        assert main(["--list-rules"]) == 0
        listed = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in listed

    def test_cli_subprocess_nonzero_on_violation(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        result = subprocess.run(
            [sys.executable, "-m", "tools.reprolint", str(dirty)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "R005" in result.stdout

    def test_repository_tree_is_clean(self):
        """The shipped engine passes its own linter (acceptance gate)."""
        assert lint_paths([REPO_ROOT / "src" / "repro"]) == []

# ----------------------------------------------------------------------
# R010-R011: interprocedural project rules (engine-driven)
# ----------------------------------------------------------------------
def lint_tree(tmp_path, source: str, name: str = "module.py"):
    """Write one fixture file and lint it with the full project pass."""
    (tmp_path / name).write_text(textwrap.dedent(source))
    return lint_paths([tmp_path])


class TestR010GuardedState:
    GUARDED = """\
        @guarded_by("_lock", "_items", "count")
        class Registry:
            def __init__(self):
                self._lock = tracked_lock("lock-a")
                self._items = []
                self.count = 0
        """

    def test_unlocked_mutation_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.GUARDED
            + """\

            def add(self, item):
                self._items.append(item)
            """,
        )
        assert "R010" in rules_of(found)

    def test_lexically_locked_mutation_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.GUARDED
            + """\

            def add(self, item):
                with self._lock:
                    self._items.append(item)
                    self.count += 1
            """,
        )
        assert "R010" not in rules_of(found)

    def test_helper_locked_by_every_caller_clean(self, tmp_path):
        """The interprocedural case: the lock is taken one frame up."""
        found = lint_tree(
            tmp_path,
            self.GUARDED
            + """\

            def add(self, item):
                with self._lock:
                    self._admit(item)

            def _admit(self, item):
                self._items.append(item)
                self.count += 1
            """,
        )
        assert "R010" not in rules_of(found)

    def test_helper_with_one_unlocked_caller_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.GUARDED
            + """\

            def add(self, item):
                with self._lock:
                    self._admit(item)

            def add_fast(self, item):
                self._admit(item)

            def _admit(self, item):
                self._items.append(item)
            """,
        )
        assert "R010" in rules_of(found)

    def test_init_is_exempt(self, tmp_path):
        found = lint_tree(tmp_path, self.GUARDED)
        assert "R010" not in rules_of(found)

    def test_counter_augassign_outside_lock_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.GUARDED
            + """\

            def bump(self):
                self.count += 1
            """,
        )
        assert "R010" in rules_of(found)

    def test_suppression_applies(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.GUARDED
            + """\

            def add(self, item):
                self._items.append(item)  # reprolint: allow(R010)
            """,
        )
        assert "R010" not in rules_of(found)


class TestR011LockOrder:
    # indented to match the fixture bodies so textwrap.dedent lines up
    ORDER = '            declare_lock_order("lock-a", "lock-b", "lock-c")\n'

    def test_lexical_inversion_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.ORDER
            + """\

            def inverted():
                a = tracked_lock("lock-a")
                b = tracked_lock("lock-b")
                with b:
                    with a:
                        pass
            """,
        )
        assert "R011" in rules_of(found)

    def test_declared_order_nesting_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.ORDER
            + """\

            def ordered():
                a = tracked_lock("lock-a")
                c = tracked_lock("lock-c")
                with a:
                    with c:
                        pass
            """,
        )
        assert "R011" not in rules_of(found)

    def test_interprocedural_inversion_flagged(self, tmp_path):
        """Holding lock-b, call a function that takes lock-a."""
        found = lint_tree(
            tmp_path,
            self.ORDER
            + """\

            def takes_a():
                a = tracked_lock("lock-a")
                with a:
                    pass

            def entry():
                b = tracked_lock("lock-b")
                with b:
                    takes_a()
            """,
        )
        assert "R011" in rules_of(found)

    def test_interprocedural_in_order_clean(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.ORDER
            + """\

            def takes_b():
                b = tracked_lock("lock-b")
                with b:
                    pass

            def entry():
                a = tracked_lock("lock-a")
                with a:
                    takes_b()
            """,
        )
        assert "R011" not in rules_of(found)

    def test_double_declaration_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            self.ORDER + '            declare_lock_order("lock-z")\n',
        )
        assert "R011" in rules_of(found)

    def test_invertible_undeclared_pair_flagged(self, tmp_path):
        found = lint_tree(
            tmp_path,
            """\
            def one_way():
                x = tracked_lock("lock-x")
                y = tracked_lock("lock-y")
                with x:
                    with y:
                        pass

            def other_way():
                x = tracked_lock("lock-x")
                y = tracked_lock("lock-y")
                with y:
                    with x:
                        pass
            """,
        )
        assert "R011" in rules_of(found)


class TestOutputModes:
    def test_json_mode_structure(self, tmp_path, capsys):
        import json

        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        assert main(["--json", str(dirty)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 1
        [finding] = report["violations"]
        assert finding["rule"] == "R005"
        assert finding["line"] == 1
        assert finding["path"] == str(dirty)

    def test_json_mode_clean(self, tmp_path, capsys):
        import json

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["--json", str(clean)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"violations": [], "count": 0}

    def test_github_mode_annotations(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("assert True\n")
        assert main(["--github", str(dirty)]) == 1
        out = capsys.readouterr().out
        assert f"::error file={dirty},line=1,col=0,title=reprolint R005::" in out
        assert "reprolint: 1 violation(s) found" in out

    def test_github_mode_clean(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main(["--github", str(clean)]) == 0
        assert "reprolint: clean" in capsys.readouterr().out


class TestToolchainSelfLint:
    def test_tools_tree_is_clean(self):
        """The linter (and the chaos harness) pass the linter."""
        assert lint_paths([REPO_ROOT / "tools"]) == []
