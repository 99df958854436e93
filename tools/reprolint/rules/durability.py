"""R007/R008 — durable disk state flows through the WAL and the pool.

``R007``: engine code must not mutate the disk behind an armed WAL.
Durability rests on the write-ahead protocol: every data-page
write/free/allocation in engine code (outside ``storage/`` itself) must
sit in a function that participates in the WAL machinery
(``active_wal`` guard, ``log_image``/``log_alloc``/``log_free``
journaling), so crash recovery can replay or roll it back.  Scratch I/O
is exempt: calls charged to ``category="temp"`` (sort runs) or
``category="wal"`` (the log device itself) are not durable state.

``R008``: engine code must read data pages through the pool/scheduler.
The buffer pool (and, when armed, the I/O scheduler behind it) is the
single gate where reads are retried, checksum-verified, quarantined and
— under prefetching — claimed from device queues.  A direct
``disk.read(...)`` in engine code bypasses retry accounting, the
prefetch ledger *and* the queue model.  Maintenance reads are exempt:
``category="replica"`` (repair traffic) and ``category="wal"`` (log
replay) are infrastructure, not engine data access.
"""

from __future__ import annotations

import ast

from .base import FileContext, FileRule, register

__all__ = ["DiskMutationRule", "DiskReadRule"]

#: disk methods that mutate durable state (R007)
DISK_MUTATORS = frozenset({"write", "free", "allocate"})

#: names whose presence in a function marks it as WAL-participating (R007)
WAL_NAME_MARKERS = frozenset({"active_wal", "WriteAheadLog"})
WAL_ATTR_MARKERS = frozenset({"wal", "log_image", "log_alloc", "log_free", "touch"})

#: I/O categories whose writes are scratch, not durable state (R007)
SCRATCH_CATEGORIES = frozenset({"temp", "wal"})

#: I/O categories whose reads are maintenance, not engine data access (R008)
MAINTENANCE_READ_CATEGORIES = frozenset({"replica", "wal"})


def _category_in(node: ast.Call, categories: frozenset[str]) -> bool:
    for keyword in node.keywords:
        if (
            keyword.arg == "category"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value in categories
        ):
            return True
    return False


@register
class DiskMutationRule(FileRule):
    """R007: disk mutations outside the WAL machinery."""

    rule = "R007"
    summary = "direct SimulatedDisk mutation in engine code bypassing an armed WAL"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        # whether the innermost function participates in the WAL
        # machinery (pre-scanned on entry, same pattern as R006)
        self._wal_marker_stack: list[bool] = [False]

    def _references_wal(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in WAL_NAME_MARKERS:
                return True
            if isinstance(child, ast.Attribute) and child.attr in WAL_ATTR_MARKERS:
                return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._wal_marker_stack.append(self._references_wal(node))

    def depart_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._wal_marker_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def depart_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.depart_FunctionDef(node)  # type: ignore[arg-type]

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.wal_scope or self._wal_marker_stack[-1]:
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in DISK_MUTATORS):
            return
        owner = ast.unparse(func.value)
        if "disk" not in owner:
            return
        if _category_in(node, SCRATCH_CATEGORIES):
            return  # scratch I/O: sort runs and the log device itself
        self.emit(
            node,
            f"`{owner}.{func.attr}` mutates durable disk state in a function "
            "with no WAL participation; journal through the armed "
            "WriteAheadLog (`active_wal`/`log_image`/`log_alloc`/`log_free`) "
            "so recovery can replay or roll it back",
        )


@register
class DiskReadRule(FileRule):
    """R008: disk reads outside the BufferPool/IOScheduler gate."""

    rule = "R008"
    summary = "direct disk read in engine code bypassing the BufferPool/IOScheduler gate"

    def visit_Call(self, node: ast.Call) -> None:
        if not self.ctx.wal_scope:  # the gate itself lives in storage/
            return
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "read"):
            return
        owner = ast.unparse(func.value)
        if "disk" not in owner:
            return
        if _category_in(node, MAINTENANCE_READ_CATEGORIES):
            return  # replica repair / WAL replay infrastructure
        self.emit(
            node,
            f"`{owner}.read` bypasses the BufferPool/IOScheduler gate; engine "
            "data reads must flow through the pool (retry, checksum, "
            "quarantine, prefetch ledger) or the scheduler's device queues",
        )
