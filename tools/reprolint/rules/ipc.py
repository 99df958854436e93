"""R009 — no process, serialization or thread-pool machinery in the engine.

Slabs of the slab-parallel scan run in the caller, one after another:
they share the caller's memory, nothing is shipped by value, and every
page read is charged to the caller's ``IOStats``.  ``multiprocessing``,
``pickle``, ``_pickle`` and ``concurrent.futures`` are therefore
imported *nowhere* — ``planner/parallel.py`` included — which makes the
hazards of process and pool execution (a fork while threads are live,
an unpicklable payload, reads charged to a child that dies, a page memo
written from two threads) unreachable rather than policed.
"""

from __future__ import annotations

import ast

from .base import FileRule, register

__all__ = ["IpcImportRule"]

#: import roots that spawn processes or workers, or ship data by value
BANNED_MODULE_ROOTS = frozenset({"multiprocessing", "pickle", "_pickle", "concurrent"})


@register
class IpcImportRule(FileRule):
    """Flag process, serialization and thread-pool imports."""

    rule = "R009"
    summary = "multiprocessing, pickle or concurrent.futures anywhere"

    def _check_ipc_import(self, node: ast.AST, module: str) -> None:
        if module.split(".", 1)[0] in BANNED_MODULE_ROOTS:
            self.emit(
                node,
                f"`{module}` spawns processes or workers, or ships data by "
                "value; the engine runs slabs in the caller, in its memory "
                "and on its I/O accounting, so no module may import it",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_ipc_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._check_ipc_import(node, node.module)
