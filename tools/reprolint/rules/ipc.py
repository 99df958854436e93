"""R009 — no process or serialization machinery in the engine.

Slab-parallel execution is threads-or-inline: slabs share the caller's
memory, nothing is shipped by value, and every page read is charged to
the caller's ``IOStats``.  ``multiprocessing``, ``pickle`` and
``_pickle`` are therefore imported *nowhere* — ``planner/parallel.py``
included — which makes the hazards of process execution (a fork while
slab threads are live, an unpicklable payload, reads charged to a child
that dies) unreachable rather than policed.  ``concurrent.futures`` is
the thread pool the executor runs on and may be imported only by
``planner/parallel.py``.
"""

from __future__ import annotations

import ast

from .base import FileRule, register

__all__ = ["IpcImportRule", "R009_SANCTIONED_MODULES"]

#: modules allowed to import ``concurrent.futures`` (R009): the parallel
#: executor
R009_SANCTIONED_MODULES: tuple[str, ...] = ("planner/parallel.py",)

#: import roots that spawn processes or ship data by value: banned everywhere
PROCESS_MODULE_ROOTS = frozenset({"multiprocessing", "pickle", "_pickle"})


@register
class IpcImportRule(FileRule):
    """Flag process/serialization imports, and thread pools off the executor."""

    rule = "R009"
    summary = (
        "multiprocessing/pickle anywhere, or concurrent.futures outside the "
        "parallel executor module"
    )

    def _check_ipc_import(self, node: ast.AST, module: str) -> None:
        root = module.split(".", 1)[0]
        if root in PROCESS_MODULE_ROOTS:
            self.emit(
                node,
                f"`{module}` spawns processes or ships data by value; the "
                "engine runs slabs on threads or inline, in the caller's "
                "memory and on the caller's I/O accounting, so no module "
                "may import it",
            )
        elif root == "concurrent" and self.ctx.ipc_scope:
            sanctioned = " / ".join(f"`{name}`" for name in R009_SANCTIONED_MODULES)
            self.emit(
                node,
                f"`{module}` starts worker threads; slab threads are staged "
                "under the executor's lock discipline, so only the "
                f"sanctioned modules ({sanctioned}) may import it",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_ipc_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._check_ipc_import(node, node.module)
