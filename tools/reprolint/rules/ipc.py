"""R009 — process/serialization machinery only in the sanctioned modules.

The zero-copy contract of slab-parallel execution ("pages are never
pickled") holds because exactly one module is allowed to touch the
process and serialization toolbox: ``planner/parallel.py`` (the
executor).  An ``import multiprocessing`` / ``pickle`` / ``concurrent``
anywhere else in engine code would open a side channel that ships pages
by value and silently reintroduces the serialization cost the executor
layer exists to remove.
"""

from __future__ import annotations

import ast

from .base import FileRule, register

__all__ = ["IpcImportRule", "R009_SANCTIONED_MODULES"]

#: modules allowed to use the process/serialization toolbox (R009):
#: the parallel executor
R009_SANCTIONED_MODULES: tuple[str, ...] = ("planner/parallel.py",)

#: import roots that ship data by value or spawn processes (R009)
IPC_MODULE_ROOTS = frozenset({"multiprocessing", "pickle", "_pickle", "concurrent"})


@register
class IpcImportRule(FileRule):
    """Flag process/serialization imports outside the executor modules."""

    rule = "R009"
    summary = "multiprocessing/pickle outside the sanctioned parallel executor modules"

    def _check_ipc_import(self, node: ast.AST, module: str) -> None:
        if not self.ctx.ipc_scope:
            return
        root = module.split(".", 1)[0]
        if root not in IPC_MODULE_ROOTS:
            return
        sanctioned = " / ".join(f"`{name}`" for name in R009_SANCTIONED_MODULES)
        self.emit(
            node,
            f"`{module}` spawns processes or ships data by value; parallel "
            "scan paths hand pages and columns off zero-copy (COW fork), so "
            f"only the sanctioned modules ({sanctioned}) may import it",
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check_ipc_import(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is not None and node.level == 0:
            self._check_ipc_import(node, node.module)
