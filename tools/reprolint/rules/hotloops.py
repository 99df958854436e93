"""R002 — no per-tuple Python loops over page records in hot paths.

``core/tetris.py``, ``core/ubtree.py`` and the relational operators
must route batch work over ``page.records`` through the
:mod:`repro.kernels` API so the NumPy backend can vectorize it; a
per-tuple loop reintroduces the exact slowdown the kernel layer exists
to remove.  Only paths listed in ``HOT_PATH_FILES`` are policed —
everywhere else a records loop is an idiom, not a regression.
"""

from __future__ import annotations

import ast

from .base import FileRule, register

__all__ = ["HOT_PATH_FILES", "HotLoopRule", "is_hot_path", "records_owner"]

#: files (path suffixes, ``/``-separated) subject to the hot-path rule
#: R002; a suffix ending in ``/`` names every file under that directory
HOT_PATH_FILES: tuple[str, ...] = (
    "core/tetris.py",
    "core/ubtree.py",
    "relational/operators/",
)


def is_hot_path(posix: str) -> bool:
    """Whether the ``/``-separated ``posix`` path falls under R002."""
    rooted = "/" + posix
    return any(
        f"/{suffix}" in rooted
        if suffix.endswith("/")
        else rooted.endswith(f"/{suffix}")
        for suffix in HOT_PATH_FILES
    )


def records_owner(node: ast.expr) -> str | None:
    """Source text of ``X`` when ``node`` is the attribute ``X.records``."""
    if isinstance(node, ast.Attribute) and node.attr == "records":
        return ast.unparse(node.value)
    return None


@register
class HotLoopRule(FileRule):
    """Flag tuple-at-a-time iteration over ``.records`` in kernel hot paths."""

    rule = "R002"
    summary = "per-tuple loop over page records in a kernel-consuming hot path"

    def _iter_target(self, iter_node: ast.expr) -> str | None:
        """Owner text when an iteration runs tuple-at-a-time over records."""
        owner = records_owner(iter_node)
        if owner is not None:
            return owner
        if isinstance(iter_node, ast.Call) and isinstance(iter_node.func, ast.Name):
            if iter_node.func.id in ("enumerate", "reversed", "iter") and iter_node.args:
                return records_owner(iter_node.args[0])
        return None

    def _check_iteration(self, iter_node: ast.expr, anchor: ast.AST) -> None:
        if not self.ctx.hot_path:
            return
        owner = self._iter_target(iter_node)
        if owner is not None:
            self.emit(
                anchor,
                f"per-tuple Python loop over `{owner}.records` in a hot "
                "path; route batch work through the `repro.kernels` API",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)

    def _visit_comprehension(
        self, node: ast.AST, generators: "list[ast.comprehension]"
    ) -> None:
        for comp in generators:
            self._check_iteration(comp.iter, node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)
