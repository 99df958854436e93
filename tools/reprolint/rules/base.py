"""Rule plumbing: registry, file-rule dispatcher and shared context.

Two rule families plug into the framework:

* **File rules** (R001–R009, R014–R016) subclass :class:`FileRule`.  All file rules
  for one source file share a *single* AST traversal: the
  :class:`Dispatcher` walks the tree once and fans each node out to
  every rule that declared a ``visit_<NodeType>`` (pre-order) or
  ``depart_<NodeType>`` (post-order) handler.  Emission order therefore
  matches the classic single-visitor linter: node order first, then
  rule registration order within a node.
* **Project rules** (R010–R011) subclass :class:`ProjectRule` and run
  once over the whole linted tree with the interprocedural engine's
  :class:`~tools.reprolint.engine.callgraph.Project` in hand.

``@register`` fills the central registry that ``--list-rules``, the
rule-summary table ``ALL_RULES`` and the drivers all read from.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable

from ..violations import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.callgraph import Project

__all__ = [
    "Dispatcher",
    "FileContext",
    "FileRule",
    "ProjectRule",
    "all_rule_summaries",
    "file_rules",
    "project_rules",
    "register",
]

#: rule id -> one-line summary, in registration order
_SUMMARIES: dict[str, str] = {}
_FILE_RULES: list[type["FileRule"]] = []
_PROJECT_RULES: list[type["ProjectRule"]] = []


def register(rule_cls: type) -> type:
    """Class decorator adding a rule to the central registry."""
    _SUMMARIES[rule_cls.rule] = rule_cls.summary
    if issubclass(rule_cls, FileRule):
        _FILE_RULES.append(rule_cls)
    elif issubclass(rule_cls, ProjectRule):
        _PROJECT_RULES.append(rule_cls)
    else:  # pragma: no cover - registration-time programming error
        raise TypeError(f"{rule_cls!r} is neither a FileRule nor a ProjectRule")
    return rule_cls


def file_rules() -> list[type["FileRule"]]:
    return list(_FILE_RULES)


def project_rules() -> list[type["ProjectRule"]]:
    return list(_PROJECT_RULES)


def all_rule_summaries() -> dict[str, str]:
    return dict(_SUMMARIES)


class FileContext:
    """Shared per-file state handed to every file rule."""

    def __init__(self, path: str, hot_path: bool) -> None:
        self.path = path
        self.hot_path = hot_path
        posix = PurePosixPath(path).as_posix()
        #: WAL/durability rules only police engine code, not the storage
        #: layer that implements the WAL itself
        self.wal_scope = "storage/" not in posix
        self.violations: list[Violation] = []

    def emit(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, node.lineno, node.col_offset, rule, message)
        )


class FileRule:
    """Base class for single-file rules driven by the shared traversal.

    Subclasses declare ``visit_<NodeType>``/``depart_<NodeType>``
    methods; ``finish`` runs after the walk for end-of-file
    reconciliation (R003 uses it to drain its scope stack).
    """

    rule: ClassVar[str]
    summary: ClassVar[str]

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx

    def emit(self, node: ast.AST, message: str) -> None:
        self.ctx.emit(node, self.rule, message)

    def finish(self) -> None:  # noqa: B027 - intentional no-op default
        pass


class ProjectRule:
    """Base class for interprocedural rules over the whole linted tree."""

    rule: ClassVar[str]
    summary: ClassVar[str]

    def run(self, project: "Project") -> list[Violation]:  # pragma: no cover
        raise NotImplementedError


class Dispatcher:
    """One AST walk fanning nodes out to every interested file rule."""

    def __init__(self, rules: Iterable[FileRule]) -> None:
        self._pre: dict[str, list[Callable[[ast.AST], None]]] = {}
        self._post: dict[str, list[Callable[[ast.AST], None]]] = {}
        for rule in rules:
            for name in dir(type(rule)):
                if name.startswith("visit_"):
                    self._pre.setdefault(name[6:], []).append(getattr(rule, name))
                elif name.startswith("depart_"):
                    self._post.setdefault(name[7:], []).append(getattr(rule, name))

    def walk(self, tree: ast.AST) -> None:
        self._walk(tree)

    def _walk(self, node: ast.AST) -> None:
        kind = type(node).__name__
        for handler in self._pre.get(kind, ()):  # pre-order: parents first
            handler(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child)
        for handler in self._post.get(kind, ()):  # post-order: after children
            handler(node)
