"""Per-module symbol tables: the engine's first pass.

One :class:`ModuleInfo` per linted file records everything the
interprocedural passes need without re-walking the AST:

* every class with its base names, methods, ``@guarded_by`` annotation
  (lock attribute + guarded fields) and declared lock attributes
  (``self._lock = tracked_lock("buffer-pool")``);
* every function/method with its locally-declared locks;
* module-level lock variables and ``declare_lock_order(...)`` calls;
* module imports resolved to project files where possible, so the call
  graph can follow ``kernels.get_backend(...)`` across module boundaries.

The tables are built from a single recursive walk and never mutate the
AST; nodes are kept by reference so rules can report exact positions.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "build_module",
    "dotted_name",
    "name_tail",
]

#: factory callables whose string argument names a declared lock
_LOCK_FACTORIES = {"tracked_lock", "TrackedLock"}


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def name_tail(node: ast.AST) -> str | None:
    """The final identifier of a Name/Attribute chain (``c`` of ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _lock_label(value: ast.AST) -> str | None:
    """The declared name if ``value`` is ``tracked_lock("name")``."""
    if (
        isinstance(value, ast.Call)
        and name_tail(value.func) in _LOCK_FACTORIES
        and value.args
        and isinstance(value.args[0], ast.Constant)
        and isinstance(value.args[0].value, str)
    ):
        return value.args[0].value
    return None


class FunctionInfo:
    """One function or method, with the facts later passes key on."""

    __slots__ = (
        "module",
        "node",
        "name",
        "qualname",
        "class_info",
        "local_locks",
        "parent",
        "nested",
        # populated by the call-graph pass:
        "calls",
        "acquired_labels",
        "lexical_pairs",
    )

    def __init__(
        self,
        module: "ModuleInfo",
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qualname: str,
        class_info: "ClassInfo | None",
        parent: "FunctionInfo | None",
    ) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = qualname
        self.class_info = class_info
        self.parent = parent
        self.nested: dict[str, FunctionInfo] = {}
        #: function-local lock variables: var name -> declared lock label
        self.local_locks: dict[str, str] = {}
        self.calls: list["object"] = []
        self.acquired_labels: set[str] = set()
        self.lexical_pairs: list[tuple[str, str, ast.With]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionInfo {self.module.path}::{self.qualname}>"


class ClassInfo:
    """One class: methods, guard annotation and declared lock attributes."""

    __slots__ = (
        "module",
        "node",
        "name",
        "qualname",
        "base_names",
        "methods",
        "guard_lock_attr",
        "guarded_fields",
        "lock_attrs",
    )

    def __init__(self, module: "ModuleInfo", node: ast.ClassDef, qualname: str) -> None:
        self.module = module
        self.node = node
        self.name = node.name
        self.qualname = qualname
        self.base_names = [
            base for base in (dotted_name(b) for b in node.bases) if base
        ]
        self.methods: dict[str, FunctionInfo] = {}
        #: ``@guarded_by("_lock", "_frames", ...)`` annotation, if any
        self.guard_lock_attr: str | None = None
        self.guarded_fields: tuple[str, ...] = ()
        #: instance lock attributes: attr name -> declared lock label
        self.lock_attrs: dict[str, str] = {}
        for dec in node.decorator_list:
            if not (isinstance(dec, ast.Call) and name_tail(dec.func) == "guarded_by"):
                continue
            literals = [
                arg.value
                for arg in dec.args
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ]
            if literals:
                self.guard_lock_attr = literals[0]
                self.guarded_fields = tuple(literals[1:])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClassInfo {self.module.path}::{self.qualname}>"


class ModuleInfo:
    """Symbol table for one linted file."""

    __slots__ = (
        "path",
        "tree",
        "source_lines",
        "classes",
        "functions",
        "all_functions",
        "module_locks",
        "lock_order_calls",
        "imports",
    )

    def __init__(self, path: str, tree: ast.Module, source_lines: list[str]) -> None:
        self.path = path
        self.tree = tree
        self.source_lines = source_lines
        #: top-level classes by name
        self.classes: dict[str, ClassInfo] = {}
        #: top-level functions by name
        self.functions: dict[str, FunctionInfo] = {}
        #: every function at any nesting depth, in source order
        self.all_functions: list[FunctionInfo] = []
        #: module-level lock variables: name -> declared label
        self.module_locks: dict[str, str] = {}
        #: every ``declare_lock_order(...)`` call with its literal names
        #: (``None`` when an argument is not a string literal)
        self.lock_order_calls: list[tuple[ast.Call, tuple[str, ...] | None]] = []
        #: import aliases: local name -> dotted module path it refers to.
        #: Relative imports are pre-resolved against this module's path.
        self.imports: dict[str, str] = {}

    def posix(self) -> PurePosixPath:
        return PurePosixPath(self.path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleInfo {self.path}>"


def _resolve_relative(path: str, level: int, module: str | None) -> str:
    """Dotted target of a ``from ..pkg import x`` seen in ``path``.

    ``src/repro/planner/parallel.py`` with ``level=2, module="kernels"``
    resolves to ``src.repro.kernels`` — dotted over the file tree, which
    is all the call graph needs to match project files.
    """
    parts = list(PurePosixPath(path).parts)
    parts = parts[:-1]  # drop the file name
    if parts and parts[-1] == "__init__.py":  # pragma: no cover - defensive
        parts = parts[:-1]
    drop = level - 1
    if drop > 0:
        parts = parts[: len(parts) - drop] if drop <= len(parts) else []
    if module:
        parts.extend(module.split("."))
    return ".".join(parts)


def _record_imports(info: ModuleInfo, node: ast.stmt) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # ``import a.b.c`` binds ``a``; ``import a.b.c as d`` binds the
            # full dotted path to ``d``
            info.imports[local] = alias.name if alias.asname else alias.name.split(".")[0]
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            base = _resolve_relative(info.path, node.level, node.module)
        else:
            base = node.module or ""
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            info.imports[local] = f"{base}.{alias.name}" if base else alias.name


class _SymbolCollector:
    """Single recursive walk that fills a :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info

    def collect(self) -> None:
        for stmt in self.info.tree.body:
            self._walk_stmt(stmt, class_info=None, function=None, prefix="")
        self._scan_lock_order(self.info.tree)

    def _scan_lock_order(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name_tail(node.func) == "declare_lock_order":
                names: tuple[str, ...] | None
                literals = []
                literal_only = True
                for arg in node.args:
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                        literals.append(arg.value)
                    else:
                        literal_only = False
                names = tuple(literals) if literal_only else None
                self.info.lock_order_calls.append((node, names))

    # ------------------------------------------------------------------
    def _walk_stmt(
        self,
        node: ast.stmt,
        *,
        class_info: ClassInfo | None,
        function: FunctionInfo | None,
        prefix: str,
    ) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _record_imports(self.info, node)
            return
        if isinstance(node, ast.ClassDef):
            qualname = f"{prefix}{node.name}"
            cls = ClassInfo(self.info, node, qualname)
            if function is None and class_info is None:
                self.info.classes[node.name] = cls
            for stmt in node.body:
                self._walk_stmt(
                    stmt, class_info=cls, function=None, prefix=f"{qualname}."
                )
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            fn = FunctionInfo(self.info, node, qualname, class_info, function)
            self.info.all_functions.append(fn)
            if class_info is not None and function is None:
                class_info.methods[node.name] = fn
            elif function is not None:
                function.nested[node.name] = fn
            else:
                self.info.functions[node.name] = fn
            for stmt in node.body:
                self._walk_stmt(
                    stmt, class_info=class_info, function=fn, prefix=f"{qualname}."
                )
            return
        self._note_lock_bindings(node, class_info=class_info, function=function)
        for child in self._child_stmts(node):
            self._walk_stmt(child, class_info=class_info, function=function, prefix=prefix)

    @staticmethod
    def _child_stmts(node: ast.stmt) -> Iterator[ast.stmt]:
        for field in ("body", "orelse", "finalbody"):
            yield from getattr(node, field, ())
        for handler in getattr(node, "handlers", ()):
            yield from handler.body

    def _note_lock_bindings(
        self,
        node: ast.stmt,
        *,
        class_info: ClassInfo | None,
        function: FunctionInfo | None,
    ) -> None:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            return
        label = _lock_label(node.value)
        if label is None:
            return
        target = node.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and class_info is not None
        ):
            class_info.lock_attrs[target.attr] = label
        elif isinstance(target, ast.Name):
            if function is not None:
                function.local_locks[target.id] = label
            else:
                self.info.module_locks[target.id] = label


def build_module(path: str, source: str, tree: ast.Module | None = None) -> ModuleInfo:
    """Build the symbol table for one file (parsing if needed)."""
    if tree is None:
        tree = ast.parse(source)
    info = ModuleInfo(path, tree, source.splitlines())
    _SymbolCollector(info).collect()
    return info
