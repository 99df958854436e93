"""Project-wide call graph with lock context: the engine's second pass.

For every function the pass records, in one body walk:

* resolved call sites (``CallSite``) — calls to same-module functions,
  ``self.method(...)`` within a class (following base classes across the
  project), ``alias.function(...)`` through project imports, and
  project-class constructors;
* the lexical ``with <lock>:`` stack held around each call site, both as
  raw source tokens (``self._lock``) and as declared lock labels
  (``buffer-pool``) when the expression resolves to a known lock;
* lexical lock-nesting pairs (outer label, inner label) for R011.

Unresolvable calls (attribute calls on objects of unknown type, calls
through stored callables) simply produce no edge: the dataflow pass is
written so missing edges can only *hide* context, never invent it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from .symbols import ClassInfo, FunctionInfo, ModuleInfo

__all__ = ["CallSite", "Project", "build_project", "lock_label_of"]


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, with the lexical lock context around it."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call
    held_labels: tuple[str, ...]
    held_tokens: tuple[str, ...]
    on_self: bool


class Project:
    """All linted modules plus the cross-module resolution indexes."""

    def __init__(self, modules: list[ModuleInfo]) -> None:
        self.modules = modules
        self.call_sites: list[CallSite] = []
        #: callee -> its call sites (filled by :func:`build_project`)
        self.callers: dict[FunctionInfo, list[CallSite]] = {}
        self._by_dotted: dict[str, ModuleInfo] = {}
        self._classes_by_name: dict[str, list[ClassInfo]] = {}
        for module in modules:
            dotted = self._dotted_of(module)
            if dotted:
                self._by_dotted[dotted] = module
            for cls in module.classes.values():
                self._classes_by_name.setdefault(cls.name, []).append(cls)

    @staticmethod
    def _dotted_of(module: ModuleInfo) -> str:
        parts = [p for p in module.posix().parts if p not in ("/", "")]
        if not parts:
            return ""
        leaf = parts[-1]
        if leaf.endswith(".py"):
            leaf = leaf[:-3]
        parts = parts[:-1] + ([] if leaf == "__init__" else [leaf])
        return ".".join(parts)

    def resolve_module(self, dotted: str) -> ModuleInfo | None:
        """The project module a dotted import path refers to, if linted."""
        if not dotted:
            return None
        exact = self._by_dotted.get(dotted)
        if exact is not None:
            return exact
        suffix = "." + dotted
        for known, module in self._by_dotted.items():
            if known.endswith(suffix):
                return module
        return None

    def find_class(self, name: str, *, near: ModuleInfo | None = None) -> ClassInfo | None:
        """A project class by simple name, preferring the given module."""
        if near is not None:
            local = near.classes.get(name)
            if local is not None:
                return local
            imported = near.imports.get(name)
            if imported is not None:
                owner = self.resolve_module(".".join(imported.split(".")[:-1]))
                if owner is not None and imported.split(".")[-1] in owner.classes:
                    return owner.classes[imported.split(".")[-1]]
        candidates = self._classes_by_name.get(name, [])
        return candidates[0] if candidates else None

    def mro_classes(self, cls: ClassInfo) -> Iterable[ClassInfo]:
        """The class and its resolvable project bases, nearest first."""
        seen: set[int] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if id(current) in seen:
                continue
            seen.add(id(current))
            yield current
            for base in current.base_names:
                resolved = self.find_class(base.split(".")[-1], near=current.module)
                if resolved is not None and id(resolved) not in seen:
                    stack.append(resolved)

    def functions(self) -> Iterable[FunctionInfo]:
        for module in self.modules:
            yield from module.all_functions


def lock_label_of(project: Project, fn: FunctionInfo, expr: ast.expr) -> str | None:
    """Declared label of a lock expression, if it resolves to one."""
    if isinstance(expr, ast.Name):
        scope: FunctionInfo | None = fn
        while scope is not None:
            if expr.id in scope.local_locks:
                return scope.local_locks[expr.id]
            scope = scope.parent
        return fn.module.module_locks.get(expr.id)
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
        and fn.class_info is not None
    ):
        for cls in project.mro_classes(fn.class_info):
            if expr.attr in cls.lock_attrs:
                return cls.lock_attrs[expr.attr]
    return None


def _resolve_call(project: Project, fn: FunctionInfo, call: ast.Call) -> tuple[FunctionInfo | None, bool]:
    """(callee, call-is-on-self) for a call node, best effort."""
    func = call.func
    if isinstance(func, ast.Name):
        scope: FunctionInfo | None = fn
        while scope is not None:
            if func.id in scope.nested:
                return scope.nested[func.id], False
            scope = scope.parent
        target = fn.module.functions.get(func.id)
        if target is not None:
            return target, False
        local_cls = fn.module.classes.get(func.id)
        if local_cls is not None:
            return local_cls.methods.get("__init__"), False
        imported = fn.module.imports.get(func.id)
        if imported is not None:
            owner = project.resolve_module(".".join(imported.split(".")[:-1]))
            leaf = imported.split(".")[-1]
            if owner is not None:
                if leaf in owner.functions:
                    return owner.functions[leaf], False
                if leaf in owner.classes:
                    return owner.classes[leaf].methods.get("__init__"), False
        return None, False
    if not isinstance(func, ast.Attribute):
        return None, False
    owner = func.value
    if isinstance(owner, ast.Name) and owner.id == "self" and fn.class_info is not None:
        for cls in project.mro_classes(fn.class_info):
            if func.attr in cls.methods:
                return cls.methods[func.attr], True
        return None, True
    if isinstance(owner, ast.Name):
        local_cls = fn.module.classes.get(owner.id)
        if local_cls is not None:
            return local_cls.methods.get(func.attr), False
        imported = fn.module.imports.get(owner.id)
        if imported is not None:
            target_module = project.resolve_module(imported)
            if target_module is not None:
                if func.attr in target_module.functions:
                    return target_module.functions[func.attr], False
                if func.attr in target_module.classes:
                    return target_module.classes[func.attr].methods.get("__init__"), False
            owner_module = project.resolve_module(".".join(imported.split(".")[:-1]))
            leaf = imported.split(".")[-1]
            if owner_module is not None and leaf in owner_module.classes:
                return owner_module.classes[leaf].methods.get(func.attr), False
    return None, False


class _BodyWalker:
    """One function body: with-stack tracking plus call resolution."""

    def __init__(self, project: Project, fn: FunctionInfo) -> None:
        self.project = project
        self.fn = fn
        #: lexical with-stack: (source token, resolved label or None)
        self.with_stack: list[tuple[str, str | None]] = []

    # -- the walk ------------------------------------------------------
    def walk(self) -> None:
        for stmt in self.fn.node.body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # walked as their own symbols
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._with(node)
            return
        self._expr_fields(node)
        for field in ("body", "orelse", "finalbody"):
            for child in getattr(node, field, ()):
                self._stmt(child)
        for handler in getattr(node, "handlers", ()):
            for child in handler.body:
                self._stmt(child)

    def _with(self, node: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in node.items:
            ctx = item.context_expr
            self._expr(ctx)
            token = ast.unparse(ctx)
            label = lock_label_of(self.project, self.fn, ctx)
            if label is not None:
                self.fn.acquired_labels.add(label)
                for _, outer_label in self.with_stack:
                    if outer_label is not None and outer_label != label:
                        self.fn.lexical_pairs.append((outer_label, label, node))
            self.with_stack.append((token, label))
            pushed += 1
        for child in node.body:
            self._stmt(child)
        del self.with_stack[-pushed:]

    def _expr_fields(self, node: ast.stmt) -> None:
        for field, value in ast.iter_fields(node):
            if field in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.expr):
                self._expr(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._expr(item)

    def _expr(self, node: ast.expr) -> None:
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._call(child)

    def _call(self, call: ast.Call) -> None:
        fn = self.fn
        callee, on_self = _resolve_call(self.project, fn, call)
        if callee is None:
            return
        site = CallSite(
            caller=fn,
            callee=callee,
            node=call,
            held_labels=tuple(
                label for _, label in self.with_stack if label is not None
            ),
            held_tokens=tuple(token for token, _ in self.with_stack),
            on_self=on_self,
        )
        fn.calls.append(site)
        self.project.call_sites.append(site)
        self.project.callers.setdefault(callee, []).append(site)


def build_project(modules: list[ModuleInfo]) -> Project:
    """Index the modules and walk every function body once."""
    project = Project(modules)
    for fn in list(project.functions()):
        _BodyWalker(project, fn).walk()
    return project
