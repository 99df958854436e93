"""R012/R013 — fork discipline for the slab-parallel executor.

``R012``: no fork after threads are spawned on any call path.  A
``fork()`` while worker threads are live copies the parent's memory
mid-flight: locks held by non-forked threads stay locked forever in
the child, and the child inherits half-updated shared structures.  The
rule walks every function's statements in order with the engine's
:class:`~tools.reprolint.engine.dataflow.SequenceWalker`, carrying a
"threads may be live" flag through resolved calls; ``if`` branches are
unsequenced alternatives, loop bodies are walked twice (a spawn in
iteration *n* precedes a fork in iteration *n+1*), and with-scoped
``ThreadPoolExecutor`` blocks reset the flag at exit because the
context manager joins its workers.

``R013``: objects handed to worker processes must be fork-safe.  The
fork-side executor ships only *work descriptions* (slab indexes) to
children — everything heavy rides copy-on-write globals.  Every
callable handed to a process pool
(``pool.map``/``submit``/``apply_async``/...) must therefore resolve to
a module-level function marked ``@fork_safe`` (the audited whitelist of
entry points whose closure state is re-derivable in the child).
Lambdas, bound methods and nested closures are rejected: they drag
unpicklable or unshared state across the process boundary.
"""

from __future__ import annotations

import ast

from ..engine.callgraph import Project
from ..engine.dataflow import SequenceWalker, transitive_flag
from ..engine.symbols import FunctionInfo
from ..violations import Violation
from .base import ProjectRule, register

__all__ = ["ForkAfterSpawnRule", "ForkShipWhitelistRule"]


@register
class ForkAfterSpawnRule(ProjectRule):
    """R012: flag forks reachable after thread spawns, across calls."""

    rule = "R012"
    summary = "process fork on a call path where threads were already spawned"

    def run(self, project: Project) -> list[Violation]:
        spawners = transitive_flag(
            project,
            lambda fn: any(
                id(node) not in fn.scoped_spawns for node in fn.spawn_nodes
            ),
        )
        forkers = transitive_flag(project, lambda fn: bool(fn.fork_nodes))
        violations: list[Violation] = []
        for fn in project.functions():
            walker = SequenceWalker(fn, spawners, forkers)
            walker.walk()
            for call in walker.violations:
                violations.append(
                    Violation(
                        fn.module.path,
                        call.lineno,
                        call.col_offset,
                        self.rule,
                        f"`{ast.unparse(call.func)}` forks the process after "
                        "threads may have been spawned on this path; forked "
                        "children inherit the spawning thread only, so locks "
                        "held by other threads stay locked forever in the "
                        "child — finish all forking before spawning threads",
                    )
                )
        return violations


@register
class ForkShipWhitelistRule(ProjectRule):
    """R013: process pools may only run module-level @fork_safe functions."""

    rule = "R013"
    summary = "non-fork-safe callable handed to a worker process pool"

    def run(self, project: Project) -> list[Violation]:
        violations: list[Violation] = []
        for fn in project.functions():
            for call, payload in fn.ship_sites:
                problem = self._vet(project, fn, payload)
                if problem is not None:
                    violations.append(
                        Violation(
                            fn.module.path,
                            call.lineno,
                            call.col_offset,
                            self.rule,
                            problem,
                        )
                    )
        return violations

    def _resolve_payload(
        self, project: Project, fn: FunctionInfo, payload: ast.expr
    ) -> FunctionInfo | None:
        if not isinstance(payload, ast.Name):
            return None
        scope: FunctionInfo | None = fn
        while scope is not None:
            if payload.id in scope.nested:
                return scope.nested[payload.id]
            scope = scope.parent
        target = fn.module.functions.get(payload.id)
        if target is not None:
            return target
        imported = fn.module.imports.get(payload.id)
        if imported is not None:
            owner = project.resolve_module(".".join(imported.split(".")[:-1]))
            if owner is not None:
                return owner.functions.get(imported.split(".")[-1])
        return None

    def _vet(
        self, project: Project, fn: FunctionInfo, payload: ast.expr
    ) -> str | None:
        """A violation message, or ``None`` when the payload is whitelisted."""
        text = ast.unparse(payload)
        if isinstance(payload, ast.Lambda):
            return (
                "a lambda is handed to a worker process pool; only "
                "module-level functions marked @fork_safe may cross the "
                "process boundary (lambdas drag closure state that is "
                "neither picklable nor shared)"
            )
        if isinstance(payload, ast.Attribute):
            return (
                f"`{text}` (a bound method or attribute lookup) is handed to "
                "a worker process pool; only module-level functions marked "
                "@fork_safe may cross the process boundary — a bound method "
                "ships its whole instance by value"
            )
        target = self._resolve_payload(project, fn, payload)
        if target is None:
            return (
                f"`{text}` cannot be resolved to a module-level @fork_safe "
                "function; everything handed to a worker process pool must "
                "be on the audited fork-safe whitelist"
            )
        if target.class_info is not None or target.parent is not None:
            return (
                f"`{text}` is not module-level (nested functions and methods "
                "capture state the forked child cannot see consistently); "
                "hand the pool a module-level @fork_safe function"
            )
        if not target.fork_safe:
            return (
                f"`{text}` is not marked @fork_safe; decorate it (after "
                "auditing that its inputs are slab indexes and its page "
                "access rides COW) or route the work through "
                "the sanctioned executor"
            )
        return None
