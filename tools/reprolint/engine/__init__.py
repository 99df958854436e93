"""Interprocedural analysis engine behind reprolint's project rules.

The engine runs in three passes over the linted tree:

1. :mod:`.symbols` — per-module symbol tables: classes, functions,
   declared locks (``tracked_lock("name")`` assignments), ``@guarded_by``
   annotations and ``declare_lock_order`` calls.
2. :mod:`.callgraph` — a project-wide call graph.  Each call site
   records the lexical ``with <lock>:`` stack held around it, so later
   passes know which locks are provably held on entry to a callee.
3. :mod:`.dataflow` — fixpoint analyses over the graph: transitive lock
   acquisition sets, the guarded-mutation reachability check (R010) and
   lock-order pair collection (R011).

File-scoped rules (R001–R009, R014–R016) never touch the engine; only
the project rules R010–R011 do, which keeps single-file ``lint_source``
calls exactly as cheap as they were before the engine existed.
"""

from __future__ import annotations

from .callgraph import CallSite, Project, build_project
from .symbols import ClassInfo, FunctionInfo, ModuleInfo, build_module

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "build_module",
    "build_project",
]
