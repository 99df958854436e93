"""Fixpoint analyses over the call graph: the engine's third pass.

Everything here is deliberately *monotone over missing edges*: the call
graph only contains edges it could prove, so each analysis is shaped so
an unresolved call can at worst hide a finding, never fabricate one.

* :func:`transitive_acquisitions` — per-function set of lock labels
  acquired on any call path, used by R011 to turn "calls ``pool.get``
  while holding the staging lock" into the order pair
  ``(executor-staging, buffer-pool)``.
* :func:`protected_methods` — the greatest-fixpoint reachability check
  behind R010: a method is *protected* when every resolved call site
  either lexically holds the class guard lock or comes from another
  protected method of the same class via ``self``.  Methods nobody
  calls are not protected — they must take the lock themselves.
"""

from __future__ import annotations

from typing import Iterable

from .callgraph import Project
from .symbols import FunctionInfo

__all__ = [
    "protected_methods",
    "transitive_acquisitions",
]


def transitive_acquisitions(project: Project) -> dict[FunctionInfo, set[str]]:
    """Lock labels each function may acquire on some call path."""
    acquired = {fn: set(fn.acquired_labels) for fn in project.functions()}
    changed = True
    while changed:
        changed = False
        for site in project.call_sites:
            callee_set = acquired.get(site.callee)
            if not callee_set:
                continue
            caller_set = acquired[site.caller]
            before = len(caller_set)
            caller_set |= callee_set
            if len(caller_set) != before:
                changed = True
    return acquired


def protected_methods(
    project: Project,
    methods: Iterable[FunctionInfo],
    guard_label: str,
) -> set[FunctionInfo]:
    """Methods reachable *only* with the class guard lock held.

    Greatest fixpoint: start from every method that has at least one
    resolved call site, then strike any method with a call site that
    neither holds ``guard_label`` lexically nor comes from a still-
    protected sibling method through ``self``.  Mutually-recursive
    helpers with no locked entry point survive the fixpoint — a known
    blind spot that only ever *misses* findings, matching the engine's
    no-false-positive contract.
    """
    candidates = {m for m in methods if project.callers.get(m)}
    changed = True
    while changed:
        changed = False
        for method in list(candidates):
            for site in project.callers.get(method, ()):
                if guard_label in site.held_labels:
                    continue
                if (
                    site.on_self
                    and site.caller in candidates
                    and site.caller.class_info is method.class_info
                ):
                    continue
                candidates.discard(method)
                changed = True
                break
    return candidates
