"""R006 — no silent error swallowing; retries go through the policy.

The resilience layer's guarantee is "correct results or a typed error,
never silent garbage".  A bare ``except:`` or an ``except Exception:``
whose body only passes hides the typed
:class:`~repro.storage.errors.StorageError` hierarchy, and a
hand-rolled loop around ``TransientIOError`` bypasses the
:class:`~repro.storage.retry.RetryPolicy` (whose backoff is charged to
the simulated clock) — both make fault handling unauditable.  A
function that references the retry machinery anywhere (pre-scanned on
entry) is treated as policy-driven and may catch ``TransientIOError``
inside its loops.
"""

from __future__ import annotations

import ast

from .base import FileContext, FileRule, register

__all__ = ["SwallowedErrorRule"]

#: names whose presence in a function marks its retry loop as policy-driven
RETRY_POLICY_MARKERS = frozenset(
    {
        "RetryPolicy",
        "DEFAULT_RETRY_POLICY",
        "NO_RETRY",
        "read_page_resilient",
        "charge_backoff",
    }
)


@register
class SwallowedErrorRule(FileRule):
    """Flag swallowed exceptions and policy-free retry loops."""

    rule = "R006"
    summary = "silently swallowed exception or retry loop bypassing RetryPolicy"

    def __init__(self, ctx: FileContext) -> None:
        super().__init__(ctx)
        # loop nesting depth, and whether the innermost function
        # references the retry-policy machinery (pre-scanned on entry so
        # handlers anywhere in the function see the flag)
        self._loop_depth = 0
        self._depth_stack: list[int] = []
        self._retry_marker_stack: list[bool] = [False]

    def _references_retry_policy(self, node: ast.AST) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in RETRY_POLICY_MARKERS:
                return True
            if isinstance(child, ast.Attribute) and child.attr in (
                "delays",
                "retry_policy",
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # scope/loop bookkeeping
    # ------------------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._retry_marker_stack.append(self._references_retry_policy(node))
        self._depth_stack.append(self._loop_depth)
        self._loop_depth = 0

    def depart_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._loop_depth = self._depth_stack.pop()
        self._retry_marker_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.visit_FunctionDef(node)  # type: ignore[arg-type]

    def depart_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.depart_FunctionDef(node)  # type: ignore[arg-type]

    def visit_For(self, node: ast.For) -> None:
        self._loop_depth += 1

    def depart_For(self, node: ast.For) -> None:
        self._loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self._loop_depth += 1

    def depart_While(self, node: ast.While) -> None:
        self._loop_depth -= 1

    # ------------------------------------------------------------------
    # handler inspection
    # ------------------------------------------------------------------
    def _handler_names(self, handler_type: ast.expr | None) -> list[str]:
        """Exception class names a handler catches (last attribute part)."""
        if handler_type is None:
            return []
        exprs = (
            list(handler_type.elts)
            if isinstance(handler_type, ast.Tuple)
            else [handler_type]
        )
        names: list[str] = []
        for expr in exprs:
            if isinstance(expr, ast.Name):
                names.append(expr.id)
            elif isinstance(expr, ast.Attribute):
                names.append(expr.attr)
        return names

    def _swallows(self, body: list[ast.stmt]) -> bool:
        """True when a handler body does nothing but pass/``...``."""
        for stmt in body:
            if isinstance(stmt, ast.Pass):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # ``...`` or a string placeholder
            return False
        return True

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self.emit(
                node,
                "bare `except:` hides the typed StorageError hierarchy; "
                "catch a specific exception class",
            )
            return
        names = self._handler_names(node.type)
        if (
            any(name in ("Exception", "BaseException") for name in names)
            and self._swallows(node.body)
        ):
            self.emit(
                node,
                "`except " + "/".join(names) + ": pass` silently swallows "
                "errors; handle or re-raise a typed exception",
            )
        if (
            "TransientIOError" in names
            and self._loop_depth > 0
            and not self._retry_marker_stack[-1]
        ):
            self.emit(
                node,
                "hand-rolled retry loop around `TransientIOError`; route "
                "retries through `repro.storage.retry.RetryPolicy` so "
                "backoff is bounded and charged to the simulated clock",
            )
