"""R004 — kernel backend parity.

Every public method of :class:`repro.kernels.base.KernelBackend` must
be overridden by *both* concrete backends, so "observationally
identical" stays checkable method-by-method and a new primitive cannot
silently fall through to a partial implementation.  Unlike the file
rules this is a cross-file check over a ``kernels/`` package directory,
so it exposes :func:`check_backend_parity` instead of AST visitors; the
registry entry exists so the rule shows up in ``--list-rules``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..violations import Violation
from .base import ProjectRule, register

__all__ = ["BackendParityRule", "check_backend_parity"]


#: the classes a backend class derives from
_BACKEND_BASES = frozenset({"KernelBackend", "PurePythonBackend"})


def _methods(node: ast.ClassDef) -> dict[str, int]:
    """Directly-defined method names (with line) of one class."""
    return {
        item.name: item.lineno
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _class_methods(tree: ast.Module, class_name: str) -> dict[str, int]:
    """Directly-defined method names (with line) of ``class_name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return _methods(node)
    return {}


def _base_name(base: ast.expr) -> str:
    if isinstance(base, ast.Attribute):
        return base.attr
    return base.id if isinstance(base, ast.Name) else ""


def _backend_class(tree: ast.Module) -> ast.ClassDef | None:
    """The module's backend class: the first deriving from
    ``KernelBackend`` or ``PurePythonBackend``.  Helper classes (run
    buffers, page views) are not backends, so a method they define
    does not count."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            _base_name(base) in _BACKEND_BASES for base in node.bases
        ):
            return node
    return None


def check_backend_parity(kernels_dir: Path) -> list[Violation]:
    """R004 over one ``kernels/`` package directory.

    Public methods declared on ``KernelBackend`` in ``base.py`` must be
    overridden (defined directly) by the backend class in ``pure.py``
    and the one in ``numpy_backend.py`` — the class deriving from
    ``KernelBackend`` or ``PurePythonBackend``, not a helper beside it.
    """
    base_path = kernels_dir / "base.py"
    if not base_path.is_file():
        return []
    base_tree = ast.parse(base_path.read_text(encoding="utf-8"))
    interface = {
        name: line
        for name, line in _class_methods(base_tree, "KernelBackend").items()
        if not name.startswith("_")
    }
    if not interface:
        return []
    violations: list[Violation] = []
    for backend_file in ("pure.py", "numpy_backend.py"):
        backend_path = kernels_dir / backend_file
        if not backend_path.is_file():
            violations.append(
                Violation(
                    str(base_path),
                    1,
                    0,
                    "R004",
                    f"kernel backend module `{backend_file}` is missing; "
                    "both backends must implement the full interface",
                )
            )
            continue
        backend = _backend_class(ast.parse(backend_path.read_text(encoding="utf-8")))
        if backend is None:
            violations.append(
                Violation(
                    str(backend_path),
                    1,
                    0,
                    "R004",
                    f"`{backend_file}` defines no class deriving from "
                    "`KernelBackend` or `PurePythonBackend`",
                )
            )
            continue
        class_name, implemented = backend.name, _methods(backend)
        for method, line in sorted(interface.items()):
            if method not in implemented:
                violations.append(
                    Violation(
                        str(backend_path),
                        backend.lineno,
                        0,
                        "R004",
                        f"backend class `{class_name}` does not override "
                        f"`KernelBackend.{method}` (declared at base.py:"
                        f"{line}); both backends must stay observationally "
                        "identical method-by-method",
                    )
                )
    return violations


@register
class BackendParityRule(ProjectRule):
    """Registry entry for R004; the driver calls the directory check."""

    rule = "R004"
    summary = "KernelBackend method not overridden by both kernel backends"

    def run(self, project: "object") -> list[Violation]:  # pragma: no cover
        return []  # driven per-directory by ``check_backend_parity``
