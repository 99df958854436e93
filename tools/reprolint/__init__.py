"""``reprolint``: project-specific static analysis for the Tetris engine.

The reproduction's correctness rests on a handful of cross-layer
contracts that generic linters cannot see.  ``reprolint`` walks the
Python ASTs under ``src/repro`` and mechanically enforces them:

``R001`` — no wall-clock time inside the engine.
``R002`` — no per-tuple Python loops over page records in hot paths.
``R003`` — every mutation of ``Page.records`` pairs with a ``version`` bump.
``R004`` — kernel backend parity.
``R005`` — no bare ``assert`` guarding data-dependent invariants.
``R006`` — no silent error swallowing; retries go through the policy.
``R007`` — engine code must not mutate the disk behind an armed WAL.
``R008`` — engine code must read data pages through the pool/scheduler.
``R009`` — no process, serialization or thread-pool machinery in the engine.
``R010`` — guarded shared state is only mutated with its lock reachable.
``R011`` — lock acquisitions respect the single declared global order.
``R012``, ``R013`` — retired with the process executor (fork discipline).
``R014`` — cross-shard engine access goes through the shard coordinator.
``R015`` — 2PC participant mutations go through the transaction coordinator.
``R016`` — pushdown interval covers are built only by ``planner/pushdown.py``.

Each rule's contract and rationale live in its module under
:mod:`tools.reprolint.rules`.  R001–R009 and R014–R016 are single-file
rules sharing one AST traversal per file; R010–R011 are interprocedural,
driven by
the symbol-table/call-graph/dataflow engine in
:mod:`tools.reprolint.engine` over the whole linted tree at once.

A finding can be suppressed by putting ``# reprolint: allow(R00X)`` (or
a blanket ``# reprolint: allow``) on the offending line.

Usage: ``python -m tools.reprolint src/repro`` — exits non-zero when any
violation is found.  ``--json`` emits a machine-readable report;
``--github`` emits GitHub Actions ``::error`` annotations.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .engine import ModuleInfo, build_module, build_project
from .rules import (
    Dispatcher,
    FileContext,
    all_rule_summaries,
    check_backend_parity,
    file_rules,
    project_rules,
)
from .rules.hotloops import HOT_PATH_FILES, is_hot_path
from .violations import Violation, suppressed as _suppressed

__all__ = [
    "ALL_RULES",
    "HOT_PATH_FILES",
    "Violation",
    "lint_paths",
    "lint_source",
    "main",
]

#: rule id -> one-line summary, R001 first
ALL_RULES: dict[str, str] = dict(sorted(all_rule_summaries().items()))


def _run_file_rules(tree: ast.Module, path: str, hot_path: bool) -> list[Violation]:
    """One shared traversal feeding every registered file rule."""
    ctx = FileContext(path, hot_path)
    rules = [rule_cls(ctx) for rule_cls in file_rules()]
    Dispatcher(rules).walk(tree)
    for rule in rules:
        rule.finish()
    return ctx.violations


def lint_source(
    source: str, path: str = "<string>", *, hot_path: bool | None = None
) -> list[Violation]:
    """Lint one file's source with the per-file rules (R001/2/3/5-9)."""
    if hot_path is None:
        hot_path = is_hot_path(Path(path).as_posix())
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Violation(
                path, error.lineno or 1, error.offset or 0, "E999", str(error.msg)
            )
        ]
    violations = _run_file_rules(tree, path, hot_path)
    lines = source.splitlines()
    return [v for v in violations if not _suppressed(lines, v)]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _python_files(root: Path) -> Iterator[Path]:
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    yield from sorted(root.rglob("*.py"))


def lint_paths(paths: Iterable[str | Path]) -> list[Violation]:
    """Lint every Python file under ``paths``; returns all findings.

    Runs the per-file rules on each file, the backend-parity check R004
    on every ``kernels/`` package found, and the interprocedural project
    rules R010–R011 over all parseable files together.
    """
    violations: list[Violation] = []
    kernels_dirs: set[Path] = set()
    modules: list[ModuleInfo] = []
    for raw in paths:
        root = Path(raw)
        if not root.exists():
            raise FileNotFoundError(f"no such path: {root}")
        for path in _python_files(root):
            source = path.read_text(encoding="utf-8")
            name = str(path)
            try:
                tree = ast.parse(source, filename=name)
            except SyntaxError as error:
                violations.append(
                    Violation(
                        name,
                        error.lineno or 1,
                        error.offset or 0,
                        "E999",
                        str(error.msg),
                    )
                )
                continue
            lines = source.splitlines()
            violations.extend(
                v
                for v in _run_file_rules(tree, name, is_hot_path(path.as_posix()))
                if not _suppressed(lines, v)
            )
            modules.append(build_module(name, source, tree))
            if path.name == "base.py" and path.parent.name == "kernels":
                kernels_dirs.add(path.parent)
    for kernels_dir in sorted(kernels_dirs):
        violations.extend(check_backend_parity(kernels_dir))
    if modules:
        project = build_project(modules)
        lines_by_path = {module.path: module.source_lines for module in modules}
        for rule_cls in project_rules():
            for violation in rule_cls().run(project):
                lines = lines_by_path.get(violation.path, [])
                if not _suppressed(lines, violation):
                    violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


def _print_github(violations: list[Violation]) -> None:
    for violation in violations:
        print(
            f"::error file={violation.path},line={violation.line},"
            f"col={violation.col},title=reprolint {violation.rule}::"
            f"{violation.message}"
        )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Project-specific static analysis for the Tetris engine.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories to lint"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON document instead of text",
    )
    output.add_argument(
        "--github",
        action="store_true",
        help="emit findings as GitHub Actions ::error annotations",
    )
    options = parser.parse_args(argv)
    if options.list_rules:
        for rule, summary in sorted(ALL_RULES.items()):
            print(f"{rule}: {summary}")
        return 0
    violations = lint_paths(options.paths)
    if options.json:
        print(
            json.dumps(
                {
                    "violations": [v.as_dict() for v in violations],
                    "count": len(violations),
                },
                indent=2,
            )
        )
        return 1 if violations else 0
    if options.github:
        _print_github(violations)
        if violations:
            print(f"reprolint: {len(violations)} violation(s) found")
            return 1
        print("reprolint: clean")
        return 0
    for violation in violations:
        print(violation)
    if violations:
        print(f"reprolint: {len(violations)} violation(s) found")
        return 1
    print("reprolint: clean")
    return 0
