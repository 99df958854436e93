"""``census``: which engine functions does no entry point execute?

The engine keeps a function only if something outside ``tests/`` runs
it.  This tool measures that.  It runs every entry point CI runs:

* ``benchmarks/harness/run.py --quick`` and ``--quick --trace 1``;
* the paper-shape benches (``pytest benchmarks --ignore=benchmarks/harness``);
* ``bench_cpu_kernels.py``, ``bench_shard.py`` and ``bench_join.py``
  with ``--quick``;
* the seven ``tools.chaos`` invocations and ``tools.crashgrid --points``,
  each with ``REPRO_CHECKS`` off and on (both sweep every available
  kernel backend themselves);
* every ``examples/*.py``.

Each runs in its own process with ``sys.settrace`` and
``threading.settrace`` installed by a generated ``sitecustomize.py`` on
``PYTHONPATH``, so the subprocesses an entry point spawns (the
harness's one-per-workload runs) and the threads it starts (the slab
executor's) are counted too.  The tracer records the first line of
every code object it sees under the package; a function defined in the
package whose first line no run recorded is *unexecuted*.  Functions
whose body is only ``raise NotImplementedError`` or ``...`` are
abstract and never listed.

Usage (from the repository root, NumPy installed)::

    python -m tools.census               # rewrite docs/CENSUS.txt
    python -m tools.census --check       # exit 1 if the list gained a line
    python -m tools.census --workload W  # what `run.py --quick --workload W` runs

``docs/CENSUS.txt`` holds the unexecuted functions as sorted
``path:qualname`` lines.  A property's setter or deleter is named
``qualname.setter`` / ``qualname.deleter``, apart from its getter; any
other def that repeats a qualname in its file gets ``#2``, ``#3``, ...
in file order.  ``--check`` fails only when a line would be
*added*: a new function nothing runs, or an old one whose last caller
went.  A listed function that was deleted, or that an entry point now
runs, passes; regenerating the file drops its line.

``--workload W`` prints the functions one harness workload executes,
set-up and oracle included.  That is a superset of its timed path,
which is the safe direction for a "this workload never runs the
changed code" argument.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

__all__ = ["main"]

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
CENSUS_FILE = REPO / "docs" / "CENSUS.txt"
HARNESS = "benchmarks/harness/run.py"

#: ``python -m`` runs made once per checks mode: the seven chaos
#: invocations CI runs (and ``tests/chaos`` pins) and the crash grid
CHECKED_RUNS: tuple[tuple[str, ...], ...] = (
    ("tools.chaos",),
    ("tools.chaos", "--replicas", "2"),
    ("tools.chaos", "--write"),
    ("tools.chaos", "--prefetch"),
    ("tools.chaos", "--shards", "4"),
    ("tools.chaos", "--join"),
    ("tools.chaos", "--txn"),
    ("tools.crashgrid", "--points"),
)

#: engine switches cleared before every run, so each entry point starts
#: in its own default mode and sets only what its ``Entry.env`` names
CLEARED_ENV = ("REPRO_CHECKS", "REPRO_KERNEL_BACKEND")

HEADER = """\
# Functions under src/repro that no entry point executes: the harness
# (--quick, --quick --trace 1), the paper-shape benches, the three bench
# scripts, chaos + crashgrid with checks off and on, and examples/*.py.
# Written by `python -m tools.census`; CI fails if a line is added.
"""

#: the generated ``sitecustomize.py``: one global trace function that
#: records each package code object's first line and asks for no
#: line-level tracing; the set is appended to a per-process file at exit
TRACER = """\
import atexit
import os
import sys
import threading

_ROOTS = {roots!r}
_OUT = {out!r}
_seen = set()


def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_ROOTS):
        _seen.add((code.co_filename, code.co_firstlineno))


def _dump():
    sys.settrace(None)
    path = os.path.join(_OUT, "trace-%d.txt" % os.getpid())
    with open(path, "a", encoding="utf-8") as handle:
        for filename, line in list(_seen):  # a late thread may still add
            handle.write("%s\\t%d\\n" % (filename, line))


sys.settrace(_trace)
threading.settrace(_trace)
atexit.register(_dump)
"""

#: (resolved file path, first line of the code object)
Key = tuple[str, int]


class CensusError(RuntimeError):
    """An entry point failed, so its census would be incomplete."""


@dataclass(frozen=True)
class Entry:
    """One traced run: a label for progress lines, argv, and extra env."""

    label: str
    argv: tuple[str, ...]
    env: dict[str, str] = field(default_factory=dict)


def default_entries(scratch: Path) -> list[Entry]:
    """Every entry point CI runs; bench reports are written to ``scratch``."""
    if importlib.util.find_spec("numpy") is None:
        raise CensusError(
            "the census needs NumPy: without it the numpy kernel "
            "backend never runs and all of it would be listed"
        )
    python = sys.executable
    entries = [
        Entry("run.py --quick", (python, HARNESS, "--quick")),
        Entry(
            "run.py --quick --trace 1",
            (python, HARNESS, "--quick", "--trace", "1"),
        ),
        Entry(
            "paper-shape benches",
            (python, "-m", "pytest", "benchmarks", "--ignore=benchmarks/harness")
            + ("-q", "--benchmark-disable", "-p", "no:cacheprovider"),
        ),
    ]
    for script, extra in (
        ("bench_cpu_kernels", ()),
        ("bench_shard", ()),
        ("bench_join", ("--assert-pushdown",)),
    ):
        report = str(scratch / f"{script}.json")
        argv = (python, f"benchmarks/{script}.py", "--quick", *extra)
        entries.append(Entry(f"{script}.py --quick", (*argv, "--output", report)))
    for checks in ("0", "1"):
        mode = {"REPRO_CHECKS": checks}
        for run in CHECKED_RUNS:
            label = " ".join((*run, f"(checks {checks})"))
            entries.append(Entry(label, (python, "-m", *run), mode))
    for example in sorted((REPO / "examples").glob("*.py")):
        path = example.relative_to(REPO).as_posix()
        entries.append(Entry(path, (python, path)))
    return entries


def workload_entry(workload: str) -> Entry:
    """The one untraced harness workload run ``--workload`` censuses."""
    return Entry(
        f"run.py --quick --workload {workload}",
        (sys.executable, HARNESS, "--quick", "--workload", workload),
    )


# ----------------------------------------------------------------------
# what the package defines
# ----------------------------------------------------------------------
def _is_abstract(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Body (after an optional docstring) is ``raise NotImplementedError``
    or ``...``: a declaration, not behaviour."""
    body = node.body
    if (
        len(body) > 1
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]
    if len(body) != 1:
        return False
    (statement,) = body
    if isinstance(statement, ast.Expr):
        value = statement.value
        return isinstance(value, ast.Constant) and value.value is ...
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc
        if isinstance(raised, ast.Call):
            raised = raised.func
        return isinstance(raised, ast.Name) and raised.id == "NotImplementedError"
    return False


def _functions(
    node: ast.AST, prefix: str
) -> Iterator[tuple[int, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(first line, qualname, def)`` of every def under ``node``; a
    property's setter and deleter carry a ``.setter`` / ``.deleter``
    suffix, so they are not named like its getter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            for decorator in child.decorator_list:
                if (
                    isinstance(decorator, ast.Attribute)
                    and decorator.attr in ("setter", "deleter")
                    and isinstance(decorator.value, ast.Name)
                    and decorator.value.id == child.name
                ):
                    qualname += "." + decorator.attr
            # a decorated function's code object starts at its first decorator
            first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            yield first, qualname, child
            yield from _functions(child, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:  # defs under if/try/with keep the enclosing prefix
            yield from _functions(child, prefix)


def defined_functions(package: Path, root: Path) -> dict[Key, str]:
    """Every concrete function under ``package`` -> ``path:qualname``
    (``path`` relative to ``root``); a qualname already used in the same
    file gets ``#2``, ``#3``, ... in file order, so every name is one def."""
    found: dict[Key, str] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        resolved = os.path.realpath(path)
        relative = path.relative_to(root).as_posix()
        uses: Counter[str] = Counter()
        for first, qualname, node in _functions(tree, ""):
            uses[qualname] += 1
            if uses[qualname] > 1:
                qualname += f"#{uses[qualname]}"
            if not _is_abstract(node):
                found[(resolved, first)] = f"{relative}:{qualname}"
    return found


# ----------------------------------------------------------------------
# what the entry points run
# ----------------------------------------------------------------------
def run_entries(
    entries: Sequence[Entry], package: Path, root: Path, scratch: Path
) -> set[Key]:
    """Run each entry traced (cwd ``root``); the package code lines seen.

    Raises :class:`CensusError` when an entry exits non-zero: a failed
    run stops early, and what it never reached would be miscounted as
    dead code.
    """
    site = scratch / "site"
    out = scratch / "out"
    site.mkdir()
    out.mkdir()
    spellings = {str(package), os.path.realpath(package)}
    roots = tuple(sorted(spelling + os.sep for spelling in spellings))
    (site / "sitecustomize.py").write_text(
        TRACER.format(roots=roots, out=str(out)), encoding="utf-8"
    )
    base = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    inherited = base.get("PYTHONPATH")
    base["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(package.parent), *([inherited] if inherited else [])]
    )
    for number, entry in enumerate(entries, 1):
        print(f"census: [{number}/{len(entries)}] {entry.label}", file=sys.stderr)
        done = subprocess.run(
            entry.argv,
            cwd=root,
            env={**base, **entry.env},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if done.returncode != 0:
            tail = "\n".join(done.stdout.splitlines()[-40:])
            raise CensusError(
                f"{entry.label} exited {done.returncode}; its census would be "
                f"incomplete.  Last output:\n{tail}"
            )
    seen: set[Key] = set()
    for dump in out.glob("trace-*.txt"):
        for line in dump.read_text(encoding="utf-8").splitlines():
            filename, first = line.rsplit("\t", 1)
            seen.add((os.path.realpath(filename), int(first)))
    return seen


def unexecuted(defined: dict[Key, str], executed: set[Key]) -> list[str]:
    """Sorted ``path:qualname`` of every defined function no run entered."""
    return sorted({name for key, name in defined.items() if key not in executed})


def _read_census(path: Path) -> set[str]:
    if not path.exists():
        return set()
    lines = path.read_text(encoding="utf-8").splitlines()
    return {line for line in lines if line and not line.startswith("#")}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.census",
        description="list the package functions no entry point executes",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--check",
        action="store_true",
        help="compare with the census file instead of rewriting it; "
        "exit 1 if a line would be added",
    )
    mode.add_argument(
        "--workload",
        metavar="W",
        help="print the functions `run.py --quick --workload W` executes",
    )
    options = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        scratch = Path(tmp)
        try:
            if options.workload:
                entries = [workload_entry(options.workload)]
            else:
                entries = default_entries(scratch)
            executed = run_entries(entries, PACKAGE, REPO, scratch)
        except CensusError as error:
            print(f"census: {error}", file=sys.stderr)
            return 2

    defined = defined_functions(PACKAGE, REPO)
    if options.workload:
        ran = {name for key, name in defined.items() if key in executed}
        print("\n".join(sorted(ran)))
        return 0
    current = unexecuted(defined, executed)
    print(
        f"census: {len(current)} of {len(defined)} functions under "
        f"{PACKAGE.relative_to(REPO).as_posix()} are run by no entry point",
        file=sys.stderr,
    )
    if not options.check:
        lines = "".join(f"{name}\n" for name in current)
        CENSUS_FILE.write_text(HEADER + lines, encoding="utf-8")
        return 0
    listed = _read_census(CENSUS_FILE)
    added = [name for name in current if name not in listed]
    gone = listed.difference(current)
    if gone:
        print(
            f"census: {len(gone)} listed function(s) were deleted or now run; "
            "`python -m tools.census` drops their lines",
            file=sys.stderr,
        )
    if added:
        print(
            f"census: {len(added)} function(s) no entry point runs are not in "
            f"{CENSUS_FILE.name}:",
            file=sys.stderr,
        )
        for name in added:
            print(f"  {name}", file=sys.stderr)
        print(
            "Give each a caller outside tests/ (tied to a paper claim, a "
            "workload or an invariant) or delete it.",
            file=sys.stderr,
        )
        return 1
    return 0
