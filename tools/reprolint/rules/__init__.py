"""The reprolint rule catalogue.

Importing this package registers every rule with the central registry in
:mod:`.base` — file rules R001–R003, R005–R009 and R014–R016, the cross-file
backend-parity check R004, and the interprocedural project rules
R010–R011 driven by :mod:`tools.reprolint.engine`.  R012 and R013 (fork
discipline) were retired with the process executor; their numbers are
not re-used.

Each rule lives in its own module with a docstring explaining the
contract it enforces and why violating it corrupts the reproduction.
Registration order never affects output: the drivers sort findings and
the rule catalogue by rule id.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for their registration side effect)
    asserts,
    durability,
    guards,
    hotloops,
    ipc,
    lockorder,
    pagecache,
    parity,
    pushdown,
    resilience,
    sharding,
    txn,
    wallclock,
)
from .base import (
    Dispatcher,
    FileContext,
    FileRule,
    ProjectRule,
    all_rule_summaries,
    file_rules,
    project_rules,
)
from .ipc import R009_SANCTIONED_MODULES
from .parity import check_backend_parity

__all__ = [
    "Dispatcher",
    "FileContext",
    "FileRule",
    "ProjectRule",
    "R009_SANCTIONED_MODULES",
    "all_rule_summaries",
    "check_backend_parity",
    "file_rules",
    "project_rules",
]
