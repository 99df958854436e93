"""Box-cover restriction pushdown: one join input restricts the other.

The Tetris paper gives each *single* relation the touch-once guarantee:
a sweep reads only the Z-region pages overlapping its own query space.
Our Q3/Q4 plans, however, feed the join from two independent sweeps, so
the LINEITEM side still reads every page passing its *local* predicate
even when the ORDERS-side date restriction already rules out almost all
join keys.  "Box Covers and Domain Orderings for Beyond Worst-Case Join
Processing" (PAPERS.md) shows the fix: evaluate the restricted smaller
side first, condense its qualifying join keys into a *cover* of key
intervals, and push that cover into the other side's query space, so
the join inherits the touch-once guarantee across both relations.

This module is the only sanctioned constructor of that cover (reprolint
R016): operators and plans call :func:`pushdown_space` /
:func:`build_key_cover` and receive an
:class:`~repro.core.query_space.IntervalUnionSpace` plus its
:class:`KeyCover` metadata; nothing else in the engine materializes
key-set geometry ad hoc.

Cover construction
------------------
The qualifying keys are sorted, de-duplicated and coalesced into their
natural runs of consecutive values.  When the run count exceeds the
planner's ``budget``, the ``budget - 1`` *largest* gaps between runs
are kept as separators and every smaller gap is absorbed — the cover
stays a superset of the key set (pushdown must never drop a real join
match; absorbed gaps only make it less selective).  ``budget=1``
degenerates to the convex hull ``[min, max]``, the documented fallback
when keys are scattered (an uncorrelated key/date instance: see
docs/JOINS.md).  Under a *domain ordering* that correlates the join
key with the restricted attribute, the same construction collapses to
a handful of intervals and whole Z-regions of the probe side fall out
of the sweep (counted by ``TetrisStats.pages_skipped_by_pushdown``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from ..core.query_space import IntervalUnionSpace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.table import UBTable

__all__ = [
    "DEFAULT_COVER_BUDGET",
    "KeyCover",
    "build_key_cover",
    "pushdown_space",
]

#: default interval budget: small enough that the eager heap's per-region
#: pushdown test stays O(log budget), large enough that realistic
#: correlated instances never hit the hull fallback
DEFAULT_COVER_BUDGET = 64


@dataclass(frozen=True)
class KeyCover:
    """A bounded interval cover of a qualifying join-key set."""

    intervals: tuple[tuple[int, int], ...]  #: sorted disjoint encoded runs
    key_count: int  #: distinct qualifying keys covered
    natural_runs: int  #: consecutive-value runs before budgeting
    budget: int  #: planner-chosen maximum interval count

    @property
    def is_hull(self) -> bool:
        """True when budgeting collapsed the cover to one interval."""
        return len(self.intervals) == 1 and self.natural_runs > 1


def build_key_cover(keys: Iterable[int], budget: int) -> KeyCover:
    """Condense encoded key values into at most ``budget`` intervals.

    The cover is always a superset of ``keys``: coalescing keeps every
    key inside some interval, and budgeting only merges intervals
    (absorbing the gaps between them).  Separator selection is
    deterministic — the ``budget - 1`` largest gaps win, earliest gap
    first on ties — so the same key set always produces the same cover.
    """
    if budget < 1:
        raise ValueError("cover budget must be >= 1")
    distinct = sorted(set(int(key) for key in keys))
    runs: list[tuple[int, int]] = []
    for key in distinct:
        if runs and key == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], key)
        else:
            runs.append((key, key))
    natural_runs = len(runs)
    if len(runs) > budget:
        # keep the budget-1 widest gaps as separators, absorb the rest
        gaps = sorted(
            range(len(runs) - 1),
            key=lambda index: (-(runs[index + 1][0] - runs[index][1]), index),
        )
        separators = sorted(gaps[: budget - 1])
        merged: list[tuple[int, int]] = []
        start = 0
        for separator in separators + [len(runs) - 1]:
            merged.append((runs[start][0], runs[separator][1]))
            start = separator + 1
        runs = merged
    return KeyCover(
        intervals=tuple(runs),
        key_count=len(distinct),
        natural_runs=natural_runs,
        budget=budget,
    )


def pushdown_space(
    table: "UBTable",
    attr: str,
    keys: Iterable[Any],
    *,
    budget: int = DEFAULT_COVER_BUDGET,
) -> tuple[IntervalUnionSpace, KeyCover]:
    """The pushdown restriction on ``table.attr`` covering ``keys``.

    ``keys`` are attribute *values* from the already-evaluated join
    side (e.g. the o_orderkey column of the date-restricted ORDERS
    stream); they are encoded with the target attribute's own encoder,
    covered within ``budget`` intervals, and returned as an exact
    :class:`~repro.core.query_space.IntervalUnionSpace` ready to be
    passed as ``pushdown=`` to a Tetris scan, together with the cover
    metadata the planner and benches report.

    An empty key set produces an empty space — the sweep then reads
    nothing, which is the correct join result.
    """
    if attr not in table.dims:
        raise ValueError(f"pushdown attribute {attr!r} is not an index dimension")
    encoder = table.schema.attribute(attr).encoder
    cover = build_key_cover((encoder.encode(key) for key in keys), budget)
    space = IntervalUnionSpace(
        table.space.coord_max, table.dims.index(attr), cover.intervals
    )
    return space, cover
