"""Output-stream invariants of the Tetris sweep and of its rival sort.

Theorem-level contract of Section 3: the Tetris algorithm delivers
exactly the qualifying tuples, in nondecreasing order of the sort
attribute(s).  The
:class:`StreamChecker` observes every emitted tuple and raises on the
first violation — which localizes a corruption to the page or slice
that produced it instead of letting it surface as a wrong query answer
much later.  :class:`MergeChecker` holds the external sort's merges to
the same order, and to the keys its runs carry.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.query_space import QuerySpace


class StreamChecker:
    """Validates one Tetris output stream tuple-by-tuple."""

    __slots__ = ("sort_dims", "space", "_admits", "_previous", "_count")

    def __init__(self, sort_dims: Sequence[int], space: "QuerySpace") -> None:
        from .. import kernels

        self.sort_dims = tuple(sort_dims)
        self.space = space
        # membership by the pure kernel, the reference for every space
        self._admits = kernels.backend("python").filter_space_batch
        self._previous: tuple[int, ...] | None = None
        self._count = 0

    def observe(self, point: Sequence[int]) -> None:
        """Check the next emitted tuple's point against the contract."""
        self._count += 1
        check(
            bool(self._admits(self.space, (point,))),
            f"Tetris emitted tuple #{self._count} at {tuple(point)}, which "
            "is outside the query space",
        )
        key = tuple(point[dim] for dim in self.sort_dims)
        previous = self._previous
        if previous is not None:
            check(
                key >= previous,
                f"Tetris output not nondecreasing in the sort dimension(s) "
                f"{self.sort_dims}: tuple #{self._count} has key {key} after "
                f"{previous}",
            )
        self._previous = key


class MergeChecker:
    """Validates one merge of the external sort, chunk by chunk.

    A run carries its sorted keys beside its pages, and the merge orders
    rows by those keys without calling the sort key again.  The checker
    keeps that call: every chunk read must carry exactly the keys
    ``key(row)`` gives the rows actually read, and the merged stream
    must run in ``(key, run, position)`` order — keys nondecreasing,
    equal keys by run, then by position in the run.
    """

    __slots__ = ("key", "_previous", "_count")

    def __init__(self, key: Callable[[Any], Any]) -> None:
        self.key = key
        self._previous: tuple[Any, int, int] | None = None
        self._count = 0

    def observe_chunk(self, rows: Sequence[Any], keys: Sequence[Any]) -> None:
        """Check a chunk's stored key column against its rows' keys."""
        derived = [self.key(row) for row in rows]
        check(
            list(keys) == derived,
            f"a run chunk of {len(rows)} rows carries {len(keys)} stored "
            "keys that differ from the keys of the rows read",
        )

    def observe_step(
        self,
        starts: Sequence[int],
        taken: Sequence[int],
        order: Sequence[int],
        keys: Sequence[Any],
    ) -> None:
        """Check one merge step: ``taken[i]`` rows of run ``i`` from run
        position ``starts[i]`` on, emitted in ``order`` with ``keys``."""
        origins = [
            (run, start + offset)
            for run, (start, count) in enumerate(zip(starts, taken))
            for offset in range(count)
        ]
        previous = self._previous
        for key, index in zip(keys, order):
            self._count += 1
            run, position = origins[index]
            if previous is not None:
                last, last_run, last_position = previous
                check(
                    not key < last,
                    f"merged row #{self._count} (run {run}, position "
                    f"{position}) has key {key!r} after {last!r}",
                )
                if not (key < last or last < key):
                    check(
                        (run, position) > (last_run, last_position),
                        f"merged row #{self._count} ties key {key!r} but comes "
                        f"from run {run} position {position}, after run "
                        f"{last_run} position {last_position}",
                    )
            previous = (key, run, position)
        self._previous = previous
