"""Cross-backend kernel parity spot checks.

The kernel contract (:mod:`repro.kernels.base`) demands the NumPy and
pure-Python backends be **observationally identical**.  The test suite
asserts this over randomized workloads; with ``REPRO_CHECKS=1`` the
engine additionally re-runs every page kernel it actually executes on
the *other* backend and compares results in place — so a divergence
(say, a stale columnar cache after a missed ``Page.version`` bump)
raises at the exact page that produced it.  Batched region schedules
get the same treatment against the scalar definitions they replace
(:class:`ScheduleChecker`), and so do the keys a sweep hands out with
its slices (:class:`SliceChecker`).
"""

from __future__ import annotations

from typing import Any, Sequence, TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.curves import Curve
    from ..core.query_space import QuerySpace
    from ..core.region import ZRegion
    from ..core.zorder import ZSpace
    from ..kernels.base import KernelBackend
    from ..storage.page import Page

_PageResult = tuple[int, Sequence[int], Sequence[Sequence[int]]]


def _normalize(result: _PageResult) -> tuple[int, list[int], list[list[int]]]:
    count, selected, entries = result
    return (
        int(count),
        [int(index) for index in selected],
        [[int(value) for value in entry] for entry in entries],
    )


def check_page_run(
    page_id: int, result: tuple[int, Sequence[int], Any], reference: _PageResult
) -> None:
    """Hold one ``scan_page_run`` result to ``scan_page`` on the same
    page and arrival base: count, selection, and every entry's key and
    arrival order.

    The run is backend-native — a ``(keys, orders)`` array pair, or the
    entry list itself — and ``scan_page`` is the backend's uncached
    kernel, so a memoized run that went stale differs here, at the page
    that produced it, even where the stream would still ascend.
    """
    count, selected, run = result
    if isinstance(run, tuple):
        keys, orders = run
        run = list(zip(keys.tolist(), orders.tolist()))
    got = _normalize((count, selected, run))
    expected = _normalize(reference)
    if got == expected:
        return
    part = next(
        name
        for name, mine, theirs in zip(("count", "selected", "entries"), got, expected)
        if mine != theirs
    )
    check(
        False,
        f"scan_page_run diverges from the uncached scan_page on page "
        f"{page_id} ({part}): {got[0]} tuples, selected={got[1][:8]}, "
        f"entries={got[2][:4]} vs {expected[0]} tuples, "
        f"selected={expected[1][:8]}, entries={expected[2][:4]}; if the page "
        "was mutated, check for a missing Page.version bump",
    )


def spot_check_scan_page(
    active: "KernelBackend",
    curve: Any,
    space: "QuerySpace",
    page: "Page",
    base: int,
    result: _PageResult,
) -> None:
    """Compare one ``scan_page`` result against the other backend.

    ``result`` is what ``active`` returned; the reference value is
    computed by the first *other* registered backend over the page's
    materialized points (bypassing any per-page caches, so a stale
    memoized view on the active backend cannot hide itself).  No-op when
    only one backend is available.
    """
    from .. import kernels

    others = [name for name in kernels.available_backends() if name != active.name]
    if not others:
        return
    reference = kernels.backend(others[0])
    points = [record[1][0] for record in page.records]
    expected = _normalize(reference.page_entries(curve, space, points, base))
    got = _normalize(result)
    check(
        got == expected,
        f"kernel backends diverge on page {page.page_id}: "
        f"`{active.name}`.scan_page returned {got[0]} tuples "
        f"(selected={got[1][:8]}...), `{reference.name}` says {expected[0]} "
        f"(selected={expected[1][:8]}...); if the page was mutated, check "
        "for a missing Page.version bump",
    )


class ScheduleChecker:
    """One batched region schedule, held to the scalar walk row by row.

    ``UBTree.scheduled_regions`` reports every region it is about to
    yield: the address it descended at, the region that descent
    returned, and the verdicts and key the batch kernel assigned.  The
    checker replays the definitions those replace — ``encode(lo)`` opens
    the walk, ``next_in_box(previous.last + 1)`` continues it and
    finally runs out, :meth:`~repro.core.region.ZRegion.classify` prunes,
    the pure backend's ``region_min_keys`` keys — using only boundaries
    the scan's own descents returned, so checking adds no I/O.
    """

    def __init__(
        self,
        curve: "Curve",
        lo: Sequence[int],
        hi: Sequence[int],
        space: "QuerySpace",
        pushdown: "QuerySpace | None",
        sort_curve: "Curve | None",
    ) -> None:
        self._curve = curve
        self._box = (lo, hi)
        self._space = space
        self._pushdown = pushdown
        self._sort_curve = sort_curve
        self._expected: "int | None" = curve.encode(lo)

    def observe(
        self,
        probe: int,
        region: "ZRegion",
        in_space: bool,
        in_cover: bool,
        key: "int | None",
    ) -> None:
        from .. import kernels

        lo, hi = self._box
        check(
            probe == self._expected and region.contains(probe),
            f"region schedule descended at Z-address {probe} into {region!r}; "
            f"the BIGMIN walk continues at {self._expected}",
        )
        verdicts = region.classify(self._curve, self._space, self._pushdown)
        check(
            (bool(in_space), bool(in_cover)) == verdicts,
            f"region schedule classified {region!r} as (in_space, in_cover) = "
            f"({in_space}, {in_cover}); ZRegion.classify says {verdicts}",
        )
        reference = None
        if in_cover and self._sort_curve is not None:
            (reference,) = kernels.backend("python").region_min_keys(
                self._curve,
                self._sort_curve,
                [(region.first, region.last)],
                lo,
                hi,
            )
        check(
            key == reference,
            f"region schedule keyed {region!r} at {key}; the scalar "
            f"region_min_keys says {reference}",
        )
        self._expected = self._curve.next_in_box(region.last + 1, lo, hi)

    def finish(self) -> None:
        """The schedule ran out: so must the walk."""
        check(
            self._expected is None,
            f"region schedule ended although the box continues at Z-address "
            f"{self._expected}",
        )


class SliceChecker:
    """The keys of one sweep's slices, held to the paper's formula.

    ``TetrisScan.slices`` pairs every row with the key the page kernel
    computed for it in batch on the sweep's Tetris curve; consumers
    (the shard coordinator's resume skip and k-way merge) trust those
    keys instead of re-encoding each point.  The checker recomputes
    every key as ``T_j(x) = x_{j1} ∘ … ∘ Z_rest(x)`` with
    :meth:`~repro.core.zorder.ZSpace.tetris_address`, which never reads
    the bit schedule the curve was built from, so a schedule that
    orders ties differently from the paper is caught.  Keys must also
    ascend within a slice and from one slice to the next.
    """

    def __init__(self, space: "ZSpace", sort_dims: Sequence[int]) -> None:
        self._address = space.tetris_address
        self._sort_dims = tuple(sort_dims)
        self._previous: "int | None" = None

    def observe(self, keys: Sequence[int], rows: Sequence[Any]) -> None:
        check(
            len(keys) == len(rows),
            f"slice carries {len(keys)} keys for {len(rows)} rows",
        )
        previous = self._previous
        for key, (point, _) in zip(keys, rows):
            reference = self._address(point, self._sort_dims)
            check(
                key == reference,
                f"slice keyed the tuple at {tuple(point)} with {key}; the "
                f"paper's T_j formula gives {reference}",
            )
            check(
                previous is None or key >= previous,
                f"slice key {key} at {tuple(point)} follows {previous}: keys "
                "must ascend within and across slices",
            )
            previous = key
        self._previous = previous
