"""Cross-backend kernel parity spot checks.

The kernel contract (:mod:`repro.kernels.base`) demands the NumPy and
pure-Python backends be **observationally identical**.  The test suite
asserts this over randomized workloads; with ``REPRO_CHECKS=1`` the
engine additionally re-runs every page kernel it actually executes on
the *other* backend and compares results in place
(:func:`check_page_run`), and every page fold an aggregate makes
(:func:`check_page_fold`) — so a divergence (say, a stale columnar cache
after a missed ``Page.version`` bump) raises at the exact page that
produced it.  Batched region schedules
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
    from ..core.ubtree import UBTree
    from ..core.zorder import ZSpace
    from ..kernels.base import KernelBackend
    from ..storage.page import Page


def _entries(result: tuple[int, Sequence[int], Any]) -> tuple[int, list, list]:
    """A ``scan_page_run`` result as plain ints: count, selection, and
    the run's ``[key, order]`` entries."""
    count, selected, run = result
    if isinstance(run, tuple):  # a NumPy run: (keys, orders) arrays
        run = zip(run[0].tolist(), run[1].tolist())
    return (
        int(count),
        [int(index) for index in selected],
        [[int(key), int(order)] for key, order in run],
    )


def check_page_run(
    active: "KernelBackend",
    curve: "Curve",
    space: "QuerySpace",
    page: "Page",
    base: int,
    result: tuple[int, Sequence[int], Any],
) -> None:
    """Hold one ``scan_page_run`` result to the other registered
    backend's ``scan_page_run`` on the same page and arrival base:
    count, selection, and every entry's key and arrival order.

    ``result`` is what ``active`` returned.  With NumPy active the
    reference is the pure backend, which reads ``page.records`` afresh,
    so a memoized view or zone gone stale (a missed ``Page.version``
    bump) and a kernel that diverges both differ here, at the page that
    produced them, even where the stream would still ascend.  No-op
    when only one backend is available.
    """
    from .. import kernels

    others = [name for name in kernels.available_backends() if name != active.name]
    if not others:
        return
    reference = kernels.backend(others[0])
    got = _entries(result)
    expected = _entries(reference.scan_page_run(curve, space, page, base))
    if got == expected:
        return
    part = next(
        name
        for name, mine, theirs in zip(("count", "selected", "entries"), got, expected)
        if mine != theirs
    )
    check(
        False,
        f"`{active.name}` scan_page_run diverges from `{reference.name}` on "
        f"page {page.page_id} ({part}): {got[0]} tuples, selected={got[1][:8]}, "
        f"entries={got[2][:4]} vs {expected[0]} tuples, "
        f"selected={expected[1][:8]}, entries={expected[2][:4]}; if the page "
        "was mutated, check for a missing Page.version bump",
    )


def check_page_fold(
    active: "KernelBackend",
    page: "Page",
    selection: Sequence[int],
    positions: tuple[int, ...],
    total: "int | None",
) -> None:
    """Hold one ``sum_products`` result to the other registered
    backend's on the same page, selection and payload positions.

    ``total`` is what ``active`` returned.  With NumPy active the
    reference is the pure backend, which folds ``page.records`` afresh,
    so a product column gone stale (a missed ``Page.version`` bump, a
    memo not keyed on it) differs here, at the page that produced it.
    No-op when only one backend is available.
    """
    from .. import kernels

    others = [name for name in kernels.available_backends() if name != active.name]
    if not others:
        return
    reference = kernels.backend(others[0])
    expected = reference.sum_products(page, selection, positions)
    check(
        total == expected and type(total) is type(expected),
        f"`{active.name}` sum_products diverges from `{reference.name}` on "
        f"page {page.page_id} (positions {positions}, {len(selection)} "
        f"selected): {total!r} vs {expected!r}; if the page was mutated, "
        "check for a missing Page.version bump",
    )


def tree_region(ubtree: "UBTree", z_address: int) -> "ZRegion":
    """The region holding ``z_address``, by a descent of the tree's inner
    levels with ``disk.peek``: no pool lookup, no accounting, no fault
    site."""
    from ..core.region import ZRegion

    leaf_id, low, high, _ = ubtree.tree._locate(z_address, peek=True)
    last = ubtree.space.address_max if high is None else high
    return ZRegion(0 if low is None else low + 1, last, leaf_id)


class ScheduleChecker:
    """One batched region schedule, held to the scalar walk row by row.

    ``UBTree.scheduled_regions`` reports every region it is about to
    yield: the walk's address for it, the directory's entry, and the
    verdicts and key the batch kernel assigned.  The checker replays the
    definitions those replace — ``encode(lo)`` opens the walk,
    ``next_in_box(previous.last + 1)`` continues it and finally runs
    out, the tree's own descent at that address finds the region,
    :meth:`~repro.core.region.ZRegion.classify` prunes, the pure
    backend's ``region_min_keys`` keys.  The descent reads the inner
    levels with ``disk.peek`` (``BPlusTree._locate(peek=True)``), so
    checking adds no pool lookup, no accounting and no fault site.
    """

    def __init__(
        self,
        ubtree: "UBTree",
        lo: Sequence[int],
        hi: Sequence[int],
        space: "QuerySpace",
        pushdown: "QuerySpace | None",
        sort_curve: "Curve | None",
    ) -> None:
        self._ubtree = ubtree
        self._curve = ubtree.space.z
        self._box = (lo, hi)
        self._space = space
        self._pushdown = pushdown
        self._sort_curve = sort_curve
        self._expected: "int | None" = self._curve.encode(lo)

    def observe(
        self,
        probe: int,
        region: "ZRegion",
        in_space: bool,
        in_cover: bool,
        key: "int | None",
    ) -> None:
        from ..kernels.pure import PurePythonBackend

        lo, hi = self._box
        truth = tree_region(self._ubtree, probe)
        check(
            region == truth,
            f"region directory of epoch {self._ubtree.tree.structure_epoch} "
            f"has {region!r} where the tree, still at that epoch, has "
            f"{truth!r}: a structure change did not advance the epoch",
        )
        check(
            probe == self._expected and region.contains(probe),
            f"region schedule has Z-address {probe} in {region!r}; "
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
            (reference,) = PurePythonBackend().region_min_keys(
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
