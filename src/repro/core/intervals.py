"""A set of disjoint integer intervals: the retrieved space ``Φ``.

Section 3.4 builds the retrieved space iteratively "by adding the next
Z-region to the already retrieved space".  :class:`IntervalSet` keeps the
union as a sorted list of disjoint, non-adjacent ``[lo, hi]`` intervals —
adjacent regions coalesce, so lookups stay logarithmic even after the
whole relation has been swept.
"""

from __future__ import annotations

from bisect import bisect_right


class IntervalSet:
    """Sorted disjoint closed intervals over the integers."""

    def __init__(self) -> None:
        self._lows: list[int] = []
        self._highs: list[int] = []

    def __len__(self) -> int:
        return len(self._lows)

    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi]``, merging with overlapping/adjacent intervals."""
        if lo > hi:
            raise ValueError(f"inverted interval [{lo}, {hi}]")
        # first interval whose low could merge (low <= hi + 1)
        left = bisect_right(self._lows, lo - 1)
        # step back if the previous interval reaches lo - 1
        if left > 0 and self._highs[left - 1] >= lo - 1:
            left -= 1
        right = left
        while right < len(self._lows) and self._lows[right] <= hi + 1:
            right += 1
        if left < right:
            lo = min(lo, self._lows[left])
            hi = max(hi, self._highs[right - 1])
        self._lows[left:right] = [lo]
        self._highs[left:right] = [hi]

    def containing(self, value: int) -> tuple[int, int] | None:
        """The interval containing ``value``, or ``None``."""
        idx = bisect_right(self._lows, value) - 1
        if idx >= 0 and self._highs[idx] >= value:
            return self._lows[idx], self._highs[idx]
        return None
