"""K-way order-preserving merge of shard streams.

Each shard's restricted sorted scan yields two parallel columns
``(keys, rows)``: ``rows`` are ``(point, payload)`` tuples and ``keys``
their addresses on the *full* tetris curve (sort-dimension bits most
significant, Z-order of the remaining bits below).  Those are the keys
the run buffer inside :class:`~repro.core.tetris.TetrisScan` ordered the
rows by — they ride up with each slice, nothing is re-encoded — so each
shard stream is ascending in ``keys``.

A point lives in exactly one shard (the slab ranges partition the
shard dimension) and duplicate points share a page, hence a shard, so
equal keys never meet across shards: merging the streams by key with
any tie-breaking rule reproduces the unsharded scan bit-for-bit.

The merge itself reuses the kernel two-way primitive
:meth:`~repro.kernels.base.KernelBackend.merge_sorted_keys` in a pairwise
tree — ``ceil(log2(k))`` passes over the data, the same discipline an
external-sort merge phase would use, except no I/O is charged because
the coordinator merges in memory.  Streams that do not overlap (always
the case when the sort attribute is the shard attribute) are simply
concatenated.
"""

from __future__ import annotations

from .. import kernels
from ..core.tetris import Slice

__all__ = ["merge_shard_streams"]

#: One shard's scan output — its slices end to end, so the same two
#: parallel columns: full-curve addresses and the tuples they key.
KeyedStream = Slice


def _merge_pair(left: KeyedStream, right: KeyedStream) -> KeyedStream:
    left_keys, left_rows = left
    right_keys, right_rows = right
    if not left_keys:
        return right
    if not right_keys:
        return left
    keys = left_keys + right_keys
    rows = left_rows + right_rows
    if left_keys[-1] < right_keys[0]:
        return keys, rows
    permutation = kernels.get_backend().merge_sorted_keys(left_keys, right_keys)
    return (
        [keys[index] for index in permutation],
        [rows[index] for index in permutation],
    )


def merge_shard_streams(streams: list[KeyedStream]) -> KeyedStream:
    """Merge per-shard ascending streams into one ascending stream.

    Stable across the pairwise tree: ``merge_sorted_keys`` lets its
    first operand win ties, and pairs are always joined left-to-right,
    so lower shard indexes win — immaterial for correctness (equal keys
    cannot span shards) but it keeps the merge deterministic.
    """
    if not streams:
        return [], []
    level = list(streams)
    while len(level) > 1:
        merged: list[KeyedStream] = []
        for index in range(0, len(level) - 1, 2):
            merged.append(_merge_pair(level[index], level[index + 1]))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]
