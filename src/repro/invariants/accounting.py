"""Buffer-pool accounting invariants.

The experiments' I/O numbers are only as trustworthy as the buffer
pool's bookkeeping: every lookup must be classified as exactly one hit,
one miss or one quarantine rejection; the disk fetches issued by the
pool must equal its misses plus the retry attempts its retry policy
authorized plus the async prefetches it issued (so prefetching cannot
silently double-count I/O); every issued prefetch must be claimed,
cancelled or still pending; pending prefetched pages must be resident;
the pool must never hold more frames than its capacity; and a
quarantined page must not be resident.
:class:`repro.storage.buffer.BufferPool` maintains
the ``lookups`` / ``disk_fetches`` / ``rejected`` / ``retry_attempts``
/ ``prefetch_issued`` / ``prefetch_claimed`` / ``prefetch_cancelled``
shadow counters this validator cross-checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import check

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..storage.buffer import BufferPool


def validate_buffer_pool(pool: "BufferPool") -> None:
    """O(pending-set + quarantine-set) accounting contract of one pool."""
    check(
        pool.hits + pool.misses + pool.rejected == pool.lookups,
        f"buffer accounting broken: {pool.hits} hits + {pool.misses} misses "
        f"+ {pool.rejected} rejected != {pool.lookups} lookups",
    )
    check(
        pool.disk_fetches
        == pool.misses + pool.retry_attempts + pool.prefetch_issued,
        f"buffer accounting broken: {pool.disk_fetches} disk fetches != "
        f"{pool.misses} misses + {pool.retry_attempts} retry attempts "
        f"+ {pool.prefetch_issued} prefetches issued",
    )
    pending = pool.prefetch_pending
    check(
        pool.prefetch_issued
        == pool.prefetch_claimed + pool.prefetch_cancelled + len(pending),
        f"prefetch ledger broken: {pool.prefetch_issued} issued != "
        f"{pool.prefetch_claimed} claimed + {pool.prefetch_cancelled} "
        f"cancelled + {len(pending)} pending",
    )
    check(
        len(pool) <= pool.capacity,
        f"buffer pool holds {len(pool)} frames, over its capacity of "
        f"{pool.capacity}",
    )
    resident = pool._frames.keys()
    lost_pending = [page_id for page_id in pending if page_id not in resident]
    check(
        not lost_pending,
        f"pending prefetched pages {lost_pending} are not resident; their "
        "claims would re-fetch and double-count",
    )
    quarantined = pool.quarantined_pages
    cached = [page_id for page_id in quarantined if page_id in resident]
    check(
        not cached,
        f"quarantined pages {cached} are still cached; suspect content "
        "could be served",
    )
    over_budget = [
        page_id
        for page_id, count in pool._failures.items()
        if count >= pool.quarantine_threshold and page_id not in quarantined
    ]
    check(
        not over_budget,
        f"pages {over_budget} exceeded the failure budget of "
        f"{pool.quarantine_threshold} but were not quarantined",
    )
