"""Disk pages.

A :class:`Page` is the unit of transfer between the simulated disk and the
buffer pool.  Record-bearing pages (heap pages, UB-Tree Z-region pages,
B+-tree leaves) keep their tuples in ``records`` and enforce a capacity in
records per page — the paper assumes roughly 80 LINEITEM tuples per 8 kB
page.  Structural pages (B+-tree inner nodes) store their node object in
``payload`` instead.
"""

from __future__ import annotations

import zlib
from array import array
from dataclasses import dataclass
from itertools import compress, count
from operator import is_, is_not
from typing import Any, Iterable, Iterator, Sequence

from .. import invariants


class PageOverflowError(RuntimeError):
    """Raised when more records are placed on a page than its capacity allows."""


def _shared(left: Iterable[Any], right: Iterable[Any], most: int) -> int:
    """How many leading positions hold the same object, at most ``most``."""
    return min(most, next(compress(count(), map(is_not, left, right)), most))


def _record_digests(records: Iterable[Any]) -> array:
    """``crc32(repr(record))`` of every record, from the content alone."""
    return array("I", map(zlib.crc32, map(str.encode, map(repr, records))))


@dataclass(frozen=True, slots=True)
class PageImage:
    """An immutable snapshot of a page's record content, with its digest.

    The one image the durability layers share: every replica slot holds
    it, and the write-ahead log's undo and redo records carry its
    ``records`` tuple (:meth:`Page.snapshot` — a log-only stack never
    pays for digests nobody would verify).  ``digests`` is one CRC32 per
    record and ``checksum`` the CRC32 folded over that vector, computed
    when the image is built — so a slot that rots later is detectable
    without consulting the primary.
    """

    records: tuple
    digests: array
    checksum: int

    @staticmethod
    def of(records: Iterable[Any], previous: "PageImage | None" = None) -> "PageImage":
        """The image of ``records``, built incrementally from ``previous``.

        A record that *is* (same object) a record of ``previous`` keeps
        its digest; only new objects are serialised.  Identity, not
        ``Page.version``, decides: records are immutable tuples, a
        version counter is whatever its last writer left.
        """
        records = tuple(records)
        if previous is None:
            digests = _record_digests(records)
        else:
            # an insert or a delete leaves a long shared head and tail:
            # trim both, then match what is left (a split, a rebind) by id
            # — ``previous`` keeps its records alive, so ids cannot be reused
            old, had = previous.records, previous.digests
            most = min(len(old), len(records))
            head = _shared(old, records, most)
            tail = _shared(reversed(old), reversed(records), most - head)
            middle = records[head : len(records) - tail]
            known = dict(zip(map(id, old[head : len(old) - tail]), had[head:]))
            fresh = [record for record in middle if id(record) not in known]
            known.update(zip(map(id, fresh), _record_digests(fresh)))
            digests = had[:head]
            digests.extend(map(known.__getitem__, map(id, middle)))
            digests += had[len(old) - tail :]
            if invariants.enabled():
                invariants.check(
                    digests == _record_digests(records),
                    "incremental page image diverged from a from-scratch build",
                )
        return PageImage(records, digests, zlib.crc32(digests))

    @property
    def intact(self) -> bool:
        """Whether the stored content still matches the write-time checksum.

        Every record digest is recomputed from ``records``; the cached
        vector is never trusted.
        """
        return zlib.crc32(_record_digests(self.records)) == self.checksum


class Page:
    """A fixed-capacity disk page.

    Parameters
    ----------
    page_id:
        The physical address of the page on the simulated disk.
    capacity:
        Maximum number of records the page may hold.  ``payload``-only
        pages may pass ``capacity=0`` and never touch ``records``.
    """

    __slots__ = (
        "page_id",
        "capacity",
        "records",
        "payload",
        "version",
        "stored_checksum",
        "last_snapshot",
        "last_image",
        "__weakref__",
    )

    def __init__(self, page_id: int, capacity: int) -> None:
        self.page_id = page_id
        self.capacity = capacity
        self.records: list[Any] = []
        self.payload: Any = None
        #: bumped on every record mutation; derived views of the page
        #: (e.g. the NumPy kernel backend's columnar cache) key on it
        self.version = 0
        #: CRC32 of the record content as of the last seal, or ``None``
        #: when the page has never been sealed.  Lazily maintained: the
        #: fault layer seals a page just before damaging it, so the
        #: fault-free path never computes a checksum and integrity
        #: verification costs a single ``is not None`` test.
        self.stored_checksum: int | None = None
        #: what :meth:`snapshot` last returned
        self.last_snapshot: tuple | None = None
        #: the :class:`PageImage` last built for this page (or handed
        #: over by the page it was split from) — a reuse hint only
        self.last_image: PageImage | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self.records)

    def add(self, record: Any) -> None:
        """Append one record, enforcing the page capacity."""
        if self.is_full:
            raise PageOverflowError(
                f"page {self.page_id} is full ({self.capacity} records)"
            )
        self.records.append(record)
        self.version += 1

    def extend(self, records: Sequence[Any]) -> None:
        """Append a batch of records: one capacity check, one version bump."""
        if len(self.records) + len(records) > self.capacity:
            raise PageOverflowError(
                f"page {self.page_id} cannot take {len(records)} more records "
                f"({len(self.records)}/{self.capacity} used)"
            )
        self.records.extend(records)
        self.version += 1

    def clear(self) -> None:
        self.records.clear()
        self.version += 1

    def restore(self, records: Iterable[Any], checksum: int | None = None) -> None:
        """Put ``records`` back with ``checksum`` as its seal (``None``:
        unsealed): undo, redo, repair and the log re-force all do it."""
        self.records = list(records)
        self.version += 1
        self.stored_checksum = checksum

    def snapshot(self) -> tuple:
        """The current records as a tuple — the same tuple for as long as
        the page holds the same record objects, so the log's undo and redo
        records and the replicas' image share one copy."""
        last, records = self.last_snapshot, self.records
        if (
            last is None
            or len(last) != len(records)
            or not all(map(is_, last, records))
        ):
            self.last_snapshot = last = tuple(records)
        return last

    def image(self) -> PageImage:
        """The digest-carrying image of :meth:`snapshot`; unchanged content
        hands back the same image object."""
        records, image = self.snapshot(), self.last_image
        if image is None or image.records is not records:
            self.last_image = image = PageImage.of(records, image)
        return image

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def compute_checksum(self) -> int:
        """CRC32 over the current record content.

        ``repr`` of the records list is a stable, content-complete
        serialization for the plain-Python tuples the engine stores, and
        this is a simulation — the point is detecting the fault layer's
        damage, not surviving adversarial collisions.
        """
        return zlib.crc32(repr(self.records).encode("utf-8"))

    def seal_checksum(self) -> int:
        """Record the current content's checksum on the page."""
        self.stored_checksum = self.compute_checksum()
        return self.stored_checksum

    def verify_checksum(self) -> bool:
        """True if the content matches the sealed checksum (or no seal)."""
        return (
            self.stored_checksum is None
            or self.compute_checksum() == self.stored_checksum
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Page(id={self.page_id}, {len(self.records)}/{self.capacity} records)"
