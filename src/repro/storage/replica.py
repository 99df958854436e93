"""K-way page replication with checksum-triggered repair.

:class:`ReplicatedDisk` wraps a :class:`~repro.storage.disk.SimulatedDisk`
(the same delegation pattern as :class:`~repro.storage.faults.FaultyDisk`)
and mirrors every acknowledged page write onto ``copies`` replica slots —
in-memory snapshots standing in for the redundant devices of a mirrored
volume.  Each slot holds the page's :class:`~repro.storage.page.PageImage`
— the same immutable image the write-ahead log journals — whose checksum
was computed at write time, so a rotten replica is detectable
independently of the primary.

The payoff is :meth:`repair_page`: when a read trips a
:class:`~repro.storage.errors.CorruptPageError` (or the buffer pool wants
to re-admit a quarantined page), the caller asks the disk stack to repair
the primary.  Repair scans the replica slots in order, discards copies
whose own checksum fails, restores the first intact copy onto the primary
page, re-seals the primary's checksum, and reports success.  All repair
I/O is priced on the simulated clock and charged to the
``repair_reads``/``repair_delay`` fault counters — turning "degraded"
chaos outcomes back into "clean" is not free, just cheap.

Stacking order matters: the fault layer wraps *outside* the replica
layer (``FaultyDisk(ReplicatedDisk(SimulatedDisk()))``), so a torn or
corrupted primary never contaminates the replicas — exactly like a
mirror that received the full DMA transfer while the primary's platter
tore.  Payload-only pages (B+-tree inner nodes) are not replicated: the
fault model only damages record content, and their ``records`` list is
empty.
"""

from __future__ import annotations


from .. import invariants
from .disk import DiskParameters, SimulatedDisk, _DelegatingDisk
from .page import Page, PageImage

__all__ = [
    "ReplicatedDisk",
]


class ReplicatedDisk(_DelegatingDisk):
    """A :class:`SimulatedDisk` wrapper mirroring writes onto k replicas.

    Interface-compatible with the wrapped disk (all state lives in
    ``inner``; reads pass straight through).  Every acknowledged write
    of a record-bearing page snapshots its content into ``copies``
    replica slots and charges ``copies * t_tau`` of mirror transfer time
    (replica writes ride the same positioning as the primary, as on a
    RAID-1 pair).
    """

    def __init__(
        self,
        inner: SimulatedDisk | None = None,
        copies: int = 2,
        *,
        params: DiskParameters | None = None,
    ) -> None:
        if copies < 1:
            raise ValueError("a ReplicatedDisk needs at least one replica copy")
        super().__init__(inner, params)
        self.copies = copies
        self._replicas: dict[int, list[PageImage]] = {}

    def free(self, page_id: int) -> None:
        self._replicas.pop(page_id, None)
        self.inner.free(page_id)

    # ------------------------------------------------------------------
    # the replicated write path
    # ------------------------------------------------------------------
    def write(
        self,
        page: Page,
        *,
        sequential: bool = False,
        category: str = "data",
    ) -> None:
        self.inner.write(page, sequential=sequential, category=category)
        if not page.records:
            # payload-only pages carry nothing the fault model damages; a
            # page written empty must not keep the records it used to hold
            self._replicas.pop(page.page_id, None)
            return
        self._replicas[page.page_id] = [page.image()] * self.copies
        mirror_delay = self.copies * self.params.t_tau
        self.inner.advance_clock(mirror_delay)
        faults = self.stats.faults
        faults.replica_writes += self.copies
        faults.replica_delay += mirror_delay

    # ------------------------------------------------------------------
    # capture and repair
    # ------------------------------------------------------------------

    def capture_all(self) -> int:
        """Snapshot every record-bearing page into the replica store.

        Used after an unreplicated bulk load (e.g. a world built before
        replication was enabled): one sequential pass reads each page and
        mirrors it, priced as one scan plus ``copies`` mirror transfers
        per page.  Returns the number of pages captured.
        """
        captured = 0
        for page in self.inner.iter_pages():
            if not page.records:
                continue
            self._replicas[page.page_id] = [page.image()] * self.copies
            captured += 1
        if captured:
            cost = self.params.scan_cost(captured) * (1 + self.copies)
            self.inner.advance_clock(cost)
            faults = self.stats.faults
            faults.replica_writes += captured * self.copies
            faults.replica_delay += cost
        self._validate()
        return captured

    def repair_page(self, page_id: int) -> bool:
        """Restore a damaged primary from the first intact replica.

        Each inspected replica slot costs one random access (the mirror
        device seeks and transfers); a successful repair costs one more
        to write the healed primary back.  Returns ``False`` when no
        replica exists or every copy has rotted — the damage stands and
        the caller's degradation path proceeds as before.
        """
        if not self.inner.page_exists(page_id):
            return False
        slots = self._replicas.get(page_id)
        if not slots:
            return False
        faults = self.stats.faults
        for copy in slots:
            read_cost = self.params.random_cost(1)
            self.inner.advance_clock(read_cost)
            faults.repair_reads += 1
            faults.repair_delay += read_cost
            if not copy.intact:
                continue
            page = self.inner.peek(page_id)
            page.restore(copy.records)
            page.seal_checksum()
            write_cost = self.params.random_cost(1)
            self.inner.advance_clock(write_cost)
            faults.repair_delay += write_cost
            faults.repaired_pages += 1
            self._validate()
            return True
        return False

    def _validate(self) -> None:
        if invariants.enabled():
            invariants.validate_replicated_disk(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicatedDisk copies={self.copies} "
            f"pages={len(self._replicas)} over {self.inner!r}>"
        )
