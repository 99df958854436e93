"""The page image: one incremental digest shared by WAL and replicas.

:class:`~repro.storage.page.PageImage` reuses the per-record digests of
a page's previous image for every record that is the *same object*.  The
differential test holds that shortcut to a from-scratch build after each
step of a random page history; the counted tests pin what one journaled
insert is allowed to cost; the teeth show that a builder trusting
position instead of identity is caught.
"""

import zlib
from array import array
from bisect import insort
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import invariants
from repro.btree.bptree import BPlusTree
from repro.invariants import InvariantViolation
from repro.relational import Database
from repro.storage import Page, PageImage
from repro.storage.wal import IMAGE, UNDO

from oracles import checks
PAYLOADS = st.sampled_from([1, 1.0, True, "1", (1,), None])

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 40), PAYLOADS),
        st.tuples(st.just("delete"), st.integers(0, 99)),
        st.tuples(st.just("tear")),
        st.tuples(st.just("rot"), st.integers(0, 99)),
        st.tuples(st.just("split")),
        st.tuples(st.just("rebind"), st.integers(0, 99)),
    ),
    min_size=1,
    max_size=30,
)


def assert_matches_scratch(page):
    image = page.image()
    scratch = PageImage.of(page.records)
    assert image.records == scratch.records == tuple(page.records)
    assert image.digests == scratch.digests, "digests differ from a scratch build"
    assert image.checksum == scratch.checksum
    assert image == scratch and image.intact
    assert page.image() is image  # unchanged content: the same object
    return image


def run_history(steps):
    """Drive one page through ``steps``, checking the image after each."""
    page = Page(0, capacity=1000)
    history = [assert_matches_scratch(page)]
    for step in steps:
        kind, records = step[0], page.records
        if kind == "insert":
            insort(records, (step[1], step[2]), key=lambda r: r[0])
        elif kind == "delete" and records:
            del records[step[1] % len(records)]
        elif kind == "tear":
            del records[len(records) // 2 :]
        elif kind == "rot" and records:
            at = step[1] % len(records)
            records[at] = (records[at][0], "__bitrot__")
        elif kind == "split" and len(records) > 1:
            right = Page(1, capacity=1000)
            right.records = records[len(records) // 2 :]
            right.last_image = page.last_image  # as BPlusTree._split_leaf does
            page.records = records[: len(records) // 2]
            assert_matches_scratch(right)
        elif kind == "rebind":  # a rollback puts an earlier image back
            page.records = list(history[step[1] % len(history)].records)
        page.version += 1
        history.append(assert_matches_scratch(page))


@settings(max_examples=200, deadline=None)
@given(STEPS)
def test_incremental_image_equals_from_scratch(steps):
    run_history(steps)


def test_reuse_by_position_fails_the_differential(monkeypatch):
    """Teeth: a builder that keeps digests by slot instead of by record
    identity must not survive the test above."""
    real = PageImage.of

    def by_position(records, previous=None):
        honest = real(records, previous)
        if previous is None or honest is previous:
            return honest
        kept = min(len(honest.digests), len(previous.digests))
        digests = previous.digests[:kept] + honest.digests[kept:]
        return PageImage(honest.records, digests, zlib.crc32(digests))

    monkeypatch.setattr(PageImage, "of", staticmethod(by_position))
    with pytest.raises(AssertionError, match="digests differ"):
        test_incremental_image_equals_from_scratch()


class TestChecksCompareEveryIncrementalBuild:
    def rotten_hint(self):
        records = [(key, "row") for key in range(4)]
        good = PageImage.of(records)
        return records, replace(good, digests=array("I", reversed(good.digests)))

    def test_a_lying_hint_is_caught_at_build_time(self):
        records, hint = self.rotten_hint()
        with checks(True), pytest.raises(InvariantViolation):
            PageImage.of([*records, (9, "new")], hint)

    def test_and_only_there(self):
        """Checks off, the builder trusts its hint — which is why replica
        verification never does (``intact`` recomputes from content)."""
        records, hint = self.rotten_hint()
        with checks(False):
            image = PageImage.of([*records, (9, "new")], hint)
        assert not image.intact


class Counted:
    """A payload that counts how often it is serialised."""

    reprs = 0

    def __init__(self, key):
        self.key = key

    def __repr__(self):
        Counted.reprs += 1
        return f"Counted({self.key})"


class TestOneImagePerJournaledInsert:
    @pytest.fixture(autouse=True)
    def checks_off(self):
        """``REPRO_CHECKS`` serialises every record again to compare."""
        with checks(False):
            yield

    @pytest.fixture
    def tree(self):
        db = Database(wal=True, replicas=2)
        tree = BPlusTree(db.buffer, leaf_capacity=8)
        for key in range(0, 12, 2):
            tree.insert(key, Counted(key))
        return tree

    @pytest.fixture
    def built(self, monkeypatch):
        """Every :class:`PageImage` constructed from here on."""
        images = []
        init = PageImage.__init__

        def counting(self, *args, **fields):
            init(self, *args, **fields)
            images.append(self)

        monkeypatch.setattr(PageImage, "__init__", counting)
        Counted.reprs = 0
        return images

    def test_an_insert_builds_one_image_and_serialises_one_record(self, tree, built):
        tree.insert(5, Counted(5))
        assert len(built) == 1 and Counted.reprs == 1
        wal, disk = tree.disk.wal, tree.disk
        undo, image = [r for r in wal.records[-4:] if r.kind in (UNDO, IMAGE)]
        assert image.records is built[0].records
        assert all(slot is built[0] for slot in disk._replicas[tree.root_id])
        # the next insert's before-image is this insert's after-image
        tree.insert(7, Counted(7))
        assert wal.records[-3].kind == UNDO
        assert wal.records[-3].records is image.records
        assert undo.records is not image.records

    def test_a_split_hands_the_left_image_to_the_right_page(self, tree, built):
        tree.insert(5, Counted(5))
        tree.insert(7, Counted(7))
        del built[:]
        Counted.reprs = 0
        tree.insert(9, Counted(9))  # the ninth record: the leaf splits
        assert tree.leaf_count == 2
        assert len(built) == 2 and Counted.reprs == 1
        assert all(image.intact for image in built)

    def test_a_log_only_stack_shares_the_tuple_and_builds_no_image(self, built):
        """No replica would ever verify the digests, so none are computed."""
        db = Database(wal=True)
        tree = BPlusTree(db.buffer, leaf_capacity=8)
        tree.insert(1, Counted(1))
        tree.insert(2, Counted(2))
        assert built == [] and Counted.reprs == 0
        first_image, second_undo = db.wal.records[-6], db.wal.records[-3]
        assert (first_image.kind, second_undo.kind) == (IMAGE, UNDO)
        assert second_undo.records is first_image.records

    def test_a_delete_serialises_nothing(self, tree, built):
        assert tree.delete(4)
        assert len(built) == 1 and Counted.reprs == 0
