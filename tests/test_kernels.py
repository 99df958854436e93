"""Backend parity for the batch-kernel layer.

The NumPy backend and the pure-Python fallback must be observationally
identical: same addresses, same selected indices, same sort
permutations, and — end to end — the same ``TetrisScan`` tuple stream,
page access order and simulated-clock stats.  These tests randomize
curves (both schedules, including >64-bit addresses) and assert the backends agree with each other *and*
with the scalar reference (`Curve.encode`, ``contains_point``).

All parity tests are skipped when NumPy is absent; the rest of the file
(registry behavior, fallback semantics) runs everywhere.
"""

import random
from operator import is_ as operator_is, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core import Curve, QueryBox, UBTree, ZSpace, tetris_sorted
from repro.core.query_space import (
    ComparisonSpace,
    IntersectionSpace,
    IntervalUnionSpace,
)
from repro.core.region import RegionDirectory
from repro.storage import BufferPool, SimulatedDisk

from oracles import PredicateSpace, event_point_order, run_entries

HAVE_NUMPY = "numpy" in kernels.available_backends()
needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="NumPy backend not importable"
)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_python_always_available(self):
        assert "python" in kernels.available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError), kernels.use_backend("fortran"):
            pass

    def test_use_backend_restores(self):
        before = kernels.get_backend()
        with kernels.use_backend("python") as backend:
            assert backend.name == "python"
            assert kernels.get_backend() is backend
        assert kernels.get_backend() is before

    def test_auto_prefers_numpy_when_present(self):
        with kernels.use_backend("auto") as backend:
            expected = "numpy" if HAVE_NUMPY else "python"
            assert backend.name == expected

    @needs_numpy
    def test_set_backend_by_name(self):
        for name in ("numpy", "python"):
            with kernels.use_backend(name) as backend:
                assert backend.name == name
                assert kernels.get_backend() is backend


# ----------------------------------------------------------------------
# randomized curve/point cases
# ----------------------------------------------------------------------
@st.composite
def curve_cases(draw):
    dims = draw(st.integers(1, 5))
    # up to 17 bits/dim × 5 dims exercises >64-bit addresses
    bits = tuple(draw(st.integers(1, 17)) for _ in range(dims))
    seed = draw(st.integers(0, 10_000))
    schedule = draw(st.sampled_from(["z", "tetris"]))
    if schedule == "z":
        curve = Curve.z_curve(bits)
    else:
        order = draw(st.permutations(range(dims)))
        prefix = draw(st.integers(1, dims))
        curve = Curve.tetris_curve(bits, tuple(order[:prefix]))
    count = draw(st.integers(0, 120))
    return curve, bits, seed, count


def random_points(bits, seed, count):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(1 << b) for b in bits) for _ in range(count)
    ]


def random_box(bits, seed):
    rng = random.Random(seed ^ 0x5EED)
    lo, hi = [], []
    for b in bits:
        a, c = rng.randrange(1 << b), rng.randrange(1 << b)
        lo.append(min(a, c))
        hi.append(max(a, c))
    return tuple(lo), tuple(hi)


@needs_numpy
@given(curve_cases())
@settings(max_examples=80, deadline=None)
def test_encode_decode_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    with kernels.use_backend("python"):
        py_addresses = kernels.get_backend().encode_batch(curve, points)
    with kernels.use_backend("numpy"):
        np_addresses = kernels.get_backend().encode_batch(curve, points)
    assert np_addresses == py_addresses
    assert py_addresses == [curve.encode(p) for p in points]
    with kernels.use_backend("python"):
        py_points = kernels.get_backend().decode_batch(curve, py_addresses)
    with kernels.use_backend("numpy"):
        np_points = kernels.get_backend().decode_batch(curve, py_addresses)
    assert np_points == py_points
    assert py_points == points


@needs_numpy
@given(curve_cases())
@settings(max_examples=80, deadline=None)
def test_filter_and_argsort_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    with kernels.use_backend("python"):
        py_box = kernels.get_backend().filter_box_batch(lo, hi, points)
        py_space = kernels.get_backend().filter_space_batch(box, points)
    with kernels.use_backend("numpy"):
        np_box = kernels.get_backend().filter_box_batch(lo, hi, points)
        np_space = kernels.get_backend().filter_space_batch(box, points)
    assert np_box == py_box == np_space == py_space
    assert py_box == [
        i for i, p in enumerate(points) if box.contains_point(p)
    ]
    keys = [curve.encode(p) for p in points]
    with kernels.use_backend("python"):
        py_perm = kernels.get_backend().argsort_keys(keys)
    with kernels.use_backend("numpy"):
        np_perm = kernels.get_backend().argsort_keys(keys)
    assert np_perm == py_perm
    expected = sorted(range(len(keys)), key=keys.__getitem__)
    # both must be *stable*: equal keys keep arrival order
    assert [keys[i] for i in py_perm] == [keys[i] for i in expected]


@needs_numpy
@given(curve_cases())
@settings(max_examples=40, deadline=None)
def test_region_min_keys_parity(case):
    sort_curve, bits, seed, _ = case
    z_curve = Curve.z_curve(bits)
    rng = random.Random(seed)
    top = (1 << z_curve.total_bits) - 1
    intervals = []
    for _ in range(rng.randrange(1, 12)):
        a, b = rng.randint(0, top), rng.randint(0, top)
        intervals.append((min(a, b), max(a, b)))
    lo, hi = random_box(bits, seed)
    with kernels.use_backend("python"):
        py_keys = kernels.get_backend().region_min_keys(z_curve, sort_curve, intervals, lo, hi)
    with kernels.use_backend("numpy"):
        np_keys = kernels.get_backend().region_min_keys(z_curve, sort_curve, intervals, lo, hi)
    assert np_keys == py_keys
    assert sort_curve.dims == len(bits)


@needs_numpy
@given(
    st.sampled_from([(1,), (3, 2), (7, 9, 4), (16, 16, 16, 16), (13, 17, 11, 9, 14)]),
    st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_block_decomposition_matches_interval_blocks(bits, seed):
    """The directory's lockstep decomposition is ``interval_blocks`` of
    every region — up to and including 64-bit addresses, where a naive
    ``last + 1`` would wrap."""
    import numpy as np

    from repro.kernels.numpy_backend import _aligned_blocks

    curve = Curve.z_curve(bits)
    rng = random.Random(seed)
    top = curve.address_max
    cuts = sorted({rng.randint(0, top) for _ in range(rng.randrange(12))} - {top})
    firsts = [0] + [cut + 1 for cut in cuts]
    lasts = cuts + [top]
    positions, levels, counts = _aligned_blocks(
        np.asarray(firsts, dtype=np.uint64),
        np.asarray(lasts, dtype=np.uint64),
        curve.total_bits,
    )
    expected = [list(curve.interval_blocks(a, b)) for a, b in zip(firsts, lasts)]
    assert counts.tolist() == [len(blocks) for blocks in expected]
    assert list(zip(positions.tolist(), levels.tolist())) == [
        block for blocks in expected for block in blocks
    ]


@needs_numpy
@given(curve_cases(), st.sampled_from(["box", "triangle", "opaque"]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_schedule_regions_parity(case, kind, covered):
    """Random tilings of the address space stand in for a tree: the
    kernel sees a directory, never the pages behind it."""
    sort_curve, bits, seed, count = case
    z_curve = Curve.z_curve(bits)
    rng = random.Random(seed)
    cuts = sorted(
        {rng.randrange(z_curve.address_max + 1) for _ in range(count // 4)}
        - {z_curve.address_max}
    )
    directory = RegionDirectory(
        z_curve, cuts + [z_curve.address_max], list(range(len(cuts) + 1)), epoch=0
    )
    lo, hi = random_box(bits, seed)
    space = QueryBox(lo, hi)
    dims = len(bits)
    if kind == "triangle" and dims > 1:
        left, right = rng.sample(range(dims), 2)
        op = rng.choice(["<", "<=", ">", ">="])
        space = IntersectionSpace([space, ComparisonSpace(dims, left, op, right)])
    elif kind == "opaque":
        space = IntersectionSpace(
            [space, PredicateSpace(dims, lambda p: sum(p) % 3 != 0)]
        )
    pushdown = None
    if covered:
        dim = rng.randrange(dims)
        ends = sorted(rng.sample(range(1 << bits[dim]), min(4, 1 << bits[dim])))
        pushdown = IntervalUnionSpace(
            z_curve.coord_max, dim, tuple(zip(ends[::2], ends[1::2]))
        )
    # resume points: the whole scan, and a box address further along
    starts = [z_curve.encode(lo)]
    later = z_curve.next_in_box(rng.randrange(z_curve.address_max + 1), lo, hi)
    if later is not None:
        starts.append(later)
    for start in starts:
        for keyed_by in (sort_curve, None):
            with kernels.use_backend("python"):
                py_rows = kernels.get_backend().schedule_regions(
                    directory, start, lo, hi, space, pushdown, keyed_by
                )
            with kernels.use_backend("numpy"):
                np_rows = kernels.get_backend().schedule_regions(
                    directory, start, lo, hi, space, pushdown, keyed_by
                )
            assert np_rows == py_rows
            assert py_rows[0][0] == start
            assert all(row[6] is None for row in py_rows if not row[5])


# ----------------------------------------------------------------------
# end-to-end TetrisScan parity
# ----------------------------------------------------------------------
def build_tree(bits=(4, 4, 4), count=300, seed=9, page_capacity=4, bulk=False):
    disk = SimulatedDisk()
    tree = UBTree(BufferPool(disk, 256), ZSpace(bits), page_capacity=page_capacity)
    rng = random.Random(seed)
    rows = [
        (tuple(rng.randrange(1 << b) for b in bits), index)
        for index in range(count)
    ]
    if bulk:
        tree.bulk_load(rows)
    else:
        for point, payload in rows:
            tree.insert(point, payload)
    return tree


def run_scan(backend, space, sort_dim, **tree_kw):
    """One scan on a fresh tree: identical disk clocks per backend.  Its
    pages are the event-point loop's, in that loop's order."""
    tree = build_tree(**tree_kw)
    with kernels.use_backend(backend):
        scan = tetris_sorted(tree, space, sort_dim)
        stream = list(scan)
        assert scan.page_access_order == event_point_order(tree, space, sort_dim)
    return stream, scan.page_access_order, vars(scan.stats)


SPACES = {
    "box": QueryBox((1, 0, 2), (14, 15, 13)),
    "comparison": IntersectionSpace(
        [QueryBox((0, 0, 0), (15, 15, 15)), ComparisonSpace(3, 0, "<", 2)]
    ),
    "opaque": PredicateSpace(3, lambda p: (p[0] + p[1] + p[2]) % 3 != 0),
}


@needs_numpy
@pytest.mark.parametrize("space_name", sorted(SPACES))
@pytest.mark.parametrize("schedule", ["eager"])  # the one schedule; ids kept
def test_scan_identical_across_backends(space_name, schedule):
    space = SPACES[space_name]
    runs = {
        backend: run_scan(backend, space, 1)
        for backend in ("python", "numpy")
    }
    assert runs["python"] == runs["numpy"]
    stream, pages, stats = runs["python"]
    assert stats["tuples_output"] == len(stream)
    assert len(pages) == len(set(pages))


@needs_numpy
@pytest.mark.parametrize("schedule", ["eager"])  # the one schedule; ids kept
def test_composite_identical_across_backends(schedule):
    space = QueryBox((0, 1, 0), (15, 14, 15))
    runs = {
        backend: run_scan(backend, space, (2, 0), bulk=True)
        for backend in ("python", "numpy")
    }
    assert runs["python"] == runs["numpy"]
    keys = [(p[2], p[0]) for p, _ in runs["python"][0]]
    assert keys == sorted(keys)


@needs_numpy
def test_strategies_agree_per_backend():
    """Per backend, the scan reads the event-point loop's pages in that
    loop's order (``run_scan`` checks it)."""
    for backend in ("python", "numpy"):
        run_scan(backend, SPACES["box"], 0)


@needs_numpy
def test_scan_identical_after_mutations():
    """The columnar page cache must observe record mutations (version)."""
    space = QueryBox((0, 0, 0), (15, 15, 15))
    streams = {}
    for backend in ("python", "numpy"):
        tree = build_tree(count=150, seed=21)
        with kernels.use_backend(backend):
            first = list(tetris_sorted(tree, space, 0))
            for index in range(40):
                tree.insert((index % 16, (index * 7) % 16, (index * 3) % 16), 1000 + index)
            second = list(tetris_sorted(tree, space, 0))
        assert len(second) == len(first) + 40
        streams[backend] = (first, second)
    assert streams["python"] == streams["numpy"]


# ----------------------------------------------------------------------
# whole-slab kernels: run formation, block scans, run merging
# ----------------------------------------------------------------------
def make_record_page(curve, points, page_id=0, first_payload=0):
    """A synthetic Z-region page: records are (z_address, (point, payload)),
    payloads numbered from ``first_payload``."""
    from repro.storage.page import Page

    page = Page(page_id, max(len(points), 1))
    entries = sorted(
        (curve.encode(point), (point, first_payload + index))
        for index, point in enumerate(points)
    )
    page.extend(entries)
    return page


def qualifying_in_arrival_order(pages, space):
    """The pages' records whose point lies in ``space``, page by page and
    in record order — records carry their address on the pages' curve."""
    return [
        record
        for page in pages
        for record in page.records
        if space.contains_point(record[1][0])
    ]


def key_ordered(records):
    """``(keys, rows)`` of ``records`` stably sorted by key: key order,
    ties in arrival order — what a sweep over them hands out."""
    ordered = sorted(records, key=itemgetter(0))
    return [key for key, _ in ordered], [row for _, row in ordered]


def tied_pages(curve, points, size):
    """Pages of ``size`` points over ``points`` and then over ``points``
    again, reversed: every point of the second half ties with one of the
    first, so equal keys meet across runs, and payloads are unique."""
    points = points + points[::-1]
    return [
        make_record_page(curve, points[start : start + size], start, start)
        for start in range(0, len(points), size)
    ]


@needs_numpy
@given(curve_cases())
@settings(max_examples=40, deadline=None)
def test_scan_page_run_and_buffer_parity(case):
    """Per page, both backends give the same count and run — keys and
    rows, in key order with ties in record order — and the pages' runs
    pushed into a buffer drain in key order with ties in push order."""
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    pages = tied_pages(curve, points, max(count, 1))
    reference = [
        run_entries(kernels.backend("python").scan_page_run(curve, box, page))
        for page in pages
    ]
    for page, (qualifying, entries) in zip(pages, reference):
        keys, rows = key_ordered(qualifying_in_arrival_order([page], box))
        assert entries == list(map(list, zip(keys, rows)))
        assert qualifying == len(entries)
    expected = key_ordered(qualifying_in_arrival_order(pages, box))
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend) as kernel:
            buffer = kernel.make_run_buffer()
            for page, entries in zip(pages, reference):
                qualifying, run = kernel.scan_page_run(curve, box, page)
                assert run_entries((qualifying, run)) == entries, backend
                if qualifying:
                    buffer.push(run)
            assert len(buffer) == len(expected[0])
            assert buffer.cut(None) == expected, backend
            assert len(buffer) == 0
            assert not buffer.has_key_below(None)


@needs_numpy
@given(curve_cases())
@settings(max_examples=30, deadline=None)
def test_run_buffer_interleaved_barrier_cuts_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    rng = random.Random(seed ^ 0xBA55)
    top = 1 << curve.total_bits
    pages = tied_pages(curve, points, 7)
    barriers = [rng.randrange(top) for _ in pages]
    streams = {}
    for backend in ("python", "numpy"):
        with kernels.use_backend(backend) as kernel:
            buffer = kernel.make_run_buffer()
            stream = []
            for page, barrier in zip(pages, barriers):
                qualifying, run = kernel.scan_page_run(curve, box, page)
                if qualifying:
                    buffer.push(run)
                if buffer.has_key_below(barrier):
                    keys, rows = buffer.cut(barrier)
                    assert keys == sorted(keys) and keys[-1] < barrier
                    stream.extend(zip(keys, rows))
                    assert not buffer.has_key_below(barrier)
            stream.extend(zip(*buffer.cut(None)))
            streams[backend] = stream
    assert streams["numpy"] == streams["python"]
    # every qualifying record is emitted exactly once, as itself
    expected = qualifying_in_arrival_order(pages, box)
    assert sorted(streams["python"]) == sorted(expected)
    row_of = {row[1]: row for _, row in expected}  # payloads are unique
    assert all(row is row_of[row[1]] for _, row in streams["numpy"])


#: one run-buffer operation: push a run of keys, cut at a barrier, or cut
#: everything
BUFFER_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.lists(st.integers(0, 40), max_size=12)),
        st.tuples(st.just("cut"), st.integers(0, 45)),
        st.tuples(st.just("cut"), st.none()),
    ),
    max_size=25,
)


@needs_numpy
@given(BUFFER_STEPS)
@settings(max_examples=200, deadline=None)
def test_run_buffers_cut_what_a_stable_sort_orders(steps):
    """Both run buffers against ``sorted(..., key=key)`` over random runs
    and barriers: a cut hands out, key-ordered with ties in arrival
    order, exactly the waiting entries below its barrier — the very row
    objects pushed — and ``len`` / ``has_key_below`` follow the model
    after every push and cut, ``has_key_below`` at every barrier that
    can tell two answers apart."""
    import numpy as np

    from repro.kernels.numpy_backend import NumPySortRunBuffer
    from repro.kernels.pure import PureSortRunBuffer

    buffers = [PureSortRunBuffer(), NumPySortRunBuffer()]
    waiting = []  # the model: entries not yet cut, in arrival order
    pushed = 0
    for kind, value in steps:
        if kind == "push":
            rows = [(("row", pushed + rank),) for rank in range(len(value))]
            pushed += len(value)
            run = sorted(zip(value, rows), key=itemgetter(0))
            waiting.extend(run)
            buffers[0].push([list(entry) for entry in run])
            keys = np.array([key for key, _ in run], dtype=np.uint64)
            column = np.fromiter((row for _, row in run), object, len(run))
            buffers[1].push((keys, column))
        else:
            below = [entry for entry in waiting if value is None or entry[0] < value]
            waiting = [entry for entry in waiting if entry not in below]
            expected = key_ordered(below)
            for buffer in buffers:
                assert buffer.has_key_below(value) == bool(below)
                keys, rows = buffer.cut(value)
                assert (keys, rows) == expected
                assert all(map(operator_is, rows, expected[1]))
        keys = {key for key, _ in waiting}
        for barrier in {None, 0, *keys, *(key + 1 for key in keys)}:
            brute = any(barrier is None or key < barrier for key in keys)
            for buffer in buffers:
                assert buffer.has_key_below(barrier) == brute, barrier
        for buffer in buffers:
            assert len(buffer) == len(waiting)


@needs_numpy
@given(curve_cases())
@settings(max_examples=30, deadline=None)
def test_scan_block_parity(case):
    curve, bits, seed, count = case
    points = random_points(bits, seed, count)
    lo, hi = random_box(bits, seed)
    box = QueryBox(lo, hi)
    pages = [
        make_record_page(curve, points[start : start + 7], page_id=start)
        for start in range(0, len(points), 7)
    ]
    numpy_backend = kernels.backend("numpy")
    streams = {
        "python": kernels.backend("python").scan_block(curve, box, pages),
        # the first call builds the pages' views and runs, the second reads them
        "numpy cold": numpy_backend.scan_block(curve, box, pages),
        "numpy warm": numpy_backend.scan_block(curve, box, pages),
    }
    # reference: the qualifying records in arrival order, stable-sorted by
    # key — the per-tuple sweep's emission order
    _, expected = key_ordered(qualifying_in_arrival_order(pages, box))
    assert streams == dict.fromkeys(streams, expected)


@needs_numpy
def test_merge_sorted_keys_parity():
    rng = random.Random(4711)
    for _ in range(30):
        size_a, size_b = rng.randrange(0, 25), rng.randrange(0, 25)
        keys_a = sorted(rng.randrange(50) for _ in range(size_a))
        keys_b = sorted(rng.randrange(50) for _ in range(size_b))
        with kernels.use_backend("python"):
            py_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
        with kernels.use_backend("numpy"):
            np_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
        assert np_merge == py_merge
        combined = keys_a + keys_b
        # exactly the permutation a stable sort of the concatenation
        # would produce: sorted keys, ties won by keys_a / earlier index
        expected = sorted(range(len(combined)), key=combined.__getitem__)
        assert py_merge == expected


@needs_numpy
def test_merge_sorted_keys_non_integer_keys_fall_back():
    keys_a = [("a", 1), ("c", 0)]
    keys_b = [("b", 2), ("c", 1)]
    with kernels.use_backend("python"):
        py_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
    with kernels.use_backend("numpy"):
        np_merge = kernels.get_backend().merge_sorted_keys(keys_a, keys_b)
    assert np_merge == py_merge == [0, 2, 1, 3]


@needs_numpy
def test_run_buffer_accepts_foreign_runs():
    """A NumPy buffer degrades gracefully when fed a pure-Python run."""
    curve = Curve.z_curve((4, 4))
    box = QueryBox((0, 0), (15, 15))
    points = [(i % 16, (i * 7) % 16) for i in range(40)]
    page = make_record_page(curve, points)
    with kernels.use_backend("python"):
        _, pure_run = kernels.get_backend().scan_page_run(curve, box, page)
        expected = kernels.get_backend().make_run_buffer()
        expected.push(pure_run)
        expected_stream = expected.cut(None)
    with kernels.use_backend("numpy"):
        buffer = kernels.get_backend().make_run_buffer()
    buffer.push(pure_run)
    assert len(buffer) == len(points)
    assert buffer.cut(None) == expected_stream


# ----------------------------------------------------------------------
# the one fallback: what the NumPy backend hands to the pure one
# ----------------------------------------------------------------------
# A NumPy method that cannot vectorize raises ``_NoGeometry`` and its
# dispatch runs the pure method of the same name.  Each trigger below
# drives every interface method on both backends; the last is the
# control: 64-bit-or-smaller box inputs, where nothing is handed over.
SMALL_RUNS = [[5, 2, 3, 2], [7, 1, 9], [4, 4, 0]]
WIDE = 2**64 + 5  # past uint64: an object array


def dispatch_triggers():
    narrow = Curve.z_curve((4, 4))
    # the cover's first dimension reaches past uint64; the points stay
    # small, so a page inside one interval or one gap is zone-decided
    # and a page across two intervals falls back
    cover = IntervalUnionSpace((2**70, 15), 0, [(1, 3), (6, 9), (2**66, 2**67)])
    cover_pages = [
        [(6, 0), (7, 5), (9, 15), (8, 8)],  # inside (6, 9): whole
        [(10, 1), (12, 4), (15, 15)],  # in the gap after 9: empty
        [(0, 0), (2, 3), (5, 7), (6, 6), (11, 2), (15, 0)],  # falls back
        [(1, 9), (3, 3), (2, 14)],  # inside (1, 3): whole
        [(2, 2), (4, 4), (7, 7), (3, 12)],  # two intervals: falls back
    ]
    grid = [[(x, (x * 5 + y) % 16) for x in range(y, 16, 3)] for y in range(4)]
    return {
        "curve over 64 bits": (
            Curve.z_curve((22, 22, 22)),
            QueryBox((1 << 20, 0, 5), ((1 << 22) - 1, 1 << 21, 1 << 22)),
            [
                [(i * 104_729 % (1 << 22), i * 7_919 % (1 << 22), i % 97)
                 for i in range(start, start + 9)]
                for start in range(0, 36, 9)
            ],
            SMALL_RUNS,
        ),
        "opaque space": (
            narrow,
            PredicateSpace(2, lambda point: (point[0] ^ point[1]) % 3 == 0),
            grid,
            SMALL_RUNS,
        ),
        "cover past uint64": (narrow, cover, cover_pages, SMALL_RUNS),
        "keys past int64": (
            narrow,
            QueryBox((2, 3), (13, 14)),
            grid,
            [[5, WIDE, 3, 2], [7, 1, 2**63 + 9], [4, 4, 0]],
        ),
        "64-bit box": (
            Curve.z_curve((16, 16, 16, 16)),
            QueryBox((100, 0, 7, 0), (60_000, 65_535, 50_000, 40_000)),
            [
                [(i * 7_919 % 65_536, i * 104_729 % 65_536, i * 31 % 65_536,
                  i % 65_536) for i in range(start, start + 9)]
                for start in range(0, 36, 9)
            ],
            SMALL_RUNS,
        ),
    }


def exercise(backend, curve, space, page_points, runs):
    """Every interface method on one case, results as plain values."""
    pages = [
        make_record_page(curve, points, page_id)
        for page_id, points in enumerate(page_points)
    ]
    points = [point for points in page_points for point in points]
    lo = [bound // 4 for bound in curve.coord_max]
    hi = [3 * bound // 4 for bound in curve.coord_max]
    addresses = backend.encode_batch(curve, points)
    page_runs, buffer = [], backend.make_run_buffer()
    for page in pages:
        count, run = backend.scan_page_run(curve, space, page)
        page_runs.append(run_entries((count, run)))
        if count:
            buffer.push(run)
    columns = [backend.sort_key_column(run)[1] for run in runs]
    stop, taken, order, merged = backend.merge_key_columns(
        columns, [True, False, True]
    )
    top = curve.address_max
    directory = RegionDirectory(
        curve, [top // 5, top // 3, top // 2, top], [0, 1, 2, 3], epoch=0
    )
    universe = QueryBox.full(curve.coord_max)
    return {
        "encode_batch": addresses,
        "decode_batch": backend.decode_batch(curve, addresses),
        "filter_box_batch": backend.filter_box_batch(lo, hi, points),
        "filter_space_batch": backend.filter_space_batch(space, points),
        "filter_space_page": [backend.filter_space_page(space, p) for p in pages],
        "argsort_keys": [
            backend.argsort_keys(keys)
            for keys in [addresses, *runs, [(key % 3, key) for key in runs[0]]]
        ],
        "scan_page_run": page_runs,
        "run buffer": buffer.cut(None),
        "scan_block": backend.scan_block(curve, space, pages),
        "merge_sorted_keys": backend.merge_sorted_keys(
            sorted(runs[0]), sorted(runs[1])
        ),
        "sort_key_column": [
            (backend.sort_key_column(run)[0], backend.list_key_column(column))
            for run, column in zip(runs, columns)
        ],
        "merge_key_columns": (stop, taken, order, backend.list_key_column(merged)),
        "concat_key_columns": backend.list_key_column(
            backend.concat_key_columns(columns)
        ),
        "schedule_regions": [
            backend.schedule_regions(
                directory, 0, universe.lo, universe.hi, universe, pushdown, curve
            )
            for pushdown in (None, space)
        ]
        + [
            backend.schedule_regions(
                directory, curve.encode(lo), lo, hi, space, None, curve
            )
        ],
    }


def handoffs(monkeypatch):
    """The names of the pure methods a NumPy backend runs from here on."""
    from repro.kernels.base import KernelBackend
    from repro.kernels.numpy_backend import NumPyBackend

    handed = []
    for name, method in vars(kernels.PurePythonBackend).items():
        if name.startswith("_") or not hasattr(KernelBackend, name):
            continue

        def spy(self, *args, _method=method, _name=name, **kwargs):
            if isinstance(self, NumPyBackend):
                handed.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(kernels.PurePythonBackend, name, spy)
    return handed


@needs_numpy
@pytest.mark.parametrize("trigger", list(dispatch_triggers()))
def test_the_dispatch_hands_pure_only_what_does_not_vectorize(monkeypatch, trigger):
    from repro.kernels.numpy_backend import NumPyBackend

    case = dispatch_triggers()[trigger]
    expected = exercise(kernels.backend("python"), *case)
    handed = handoffs(monkeypatch)
    got = exercise(NumPyBackend(), *case)
    for name, value in expected.items():
        assert got[name] == value, (trigger, name)
    if trigger == "64-bit box":
        assert handed == []
    else:
        assert handed, trigger


# ----------------------------------------------------------------------
# zone narrowing: only the bounds a page's value range straddles
# ----------------------------------------------------------------------
# The NumPy page kernels test a bound only where a page's zone (its
# per-dimension min and max) straddles it, and decide a page that no
# bound can fail, or that no row can pass, without a mask.  The cases
# below cluster each page's points so that its zone falls inside,
# outside or across every bound: bounds are drawn at, just inside and
# just outside the zones' edges, and some pages put every coordinate on
# the diagonal, so a comparison's two ranges touch.
def zone_edge(rng, zones, dim, top):
    lows, highs = rng.choice(zones)
    value = rng.choice((lows, highs))[dim] + rng.choice((-1, 0, 1))
    return min(max(value, 0), top)


def narrowing_space(rng, kind, zones, coord_max):
    dims = len(coord_max)
    if kind == "box":
        lo, hi = [], []
        for dim, top in enumerate(coord_max):
            shape = rng.choice(("open", "lower", "upper", "both", "both"))
            low = zone_edge(rng, zones, dim, top) if shape in ("lower", "both") else 0
            high = (
                zone_edge(rng, zones, dim, top)
                if shape in ("upper", "both")
                else rng.choice((top, top + 3))  # the full domain, or past it
            )
            if low > high and rng.random() < 0.8:
                low, high = high, low  # now and then an inverted, empty range
            lo.append(low)
            hi.append(high)
        return QueryBox(lo, hi)
    if kind == "comparison":
        left, right = rng.sample(range(dims), 2)
        return ComparisonSpace(dims, left, rng.choice(("<", "<=", ">", ">=")), right)
    if kind == "cover":
        dim = rng.randrange(dims)
        count = rng.choice((0, 1, 2, 2, 4, 5, 6))  # empty, single, gapped
        top = coord_max[dim]
        cuts = sorted({zone_edge(rng, zones, dim, top) for _ in range(count)})
        intervals = list(zip(cuts[::2], cuts[1::2]))
        if len(cuts) % 2:
            intervals.append((cuts[-1], cuts[-1]))  # a one-value interval
        return IntervalUnionSpace(coord_max, dim, intervals)
    kinds = ["box", "cover"] + (["comparison"] if dims > 1 else [])
    return IntersectionSpace(
        [
            narrowing_space(rng, rng.choice(kinds), zones, coord_max)
            for _ in range(rng.randint(2, 3))
        ]
    )


def narrowing_case(seed):
    """``(sort curve, page point lists, spaces)``: clustered pages and
    spaces of every kind, their bounds on the pages' zone edges."""
    rng = random.Random(seed)
    dims = rng.randint(1, 3)
    bits = tuple(rng.randint(3, 6) for _ in range(dims))
    coord_max = tuple((1 << b) - 1 for b in bits)
    pages = []
    for _ in range(rng.randint(1, 6)):
        spread = rng.choice((0, 0, 1, 2, 5))
        if rng.random() < 0.3:  # on the diagonal: every coordinate alike
            center = (rng.randint(0, min(coord_max)),) * dims
        else:
            center = tuple(rng.randint(0, top) for top in coord_max)
        pages.append(
            [
                tuple(
                    min(max(value + rng.randint(-spread, spread), 0), top)
                    for value, top in zip(center, coord_max)
                )
                for _ in range(rng.randint(1, 10))
            ]
        )
    zones = [
        (tuple(map(min, zip(*points))), tuple(map(max, zip(*points))))
        for points in pages
    ]
    kinds = ["box", "box", "cover", "cover", "intersection", "intersection"]
    if dims > 1:
        kinds += ["comparison"] * 4
    spaces = [narrowing_space(rng, kind, zones, coord_max) for kind in kinds]
    order = rng.sample(range(dims), rng.randint(1, dims))
    return Curve.tetris_curve(bits, tuple(order)), pages, spaces


def hold_narrowing_to_pure(seed):
    """Every NumPy page kernel on the case's pages equals the pure one."""
    from repro.kernels.numpy_backend import NumPyBackend

    curve, page_points, spaces = narrowing_case(seed)
    pure = kernels.backend("python")
    for space in spaces:
        numpy_backend = NumPyBackend()  # no view yet: the first run is cold
        pages = [
            make_record_page(curve, points, page_id)
            for page_id, points in enumerate(page_points)
        ]
        context = (seed, space)
        for page in pages:
            expected = run_entries(pure.scan_page_run(curve, space, page))
            for memo in ("cold", "warm"):
                run = numpy_backend.scan_page_run(curve, space, page)
                assert run_entries(run) == expected, (*context, memo)
            points = [record[1][0] for record in page.records]
            selected = pure.filter_space_batch(space, points)
            assert numpy_backend.filter_space_page(space, page) == selected, context
            assert numpy_backend.filter_space_batch(space, points) == selected
            if isinstance(space, QueryBox):
                assert (
                    numpy_backend.filter_box_batch(space.lo, space.hi, points)
                    == selected
                ), context
        expected_block = pure.scan_block(curve, space, pages)
        for memo in ("cold", "warm"):
            assert numpy_backend.scan_block(curve, space, pages) == expected_block, (
                *context,
                memo,
            )


NARROWING_SEEDS = range(240)


@needs_numpy
@pytest.mark.parametrize("chunk", range(4))
def test_narrowing_matches_the_pure_kernels(chunk):
    for seed in NARROWING_SEEDS[chunk::4]:
        hold_narrowing_to_pure(seed)


def schedule_case(seed):
    """A random tiling of the address space standing in for a tree, a box
    that leaves some dimensions open, and spaces and covers built on it."""
    rng = random.Random(seed)
    dims = rng.randint(1, 3)
    bits = tuple(rng.randint(2, 5) for _ in range(dims))
    z_curve = Curve.z_curve(bits)
    top = z_curve.address_max
    cuts = sorted({rng.randrange(top + 1) for _ in range(rng.randrange(40))} - {top})
    directory = RegionDirectory(
        z_curve, cuts + [top], list(range(len(cuts) + 1)), epoch=0
    )
    lo, hi = [], []
    for bound in z_curve.coord_max:
        if rng.random() < 0.4:
            lo.append(0)
            hi.append(bound)
        else:
            a, b = sorted((rng.randint(0, bound), rng.randint(0, bound)))
            lo.append(a)
            hi.append(b)
    box = QueryBox(lo, hi)
    zones = [(tuple(lo), tuple(hi))]
    spaces = [box] + [
        IntersectionSpace([box, narrowing_space(rng, kind, zones, z_curve.coord_max)])
        for kind in ["box", "cover"] + (["comparison"] if dims > 1 else [])
    ]
    pushdowns = [None] + [
        narrowing_space(rng, kind, zones, z_curve.coord_max)
        for kind in ("box", "cover")
    ]
    sort_curve = Curve.tetris_curve(bits, tuple(rng.sample(range(dims), 1)))
    return directory, box, spaces, pushdowns, sort_curve


def hold_schedule_to_classify(seed):
    directory, box, spaces, pushdowns, sort_curve = schedule_case(seed)
    z_curve = directory.curve
    start = z_curve.encode(box.lo)
    for space in spaces:
        for pushdown in pushdowns:
            with kernels.use_backend("numpy"):
                rows = kernels.get_backend().schedule_regions(
                    directory, start, box.lo, box.hi, space, pushdown, sort_curve
                )
            with kernels.use_backend("python"):
                expected = kernels.get_backend().schedule_regions(
                    directory, start, box.lo, box.hi, space, pushdown, sort_curve
                )
            assert rows == expected, (seed, space, pushdown)
            for _, first, last, _, in_space, in_cover, _ in rows:
                region = directory.region(directory.lasts.index(last))
                assert (first, last) == (region.first, region.last)
                assert (in_space, in_cover) == region.classify(
                    z_curve, space, pushdown
                ), (seed, region)


SCHEDULE_SEEDS = range(120)


@needs_numpy
def test_schedule_narrowing_matches_classify():
    for seed in SCHEDULE_SEEDS:
        hold_schedule_to_classify(seed)


def mutate(monkeypatch, owner, name, old, new):
    """Patch ``owner.name`` with its own source, ``old`` replaced by ``new``."""
    import inspect
    import textwrap

    from repro.kernels import numpy_backend

    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, f"{name} no longer reads {old!r}"
    namespace = dict(vars(numpy_backend))
    exec(compile(source.replace(old, new), numpy_backend.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def narrowing_sabotages():
    from repro.kernels import numpy_backend

    return {
        "<= decided by <'s rule": (
            numpy_backend.NumPyBackend,
            "_narrow",
            "space.left_dim, space.right_dim, space._cmp",
            "space.left_dim, space.right_dim, "
            "((lambda a, b: a < b) if space.op == '<=' else space._cmp)",
        ),
        "off-by-one gap test": (
            numpy_backend.NumPyBackend,
            "_narrow",
            "ends[slot] < low",
            "ends[slot] <= low",
        ),
        "zone hi test against lows": (
            numpy_backend,
            "_narrow_box",
            "if high < ceiling:",
            "if high < floor:",
        ),
    }


@needs_numpy
@pytest.mark.parametrize(
    "sabotage",
    ["<= decided by <'s rule", "off-by-one gap test", "zone hi test against lows"],
)
def test_sabotaged_narrowing_fails_the_differential(monkeypatch, sabotage):
    mutate(monkeypatch, *narrowing_sabotages()[sabotage])
    with pytest.raises(AssertionError):
        for seed in NARROWING_SEEDS:
            hold_narrowing_to_pure(seed)


@needs_numpy
def test_sabotaged_block_test_fails_the_schedule_differential(monkeypatch):
    from repro.kernels import numpy_backend

    mutate(
        monkeypatch,
        numpy_backend._DirectoryArrays,
        "meeting",
        "if high < self.greatest_low[dim]:",
        "if high < self.least_high[dim]:",
    )
    with pytest.raises(AssertionError):
        for seed in SCHEDULE_SEEDS:
            hold_schedule_to_classify(seed)
