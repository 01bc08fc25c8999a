import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multigroup import optables
from multigroup.carriers import cyclic_group, matrix_set, symmetric_group
from multigroup.constructions import MatrixOpParams, matrix_op
from multigroup.errors import CarrierMismatchError, NotClosedError
from multigroup.field import PrimeField
from multigroup.matrix import Matrix
from multigroup.optables import (
    AxiomReport,
    CHUNK_CELLS,
    Multiset,
    OpTable,
    build_op_table,
    chunk_ranges,
    encode_element,
    first_true,
    index_dtype,
    scan_chunks,
    shared_carrier,
    table_from_array,
)


def test_build_op_table_counts_every_pair():
    z4 = cyclic_group(4)
    calls = []

    def rule(a, b):
        calls.append((a, b))
        return (a + b) % 4

    op = build_op_table(z4, rule, label="plus")
    assert len(calls) == 16
    assert op.table[3, 2] == 1
    assert op.apply(3, 2) == 1
    assert op.apply_index(3, 2) == 1


def test_build_op_table_reports_first_closure_violation():
    z3 = cyclic_group(3)
    with pytest.raises(NotClosedError) as info:
        build_op_table(z3, lambda a, b: a + b)
    err = info.value
    assert (err.x, err.y, err.result) == (1, 2, 3)


def test_table_is_write_protected():
    z3 = cyclic_group(3)
    op = build_op_table(z3, lambda a, b: (a + b) % 3)
    with pytest.raises(ValueError):
        op.table[0, 0] = 1


def test_table_from_array_validates_range():
    z3 = cyclic_group(3)
    grid = np.full((3, 3), 5)
    with pytest.raises(NotClosedError):
        table_from_array(z3, grid, "bad")
    with pytest.raises(CarrierMismatchError):
        table_from_array(z3, np.zeros((3, 2), dtype=np.int64), "bad-shape")


def test_shared_carrier_rejects_mismatch():
    a = build_op_table(cyclic_group(3), lambda x, y: (x + y) % 3)
    b = build_op_table(cyclic_group(4), lambda x, y: (x + y) % 4)
    with pytest.raises(CarrierMismatchError):
        shared_carrier(a, b)
    c = build_op_table(cyclic_group(3), lambda x, y: (x * y) % 3)
    assert shared_carrier(a, c) is a.carrier


def test_relabel_keeps_table():
    op = build_op_table(cyclic_group(3), lambda x, y: (x + y) % 3, label="a")
    other = op.relabel("b")
    assert other.label == "b"
    assert np.array_equal(other.table, op.table)


def test_encode_element():
    assert encode_element(3) == 3
    assert encode_element((1, 2)) == [1, 2]
    assert encode_element(((1, 0), (0, 1))) == [[1, 0], [0, 1]]
    assert encode_element(((0, 1), ((1, 0), (0, 1)))) == [[0, 1], [[1, 0], [0, 1]]]
    assert encode_element(np.int64(7)) == 7


def test_report_json_key_order():
    report = AxiomReport("assoc", "pass", None, 27)
    assert list(report.to_json_dict()) == [
        "axiom", "verdict", "witness", "checked", "reason", "exhaustive",
    ]
    assert report.passed
    failing = AxiomReport("assoc", "fail", (0, 0, 1), 27)
    assert not failing.passed
    assert failing.to_json_dict()["witness"] == [0, 0, 1]


def test_multiset():
    m = Multiset.from_indices([2, 1, 2])
    assert m.total == 3
    assert m.entries == ((1, 1), (2, 2))
    assert m.scaled(2).entries == ((1, 2), (2, 4))
    u = m.union(Multiset.from_indices([1]))
    assert u.entries == ((1, 2), (2, 2))


def test_chunk_ranges_fixed_width():
    n = 100
    cells_per_row = CHUNK_CELLS // 10
    ranges = chunk_ranges(n, max(1, CHUNK_CELLS // cells_per_row))
    assert ranges[0][0] == 0
    assert ranges[-1][1] == n
    for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
        assert a1 == b0


def test_scan_chunks_same_ranges_any_jobs():
    seen = {}

    def make_worker(key):
        def worker(a0, a1):
            seen.setdefault(key, []).append((a0, a1))
            return None
        return worker

    # cells_per_row forces several chunks for 600 rows
    cells = CHUNK_CELLS // 100
    scan_chunks(make_worker("one"), 600, cells, 1)
    scan_chunks(make_worker("four"), 600, cells, 4)
    assert sorted(seen["one"]) == sorted(seen["four"])
    assert len(seen["one"]) > 1


def test_scan_chunks_returns_first_chunk_hit():
    def worker(a0, a1):
        if a0 <= 340 < a1:
            return (340, "target")
        if a0 >= 400:
            return (a0, "late")
        return None

    cells = CHUNK_CELLS // 100  # 100 rows per chunk
    got = scan_chunks(worker, 600, cells, 4)
    assert got == (340, "target")


def test_first_true_is_the_c_order_first_hit():
    assert first_true(np.zeros((2, 3), dtype=bool)) is None
    assert first_true(np.zeros((0, 3), dtype=bool)) is None
    mask = np.zeros((3, 4, 5), dtype=bool)
    mask[2, 0, 0] = mask[1, 3, 4] = mask[1, 3, 2] = True
    assert first_true(mask) == (1, 3, 2)
    assert all(type(k) is int for k in first_true(mask))
    # a non-contiguous view is searched in its own logical order
    view = np.moveaxis(mask, 0, -1)
    assert first_true(view) == tuple(int(k) for k in np.argwhere(view)[0])


def test_index_dtype_by_size():
    assert index_dtype(1) == np.int16
    assert index_dtype(32767) == np.int16
    assert index_dtype(32768) == np.int32


def test_tables_are_narrow_and_write_protected():
    z5 = cyclic_group(5)
    f2 = PrimeField(2)
    eye = Matrix.identity(2, f2)
    tables = [
        table_from_array(z5, np.add.outer(np.arange(5), np.arange(5)) % 5),
        build_op_table(z5, lambda a, b: (a * b) % 5),
        matrix_op(MatrixOpParams(1, 1, eye, eye), matrix_set(2, 2)),
    ]
    for op in tables:
        assert op.table.dtype == np.int16
        with pytest.raises(ValueError):
            op.table[0, 0] = 0


def test_table_from_array_validates_before_narrowing():
    z5 = cyclic_group(5)
    grid = np.zeros((5, 5), dtype=np.int64)
    grid[1, 2] = 65539  # int16 would wrap it to the in-range index 3
    with pytest.raises(NotClosedError) as info:
        table_from_array(z5, grid)
    err = info.value
    assert (err.x, err.y, err.result) == (1, 2, 65539)


def _recording_worker(hit_chunk, jobs):
    """A one-row-per-chunk worker: chunk k hits, every later chunk hits too.

    Chunk k waits until chunk k + 1 has returned its own hit (when chunk k + 1
    runs at all), so a later hit finishes first whenever the window allows it.
    """
    ran = []
    lock = threading.Lock()
    later_done = threading.Event()

    def worker(a0, a1):
        with lock:
            ran.append(a0)
        if a0 == hit_chunk and jobs > 1:
            later_done.wait(timeout=5)
        if a0 == hit_chunk + 1:
            later_done.set()
        return (a0, "hit") if a0 >= hit_chunk else None

    return worker, ran


@pytest.mark.parametrize("hit_chunk", [0, 3, 9])
def test_scan_chunks_stops_at_the_first_hit_in_order(hit_chunk, monkeypatch):
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    worker, ran = _recording_worker(hit_chunk, 1)
    assert scan_chunks(worker, 12, 1, 1) == (hit_chunk, "hit")
    assert ran == list(range(hit_chunk + 1))
    for jobs in (2, 3):
        worker, ran = _recording_worker(hit_chunk, jobs)
        assert scan_chunks(worker, 12, 1, jobs) == (hit_chunk, "hit")
        assert set(range(hit_chunk + 1)) <= set(ran)
        assert len(ran) == len(set(ran)) <= hit_chunk + jobs
        assert max(ran) < hit_chunk + jobs


def test_scan_chunks_window_runs_every_chunk_when_clean(monkeypatch):
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    ran = []
    assert scan_chunks(lambda a0, a1: ran.append(a0), 7, 1, 3) is None
    assert sorted(ran) == list(range(7))


def test_scan_chunks_propagates_worker_errors(monkeypatch):
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)

    def worker(a0, a1):
        if a0 == 0:
            raise RuntimeError("chunk 0 broke")
        return None

    with pytest.raises(RuntimeError, match="chunk 0 broke"):
        scan_chunks(worker, 4, 1, 2)


def test_scan_chunks_runs_at_most_one_thread_per_cpu(monkeypatch):
    # every chunk in flight holds its temporaries, so jobs past the CPU count
    # cost memory and buy nothing; reports never depend on jobs
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    monkeypatch.setattr(optables.os, "sched_getaffinity", lambda pid: {0, 1})
    pools = []

    class Pool(optables.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(optables, "ThreadPoolExecutor", Pool)
    lock = threading.Lock()
    running, peak, ran = 0, 0, []

    def worker(a0, a1):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            ran.append(a0)
        time.sleep(0.002)
        with lock:
            running -= 1
        return None

    assert scan_chunks(worker, 40, 1, 32) is None
    assert pools == [2]
    assert 1 <= peak <= 2
    assert sorted(ran) == list(range(40))


# The endomorphism test that make_automorphism and the orbit step share:
# `optables._endomorphism_failure(s, t)` is the first (x, y) in row-major
# order with t[s x, s y] != s(t[x, y]), held to naive loops.


def naive_endomorphism_failure(s, t):
    n = len(t)
    pairs = ((x, y) for x in range(n) for y in range(n))
    return next(((x, y) for x, y in pairs if t[s[x]][s[y]] != s[t[x][y]]), None)


@st.composite
def maps_and_tables(draw):
    """An index map s and a table t it preserves, possibly with one cell changed.

    x -> u x preserves addition on Z_n, and every map preserves the left-zero
    band x y = x; random pairs preserve little.
    """
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["cyclic", "band", "random"]))
    every = st.integers(0, n - 1)
    if kind == "cyclic":
        u = draw(every)
        s = [u * x % n for x in range(n)]
        t = [[(x + y) % n for y in range(n)] for x in range(n)]
    else:
        s = draw(st.lists(every, min_size=n, max_size=n))
        t = [[x] * n for x in range(n)]
        if kind == "random":
            t = [draw(st.lists(every, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        t[draw(every)][draw(every)] = draw(every)
    return np.array(s, dtype=np.intp), table_from_array(cyclic_group(n), t, "t").table


@pytest.mark.parametrize("cells", [None, 1, 24])
@given(maps_and_tables())
@settings(max_examples=80, deadline=None)
def test_endomorphism_failure_equals_naive_loops(cells, drawn):
    # cells: the real proof budget, or one so small that every row is its own block
    s, t = drawn
    want = naive_endomorphism_failure(s.tolist(), t.tolist())
    with pytest.MonkeyPatch.context() as patch:
        if cells is not None:
            patch.setattr(optables, "PROOF_CELLS", cells)
        assert optables._endomorphism_failure(s, t) == want


def test_endomorphism_failure_in_the_last_row_block():
    # every map preserves the left-zero band; with its last cell changed, the
    # swap of 0 and 1 breaks the law at that cell only, so the last of
    # several row blocks holds the one failing pair
    n = 200
    assert optables.PROOF_CELLS < n * n
    t = np.repeat(np.arange(n)[:, None], n, axis=1)
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    assert optables._endomorphism_failure(swap, table_from_array(cyclic_group(n), t).table) is None
    t[n - 1, n - 1] = 0
    assert optables._endomorphism_failure(swap, table_from_array(cyclic_group(n), t).table) == \
        (n - 1, n - 1)
