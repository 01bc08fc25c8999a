import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
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
    encode_element,
    first_true,
    index_dtype,
    scan_chunks,
    shared_carrier,
    table_from_array,
    _row_blocks,
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


@pytest.mark.parametrize("grid, cell, value", [
    ([[0.9, 1.7], [1.2, 0.4]], (0, 0), 0.9),          # truncated to [[0, 1], [1, 0]] once
    ([[0, 1], [1, 0.5]], (1, 1), 0.5),
    ([["0", "1"], ["1", "0"]], (0, 0), "0"),          # cast to [[0, 1], [1, 0]] once
    ([[0, 1], [float("inf"), 2]], (1, 0), float("inf")),
    ([[0, 1j], [1, 0]], (0, 1), 1j),
    ([[0, 1], [1, 2**70]], (1, 1), 2**70),             # an object grid of Python ints
    (np.array([[0, None], [1, 0]], dtype=object), (0, 1), None),
], ids=["floats", "half", "strings", "inf", "complex", "huge", "object"])
def test_table_from_array_refuses_values_that_are_not_indices(grid, cell, value):
    # the first cell in row-major order that is not an integral value in
    # range is named, before any cast could make it one
    with pytest.raises(NotClosedError) as info:
        table_from_array(cyclic_group(2), grid)
    assert (info.value.x, info.value.y, info.value.result) == (*cell, value)


@pytest.mark.parametrize("grid", [
    [[0, 1], [1, 0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0 + 0j, 1 + 0j], [1 + 0j, 0 + 0j]],
    [[False, True], [True, False]],
    np.array([[0, 1], [1, 0]], dtype=np.uint8),
    np.array([[0, 1], [1, 0]], dtype=np.float16),
    np.array([[0, 1], [1, 0]], dtype=object),
])
def test_table_from_array_accepts_integral_values_of_any_numeric_dtype(grid):
    table = table_from_array(cyclic_group(2), grid).table
    assert table.dtype == np.int16 and table.tolist() == [[0, 1], [1, 0]]


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


def test_row_blocks_fixed_width():
    # consecutive blocks of cells // width rows that cover every row once, the
    # last one short; a row wider than the budget is a block on its own
    assert _row_blocks(100, CHUNK_CELLS // 10, CHUNK_CELLS) == [(a, a + 10) for a in range(0, 100, 10)]
    assert _row_blocks(7, 3, 10) == [(0, 3), (3, 6), (6, 7)]
    assert _row_blocks(9, 3, 9) == [(0, 3), (3, 6), (6, 9)]
    assert _row_blocks(5, 2, 10) == [(0, 5)]
    assert _row_blocks(3, 11, 10) == [(0, 1), (1, 2), (2, 3)]
    assert _row_blocks(3, 0, 10) == [(0, 3)]
    assert _row_blocks(0, 5, 10) == []


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

    Chunk k waits until chunk k + 1 has returned its own hit, so a later hit
    finishes first whenever the threads allow it. Chunk 0 runs alone, before
    any helper starts, so it never waits.
    """
    ran = []
    lock = threading.Lock()
    later_done = threading.Event()

    def worker(a0, a1):
        with lock:
            ran.append(a0)
        if a0 == hit_chunk > 0 and jobs > 1:
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
    # every thread holds one chunk's temporaries, so jobs past the CPU count
    # cost memory and buy nothing; reports never depend on jobs
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    monkeypatch.setattr(optables.os, "sched_getaffinity", lambda pid: {0, 1})
    lock = threading.Lock()
    running, peak, ran, threads = 0, 0, [], set()

    def worker(a0, a1):
        nonlocal running, peak
        with lock:
            running += 1
            peak = max(peak, running)
            ran.append(a0)
            threads.add(threading.get_ident())
        time.sleep(0.002)
        with lock:
            running -= 1
        return None

    assert scan_chunks(worker, 40, 1, 32) is None
    assert 1 <= len(threads) <= 2
    assert 1 <= peak <= 2
    assert sorted(ran) == list(range(40))


@pytest.mark.parametrize("error", [RuntimeError, MemoryError])
@pytest.mark.parametrize("jobs", [2, 3])
def test_scan_chunks_reraises_a_helper_error_and_joins_every_helper(error, jobs, monkeypatch):
    # chunks past 0 that the caller takes wait until a helper is about to
    # raise, so the error always comes from a helper thread; it raises a
    # moment later, so the caller sees it only by joining that helper
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    monkeypatch.setattr(optables.os, "sched_getaffinity", lambda pid: set(range(jobs)))
    raised = threading.Event()

    def worker(a0, a1):
        if a0 == 0:
            return None
        if threading.current_thread() is threading.main_thread():
            raised.wait(timeout=5)
            return None
        raised.set()
        time.sleep(0.02)
        raise error(f"chunk {a0} broke")

    before = threading.active_count()
    with pytest.raises(error, match="chunk [1-9][0-9]* broke"):
        scan_chunks(worker, 12, 1, jobs)
    assert raised.is_set()
    assert threading.active_count() == before


def test_scan_chunks_threads_agree_with_one_thread_under_fast_switching(monkeypatch):
    # more threads than cores, switching every microsecond: a lost update of
    # the cursor or the bound would run a chunk twice, skip one, or return a
    # later hit than the first
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    monkeypatch.setattr(optables.os, "sched_getaffinity", lambda pid: set(range(8)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for hits in ([], [37], [5, 6, 90], [150, 199], list(range(120, 200, 3))):
            lock = threading.Lock()
            ran = []

            def worker(a0, a1):
                with lock:
                    ran.append(a0)
                return (a0, "hit") if a0 in hits else None

            first = min(hits, default=None)
            assert scan_chunks(worker, 200, 1, 8) == (None if first is None else (first, "hit"))
            assert len(ran) == len(set(ran))
            assert set(range(200 if first is None else first + 1)) <= set(ran)
    finally:
        sys.setswitchinterval(interval)


# The endomorphism test that make_automorphism and the orbit step share:
# `optables._endomorphism_failure(s, t)` is the first (x, y) in row-major
# order with t[s x, s y] != s(t[x, y]), held to tests/reference.py.


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
    want = reference.endomorphism_failure(s.tolist(), t.tolist())
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
