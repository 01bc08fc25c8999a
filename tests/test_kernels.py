"""The scan kernels of the law shapes at sizes where a chunk holds one or two rows.

Every shape in `axioms` gathers with take on intp indices made in row blocks
of GATHER_CELLS, the scan's own budget, read when a chunk runs; the proofs
and table helpers keep PROOF_CELLS, and neither budget moves the other's
blocks. Their sides are held here to plain list lookups on n >= 256, where a
block holds a few rows of an n^2 index, so every gather crosses block
boundaries, by the laws of tests/reference.py; with GATHER_CELLS patched to
one cell, every block is one row.
Their traced memory is held to the mixed-indexing kernel they replaced,
which keeps no intp copy of a table, and a scan on two threads to twice
what it holds on one.
"""

import tracemalloc

import numpy as np
import pytest

import reference
from multigroup import axioms, optables
from multigroup.carriers import cyclic_group
from multigroup.optables import table_from_array

N = 260  # n^2 > CHUNK_CELLS / 2: a chunk holds one row


def _tables(n, seed):
    carrier = cyclic_group(n)
    rng = np.random.default_rng(seed)
    a, b = (table_from_array(carrier, rng.integers(0, n, (n, n))).table for _ in range(2))
    return carrier, a, b


def _naive_law(shape, carrier, a, b):
    """The law of the shape in tests/reference.py, on the tables as lists."""
    ta, tb = a.tolist(), b.tolist()
    if shape == "bracket":
        return reference.bracket(ta, tb, tb, ta)
    if shape == "mixed":
        return reference.mixed_distrib(ta, tb)
    if shape == "left":
        return reference.left_distrib(ta)
    if shape == "brace":
        return reference.brace_compatibility(carrier.cayley.tolist(), ta)
    return reference.multiset_assoc(ta, tb)


def _sides(shape, carrier, a, b):
    if shape == "bracket":
        return axioms._bracket(a, b, b, a)
    if shape == "mixed":
        return axioms._mixed_distrib(a, b)
    if shape == "left":
        return axioms._left_distrib(a)
    if shape == "brace":
        return axioms._brace_compatibility(carrier.cayley, a)
    return axioms._nvalued(a, b)


SHAPES = ["bracket", "mixed", "left", "brace", "nvalued"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", [1, 2])
def test_sides_equal_naive_lookups_on_large_carriers(shape, k):
    carrier, a, b = _tables(N, seed=k)
    rows = np.sort(np.random.default_rng(k).choice(N, size=k, replace=False))
    left, right = _sides(shape, carrier, a, b)(rows)
    assert left.shape[:3] == right.shape[:3] == (k, N, N)
    law = _naive_law(shape, carrier, a, b)
    for i, x in enumerate(rows.tolist()):
        want_left, want_right = reference.plane(law, N, x)
        assert left[i].tolist() == want_left
        assert right[i].tolist() == want_right


def _recording_steps(monkeypatch):
    steps = []
    real = optables._row_blocks

    def blocks(n, width, cells):
        got = real(n, width, cells)
        steps.extend(a1 - a0 for a0, a1 in got)
        return got

    monkeypatch.setattr(optables, "_row_blocks", blocks)  # where the gather kernel takes its blocks
    return steps


@pytest.mark.parametrize("shape", SHAPES)
def test_blocks_follow_proof_cells_at_call_time(shape, monkeypatch):
    # The gathers size their blocks from GATHER_CELLS, not PROOF_CELLS. The
    # shape is built before each patch, so only a chunk that sizes its blocks
    # from GATHER_CELLS when it runs gathers one index row at a time, and
    # patching PROOF_CELLS alone leaves every block as it was.
    n = 40
    carrier, a, b = _tables(n, seed=3)
    sides = _sides(shape, carrier, a, b)
    rows = np.array([0, 17, 39])
    steps = _recording_steps(monkeypatch)
    want = sides(rows)
    assert steps and min(steps) > 1
    unpatched = list(steps)
    steps.clear()
    monkeypatch.setattr(optables, "PROOF_CELLS", 1)
    assert all(np.array_equal(side, expected) for side, expected in zip(sides(rows), want))
    assert steps == unpatched
    steps.clear()
    monkeypatch.setattr(optables, "GATHER_CELLS", 1)
    got = sides(rows)
    assert steps and set(steps) == {1}
    for side, expected in zip(got, want):
        assert np.array_equal(side, expected)


class _Logged(np.ndarray):
    """An array that logs the index shape of every take and the shape of every item read from it."""

    log = []

    def take(self, indices, axis=None, out=None, mode="raise"):
        _Logged.log.append(("take", np.shape(indices), axis))
        return super().take(indices, axis=axis, out=out, mode=mode)

    def __getitem__(self, key):
        item = super().__getitem__(key)
        _Logged.log.append(("item", np.shape(item)))
        return item


def _budget_runs():
    """(name, run, whose budget) for the gathers and for proofs and table helpers on n = 40.

    Each run reads its tables through _Logged, so its log shows every block.
    """
    n = 40
    carrier, a, b = _tables(n, seed=5)
    group = carrier.cayley
    rows = np.array([0, 17, 39])
    automorphism = 3 * np.arange(n) % n  # x -> 3x on Z_40, so no row block stops early
    return [
        ("_take", lambda: axioms._take(a[rows].view(_Logged), b, 1), "GATHER_CELLS"),
        ("_take_pairs", lambda: axioms._take_pairs(
            a.view(_Logged), b[rows][:, :, None], b[rows][:, None, :]), "GATHER_CELLS"),
        ("_endomorphism_failure", lambda: optables._endomorphism_failure(
            automorphism, group.view(_Logged)), "PROOF_CELLS"),
        ("_associative", lambda: axioms._associative(group.view(_Logged), 1 << 62), "PROOF_CELLS"),
        ("_row_keys", lambda: axioms._row_keys(a.view(_Logged)), "PROOF_CELLS"),
    ]


def _logged(run):
    _Logged.log = []
    return np.asarray(run()), _Logged.log


@pytest.mark.parametrize("name", [name for name, _, _ in _budget_runs()])
def test_scan_and_proof_budgets_stay_apart(name, monkeypatch):
    # The gathers size their blocks from GATHER_CELLS alone, and the proofs
    # and table helpers from PROOF_CELLS alone: cutting one budget to a cell
    # changes the blocks of its own users and no block of the other's
    run, own = next((run, own) for n, run, own in _budget_runs() if n == name)
    other = "PROOF_CELLS" if own == "GATHER_CELLS" else "GATHER_CELLS"
    want, unpatched = _logged(run)
    for budget, moves in ((other, False), (own, True)):
        with monkeypatch.context() as patch:
            patch.setattr(optables, budget, 1)
            got, log = _logged(run)
        assert np.array_equal(got, want)
        assert (log != unpatched) == moves, budget


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bracket_chunk_keeps_no_intp_copy_of_a_table():
    # One chunk of assoc on 360 elements, the shape's construction included.
    # The replaced kernel, mixed slice-and-array indexing, peaks at its two
    # sides; the blocked kernel may add one scan block of intp indices,
    # 8 * GATHER_CELLS bytes. An intp copy of the 360 x 360 table, 1 MB, does
    # not fit.
    n = 360
    _, t, _ = _tables(n, seed=0)
    rows = np.arange(max(1, optables.CHUNK_CELLS // (n * n)))
    t[rows], t[:1, :1].astype(np.intp)  # warm the allocator's small pools

    def replaced():
        return t[t[rows], :], t[rows][:, t]

    def blocked():
        return axioms._bracket(t, t, t, t)(rows)

    def persistent_copy():
        index = t.astype(np.intp)
        return t.take(t[rows], axis=0), t[rows].take(index, axis=1)

    bound = _traced_peak(replaced) + 8 * optables.GATHER_CELLS
    assert _traced_peak(blocked) <= bound
    assert _traced_peak(persistent_copy) > bound


def test_two_job_scan_holds_two_chunks_at_most():
    # A passing assoc scan of eight one-row chunks on Z_360. Each thread holds
    # one chunk's two int16 sides, their mask and one gather block, so two
    # jobs peak at no more than twice one job, and one job holds no intp copy
    # of the 360 x 360 table (1 MB) that a whole-index take would make.
    n = 360
    slack = 32 * 1024  # the helper thread, the scan's bookkeeping and small index arrays
    t = cyclic_group(n).cayley
    rows = np.arange(8)
    assert optables.CHUNK_CELLS // (n * n) == 1
    sides = axioms._bracket(t, t, t, t)
    axioms._first_failure(sides, rows[:1], n * n, 1)  # warm the allocator's small pools
    found, peaks = {}, {}
    for jobs in (1, 2):
        tracemalloc.start()
        try:
            found[jobs] = axioms._first_failure(sides, rows, n * n, jobs)
            peaks[jobs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert found[1] is None and found[2] is None
    chunk = 2 * t.nbytes + n * n + 8 * optables.GATHER_CELLS  # one row's sides, mask, block
    assert peaks[1] <= chunk + slack
    assert peaks[2] <= 2 * peaks[1] + slack
