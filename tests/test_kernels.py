"""The scan kernels of the law shapes at sizes where a chunk holds one or two rows.

Every shape in `axioms` gathers with take on intp indices made in row blocks
of PROOF_CELLS, read when a chunk runs. Their sides are held here to plain
list lookups on n >= 256, where a block holds a few rows of an n^2 index,
so every gather crosses block boundaries; with PROOF_CELLS patched to one
cell, every block is one row. Their traced memory is held to the
mixed-indexing kernel they replaced, which keeps no intp copy of a table.
"""

import tracemalloc

import numpy as np
import pytest

from multigroup import axioms, optables
from multigroup.carriers import cyclic_group
from multigroup.optables import table_from_array

N = 260  # n^2 > CHUNK_CELLS / 2: a chunk holds one row


def _tables(n, seed):
    carrier = cyclic_group(n)
    rng = np.random.default_rng(seed)
    a, b = (table_from_array(carrier, rng.integers(0, n, (n, n))).table for _ in range(2))
    return carrier, a, b


def _naive_sides(shape, carrier, a, b, x):
    """(left, right) of the law at first coordinate x, as nested lists over (y, z)."""
    n = len(a)
    ta, tb = a.tolist(), b.tolist()
    ys = range(n)
    if shape == "bracket":  # (x b y) a z = x b (y a z)
        return ([[ta[tb[x][y]][z] for z in ys] for y in ys],
                [[tb[x][ta[y][z]] for z in ys] for y in ys])
    if shape == "mixed":  # (x a y) b z = (x b z) a (y b z)
        return ([[tb[ta[x][y]][z] for z in ys] for y in ys],
                [[ta[tb[x][z]][tb[y][z]] for z in ys] for y in ys])
    if shape == "left":  # x a (y a z) = (x a y) a (x a z)
        return ([[ta[x][ta[y][z]] for z in ys] for y in ys],
                [[ta[ta[x][y]][ta[x][z]] for z in ys] for y in ys])
    if shape == "brace":  # x a (y + z) = (x a y) + (-x) + (x a z) on Z_n
        return ([[ta[x][(y + z) % n] for z in ys] for y in ys],
                [[(ta[x][y] - x + ta[x][z]) % n for z in ys] for y in ys])
    ops = (ta, tb)  # nvalued: sorted multisets of both bracketings over both tables
    return ([[sorted(j[i[x][y]][z] for i in ops for j in ops) for z in ys] for y in ys],
            [[sorted(i[x][j[y][z]] for i in ops for j in ops) for z in ys] for y in ys])


def _sides(shape, carrier, a, b):
    if shape == "bracket":
        return axioms._bracket(a, b, b, a)
    if shape == "mixed":
        return axioms._mixed_distrib(a, b)
    if shape == "left":
        return axioms._left_distrib(a)
    if shape == "brace":
        return axioms._brace_compatibility(carrier.cayley, a)
    return axioms._nvalued(np.stack([a, b]))


SHAPES = ["bracket", "mixed", "left", "brace", "nvalued"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k", [1, 2])
def test_sides_equal_naive_lookups_on_large_carriers(shape, k):
    carrier, a, b = _tables(N, seed=k)
    rows = np.sort(np.random.default_rng(k).choice(N, size=k, replace=False))
    left, right = _sides(shape, carrier, a, b)(rows)
    assert left.shape[:3] == right.shape[:3] == (k, N, N)
    for i, x in enumerate(rows.tolist()):
        want_left, want_right = _naive_sides(shape, carrier, a, b, x)
        assert left[i].tolist() == want_left
        assert right[i].tolist() == want_right


def _recording_steps(monkeypatch):
    steps = []
    real = axioms._step

    def step(width):
        steps.append(real(width))
        return steps[-1]

    monkeypatch.setattr(axioms, "_step", step)
    return steps


@pytest.mark.parametrize("shape", SHAPES)
def test_blocks_follow_proof_cells_at_call_time(shape, monkeypatch):
    # the shape is built before the patch, so only a chunk that sizes its
    # blocks from PROOF_CELLS when it runs gathers one index row at a time
    n = 40
    carrier, a, b = _tables(n, seed=3)
    sides = _sides(shape, carrier, a, b)
    rows = np.array([0, 17, 39])
    steps = _recording_steps(monkeypatch)
    want = sides(rows)
    assert steps and min(steps) > 1
    steps.clear()
    monkeypatch.setattr(optables, "PROOF_CELLS", 1)
    got = sides(rows)
    assert steps and set(steps) == {1}
    for side, expected in zip(got, want):
        assert np.array_equal(side, expected)


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
    # sides; the blocked kernel may add one block of intp indices, 64 KB. An
    # intp copy of the 360 x 360 table, 1 MB, does not fit.
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

    bound = _traced_peak(replaced) + 2 * optables.PROOF_CELLS
    assert _traced_peak(blocked) <= bound
    assert _traced_peak(persistent_copy) > bound
