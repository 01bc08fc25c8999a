"""Operation tables, the index-array helpers on them, axiom reports, and multisets.

An OpTable is a dense |Q| x |Q| grid of result indices over a fixed carrier.
Closure is structural: a table cannot be built from a value that is not the
index of a carrier element. The helpers below work on such grids alone: units
and inverses and, in row blocks within the proof budget PROOF_CELLS, the first
pair an index map fails to preserve and a generating set of a magma. Carriers
use them for their automorphisms and orbit candidates, and the checks for
their proofs and to verify those candidates. The gather kernel (_take,
_take_pairs) takes table cells by ndarray.take on intp indices built one
block of GATHER_CELLS at a time; the scans of axioms, the Cayley tables of
carriers and the constructions all gather through it. Every budgeted loop,
here, in axioms and in carriers, takes its row blocks from _row_blocks.
AxiomReports serialize to the stable JSON shape
{axiom, verdict, witness, checked, reason, exhaustive}; the witness is always
the lexicographically first violating tuple in carrier order, so reports are
byte-reproducible regardless of how the scan was parallelized.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

import numpy as np

from .errors import CarrierMismatchError, ChoiceError, JobsError, NotClosedError, as_integer, is_integer

if TYPE_CHECKING:
    from .carriers import Carrier

# Rows per scan chunk are chosen so one chunk holds about this many cells,
# independent of thread count; witnesses and counts never depend on chunking.
# At 2^17 cells a chunk's int16 gathers and bool mask (about 0.6 MB) stay in
# cache and are reused from the heap; at 1.5 M cells every chunk mapped and
# faulted in fresh pages, which made a passing assoc scan on 625 elements
# about 40 % slower. From 2^18 to 2^17 cells, one row per chunk on 360
# elements instead of two, the failing scans of cyclic(360) kept their speed
# and their process peaked 1.2 MB lower.
CHUNK_CELLS = 131_072

# The proofs in axioms and the table helpers below keep their temporaries
# within the bytes of 2^15 int16 cells (64 KB), a quarter of a scan chunk's
# gather: with the budget of a full 2^18-cell chunk, a failing assoc check on
# a 360-element carrier (proof, then scan) peaked about 1.2 MB above the scan
# alone; with 2^15 cells, 0.2-0.3 MB above.
PROOF_CELLS = 32_768

# The gather kernel below (_take and _take_pairs) builds its intp indices in
# blocks of at most this many cells, 128 KB. Its users are the scans of the
# law shapes in axioms, the Cayley tables of carriers and the constructions,
# so no n^2 table is ever copied to intp whole. numpy lets go of the GIL
# inside each take, and the Python between blocks holds it, so a second scan
# thread pays only when blocks are large. Against 8,192-index blocks, 16,384
# took the failing scans of cyclic(360) at --jobs 2 from 0.38 to 0.35
# calibration units at the same process peak, and a full rack_right scan on
# 1152 elements at --jobs 2 from 2.3 to 1.4 s; 24,576 and 32,768 were no
# faster on the former and raised its peak by 0.12 and 0.38 MB.
GATHER_CELLS = 16_384


def index_dtype(n: int):
    """The dtype of an index table over n elements: int16 up to 32767, else int32."""
    return np.int16 if n <= np.iinfo(np.int16).max else np.int32


def first_true(mask: np.ndarray):
    """C-order index tuple of the first True in mask, or None when there is none.

    The position is the logical C-order one even for non-contiguous views
    (argmax flattens in C order), so it is the lexicographically first hit.
    """
    if not mask.size:
        return None
    i = int(np.argmax(mask))
    if not mask.flat[i]:
        return None
    return tuple(int(k) for k in np.unravel_index(i, mask.shape))


def unit_indices(rows: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """The e whose row in `rows` and column in `cols` (default `rows`) are the identity map.

    With one table these are its two-sided units: e*x = x = x*e for every x.
    """
    cols = rows if cols is None else cols
    every = np.arange(len(rows))
    return np.flatnonzero((rows == every).all(axis=1) & (cols == every[:, None]).all(axis=0))


def inverse_indices(table: np.ndarray, e: int) -> np.ndarray:
    """For each a, the first b with a*b = b*a = e, or -1 when there is none."""
    both = (table == e) & (table.T == e)
    return np.where(both.any(axis=1), both.argmax(axis=1), -1)


def _row_blocks(n: int, width: int, cells: int) -> list:
    """Consecutive (a0, a1) blocks of n rows of `width` cells: cells // width rows, at least one.

    Every budgeted loop takes its blocks here, passing its budget as it runs.
    The proofs and table helpers pass 4 * width where each cell becomes an
    8-byte temporary (an intp index or a uint64 key), which then takes the
    bytes of PROOF_CELLS int16 cells.
    """
    step = max(1, cells // max(1, width))
    if step >= n:  # at most one block, the common case on small tables
        return [(0, n)] if n else []
    return list(zip(range(0, n, step), [*range(step, n, step), n]))


# The gather kernel. Mixed slice-and-array indexing such as C[rows][:, D] runs
# element by element when a scan chunk holds one or two rows, where take is
# 2-5 times faster; two-array indexing t[A, B] over a whole table converts its
# index arrays to intp whole, and the Cayley tables and constructions built
# by take instead took half the time or less. take too turns an index of
# another dtype into a whole intp copy first, 8 bytes a cell, so an index of
# n^2 cells (a whole table, or the flat positions x m + y of a pair gather
# t[x, y]) is converted or built one row block of at most GATHER_CELLS cells
# at a time, read when the gather runs. Indices come from closed tables and
# are in range, so mode="clip" changes no value; it lets take write straight
# into a contiguous out block, where the default mode first copies out, and
# it skips the bounds check.


def _take(values, index, axis):
    """values.take(index, axis=axis), with index converted to intp one row block at a time.

    The result has the shape values.shape[:axis] + index.shape +
    values.shape[axis + 1:]. Rows are those of index with every axis but its
    last merged, and a block holds as many as fit in GATHER_CELLS indices; an
    index of one block is taken whole.
    """
    rows = index.reshape(-1, index.shape[-1])
    blocks = _row_blocks(len(rows), rows.shape[1], GATHER_CELLS)
    if len(blocks) == 1:
        return values.take(index, axis=axis, mode="clip")
    lead, tail = values.shape[:axis], values.shape[axis + 1:]
    out = np.empty(lead + rows.shape + tail, dtype=values.dtype)
    before = (slice(None),) * axis
    for r0, r1 in blocks:
        values.take(rows[r0:r1], axis=axis, out=out[before + (slice(r0, r1),)], mode="clip")
    return out.reshape(lead + index.shape + tail)


def _take_pairs(t, first, second):
    """t[first, second] for index arrays of any broadcast shape, gathered by take.

    t is a 2-D grid, and its flat positions first * m + second (m columns)
    are built in intp: whole when they fit one block of GATHER_CELLS
    indices, else one block of the second-to-last axis (the only axis of a
    1-D shape) at a time. first is scaled once, at its own size, when it
    holds at most GATHER_CELLS indices, as the scan's rows do; a larger
    first, a construction's whole inner table, is scaled in each block.
    """
    m, flat = t.shape[1], t.reshape(-1)
    pairs = np.broadcast(first, second)
    small = np.size(first) <= GATHER_CELLS
    if small:
        first = np.multiply(first, m, dtype=np.intp)
        if pairs.size <= GATHER_CELLS:
            return flat.take(first + second, mode="clip")
    shape = pairs.shape
    axis = max(0, len(shape) - 2)
    first, second = np.broadcast_to(first, shape), np.broadcast_to(second, shape)
    out = np.empty(shape, dtype=t.dtype)
    before = (slice(None),) * axis
    for b0, b1 in _row_blocks(shape[axis], pairs.size // shape[axis], GATHER_CELLS):
        b = before + (slice(b0, b1),)
        if small:
            positions = first[b] + second[b]
        else:
            positions = np.multiply(first[b], m, dtype=np.intp)
            positions += second[b]
        flat.take(positions, out=out[b], mode="clip")
        del positions  # else it lives on beside the next block's, one more block of peak
    return out


def _endomorphism_failure(s: np.ndarray, t: np.ndarray):
    """The first (x, y) in row-major order with t[s x, s y] != s(t[x, y]), or None.

    None means the index map s is an endomorphism of t, and an automorphism
    when s is a permutation. Each row block takes a row take, a column take
    and an image gather.
    """
    images = s.astype(t.dtype)
    for a0, a1 in _row_blocks(len(t), 4 * len(t), PROOF_CELLS):
        moved = t.take(s[a0:a1], axis=0).take(s, axis=1)
        hit = first_true(moved != images.take(t[a0:a1]))
        if hit is not None:
            return a0 + hit[0], hit[1]
    return None


def _close_right(t: np.ndarray, reached: np.ndarray, gens: np.ndarray, seeds: np.ndarray) -> None:
    """Mark in `reached` the seeds and their products on the right by gens, repeated.

    Each round multiplies the newly reached elements on the right by every
    generator, one gather per row block. Every element marked is a product of
    generators. On an associative table the marks are closed under right
    products by the generators, so they hold every word that starts with a
    seed and goes on in generators.
    """
    hit = np.zeros(len(t), dtype=bool)
    hit[seeds] = True
    new = np.flatnonzero(hit & ~reached)
    while len(new):
        reached[new] = True
        for a0, a1 in _row_blocks(len(new), 4 * len(gens), PROOF_CELLS):
            hit[t[new[a0:a1, None], gens]] = True
        new = np.flatnonzero(hit & ~reached)


def _image_sizes(t: np.ndarray) -> np.ndarray:
    """|x Q| for every x: the number of distinct entries in each row of t."""
    n = len(t)
    sizes = np.empty(n, dtype=np.intp)
    for a0, a1 in _row_blocks(n, 2 * n, PROOF_CELLS):
        block = np.sort(t[a0:a1], axis=1)
        sizes[a0:a1] = 1 + np.count_nonzero(block[:, 1:] != block[:, :-1], axis=1)
    return sizes


def _generators(t: np.ndarray, limit: int):
    """A generating set of the magma t, or None when it needs more than `limit`.

    The elements outside t's image come first, since every generating set
    holds them. Then, while some element is not reached, the one with the
    largest image x Q (the least on ties) joins: in a matrix monoid the units
    come first, and a few of them generate the whole group of units. A
    joining g seeds the closure by right products (_close_right) with g and
    with x g for every reached x. Every reached element is generated, so the
    set always generates t. On an associative table the reached elements are
    every word in the set, the whole submagma it generates, so the set is
    the one a closure under every product of members would pick.
    """
    n = len(t)
    image = np.zeros(n, dtype=bool)
    for a0, a1 in _row_blocks(n, 4 * n, PROOF_CELLS):
        image[t[a0:a1]] = True
    gens = np.flatnonzero(~image)
    if len(gens) > limit:
        return None
    reached = np.zeros(n, dtype=bool)
    _close_right(t, reached, gens, gens)
    gens = gens.tolist()
    for g in np.argsort(-_image_sizes(t), kind="stable").tolist():
        if reached[g]:
            continue
        if len(gens) == limit:
            return None
        gens.append(g)
        _close_right(t, reached, np.array(gens), np.append(t[reached, g], g))
    return np.array(gens, dtype=np.intp)


def encode_element(element):
    """Carrier element encoding as JSON-ready data (tuples become lists)."""
    if isinstance(element, tuple):
        return [encode_element(v) for v in element]
    if isinstance(element, (int, np.integer)):
        return int(element)
    return element


class _Frozen:
    """Base of the records compared by identity: __init__ sets every attribute once.

    Assigning or deleting an attribute afterwards raises AttributeError. The
    memo and the cached tables rely on it: an OpTable's grid and a Carrier's
    elements never change. cached_property still fills the instance dict.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")


class OpTable(_Frozen):
    """A binary operation on a carrier, stored as an index grid.

    _memo keeps what the checks learn about the grid alone (see axioms). The
    grid is write-protected, so nothing kept there goes stale, and `relabel`,
    which keeps the grid, keeps the memo too.
    """

    def __init__(self, carrier: Carrier, table: np.ndarray, label: str = "op"):
        n = len(carrier)
        if table.shape != (n, n):
            raise CarrierMismatchError(
                f"table shape {table.shape} does not match carrier of size {n}"
            )
        table.setflags(write=False)
        vars(self).update(carrier=carrier, table=table, label=label, _memo={})

    def __repr__(self):
        return f"<OpTable {self.label!r} on {self.carrier.label}>"

    def __len__(self):
        return len(self.carrier)

    def apply_index(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def apply(self, x, y):
        index_of = self.carrier.index_of
        return self.carrier.elements[self.table[index_of(x), index_of(y)]]

    def relabel(self, label: str) -> "OpTable":
        op = OpTable(self.carrier, self.table, label)
        vars(op)["_memo"] = self._memo
        return op


def table_from_array(carrier: Carrier, array, label: str = "op") -> OpTable:
    """Wrap a precomputed index grid of integral values in 0..n-1, of any numeric or bool dtype.

    Validation runs on the values as given, before the cast to index_dtype:
    the first cell in row-major order out of range, not integral (0.9) or not
    a number ('1'; an object grid may hold integers) raises NotClosedError and
    is never wrapped or truncated into range. A grid already contiguous at
    index_dtype is wrapped without a copy.
    """
    arr = np.asarray(array)
    n = len(carrier)
    if arr.shape != (n, n):
        raise CarrierMismatchError(f"array shape {arr.shape} vs carrier size {n}")
    kind = arr.dtype.kind
    if kind not in "biu" or arr.size and (arr.min() < 0 or arr.max() >= n):
        if kind in "biufc":
            real = arr.real
            bad = (real < 0) | (real >= n) | (real != np.floor(real)) | (arr.imag != 0)
        elif kind == "O":
            index = np.frompyfunc(lambda v: is_integer(v) and 0 <= v < n, 1, 1)
            bad = ~index(arr).astype(bool)
        else:
            bad = np.ones(arr.shape, dtype=bool)
        hit = first_true(bad)
        if hit is not None:
            raise NotClosedError(*(carrier.elements[i] for i in hit), arr.item(*hit))
    table = np.ascontiguousarray(arr.real if kind == "c" else arr, dtype=index_dtype(n))
    return OpTable(carrier=carrier, table=table, label=label)


def build_op_table(carrier: Carrier, rule: Callable, label: str = "op") -> OpTable:
    """Evaluate rule(x, y) over all ordered pairs and index the results.

    Exactly |Q|^2 rule evaluations. A result outside the carrier raises
    NotClosedError naming the first offending pair in row-major order.
    """
    idx = carrier.index
    n = len(carrier)
    grid = np.empty((n, n), dtype=index_dtype(n))
    for i, x in enumerate(carrier.elements):
        row = grid[i]
        for j, y in enumerate(carrier.elements):
            out = rule(x, y)
            k = idx.get(out)
            if k is None:
                raise NotClosedError(x, y, out)
            row[j] = k
    return OpTable(carrier=carrier, table=grid, label=label)


def shared_carrier(*ops: OpTable) -> Carrier:
    first = ops[0].carrier
    for op in ops[1:]:
        if op.carrier is not first and not op.carrier.same_as(first):
            raise CarrierMismatchError(
                f"tables {ops[0].label!r} and {op.label!r} live on different carriers"
            )
    return first


class Multiset(NamedTuple):
    """A multiset of carrier indices, stored as sorted (index, multiplicity) pairs."""

    entries: tuple

    @classmethod
    def from_indices(cls, indices: Iterable) -> "Multiset":
        counts: dict = {}
        for i in indices:
            i = as_integer(i, "multiset index")
            counts[i] = counts.get(i, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def from_entries(cls, pairs: Iterable) -> "Multiset":
        counts: dict = {}
        for i, m in pairs:
            i, m = as_integer(i, "multiset index"), as_integer(m, "multiplicity")
            if m < 0:
                raise ChoiceError("multiplicities must be non-negative")
            if m:
                counts[i] = counts.get(i, 0) + m
        return cls(tuple(sorted(counts.items())))

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def scaled(self, k: int) -> "Multiset":
        return Multiset.from_entries((i, m * k) for i, m in self.entries)

    def union(self, other: "Multiset") -> "Multiset":
        return Multiset.from_entries(list(self.entries) + list(other.entries))


VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
REASON_NO_SOLUTION = "no-solution"
REASON_NOT_UNIQUE = "exists-not-unique"


class AxiomReport(NamedTuple):
    """Outcome of one axiom check over a whole table."""

    axiom: str
    verdict: str
    witness: tuple | None
    checked: int
    reason: str | None = None
    exhaustive = True  # every check decides its whole tuple space

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_PASS

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": self.verdict,
            "witness": None if self.witness is None else [encode_element(w) for w in self.witness],
            "checked": self.checked,
            "reason": self.reason,
            "exhaustive": self.exhaustive,
        }


def passing(axiom: str, checked: int) -> AxiomReport:
    return AxiomReport(axiom, VERDICT_PASS, None, checked)


def failing(
    axiom: str,
    carrier: Carrier,
    witness_indices,
    checked: int,
    reason: str | None = None,
) -> AxiomReport:
    witness = tuple(carrier.elements[int(i)] for i in witness_indices)
    return AxiomReport(axiom, VERDICT_FAIL, witness, checked, reason)


def job_count(jobs) -> int:
    """jobs as an int by errors.as_integer, bools and numpy integers included; JobsError below 1."""
    count = as_integer(jobs, "jobs") if is_integer(jobs) else 0
    if count < 1:
        raise JobsError(f"jobs must be an integer of at least 1, not {jobs!r}")
    return count


def scan_chunks(worker: Callable, n_rows: int, cells_per_row: int, jobs: int = 1):
    """Run worker(a0, a1) over fixed chunks in order and return the first hit.

    worker returns the lexicographically first violation in its chunk as an
    index tuple (with absolute first coordinate), or None. The result is the
    first non-None in chunk order, which is the global lexicographic minimum
    because chunks partition the first axis in order.

    The caller scans chunk 0 alone, so a law that fails there starts no
    thread. Past it, the caller and jobs - 1 helper threads take chunk
    indices in order from one shared cursor. A hit, or an exception, at
    chunk k lowers a shared bound to k, and no thread starts a chunk at or
    past the bound. Every chunk before k was taken already and runs to its
    end, so the outcome of the least chunk that has one wins: its hit is
    returned, or its exception, MemoryError included, is raised here, just
    as a scan on one thread would. Chunks past it that other threads began
    before the bound fell run to their end, and their outcomes are
    discarded. Every helper is joined before the scan returns.

    The result never depends on `jobs`, so jobs is capped at the CPUs this
    process may run on: each thread holds one chunk's temporaries, and more
    threads than CPUs only add memory and switching.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(jobs, cpus or 1)
    ranges = _row_blocks(n_rows, cells_per_row, CHUNK_CELLS)
    found = worker(*ranges[0]) if ranges else None
    if found is not None or len(ranges) <= 1:
        return found
    lock = threading.Lock()
    cursor, bound = 1, len(ranges)
    outcomes = {}  # chunk index -> (hit, exception), one of them None

    def pull():
        nonlocal cursor, bound
        while True:
            with lock:
                k = cursor
                if k >= bound:
                    return
                cursor = k + 1
            try:
                found, error = worker(*ranges[k]), None
            except Exception as exc:
                found, error = None, exc
            if found is not None or error is not None:
                with lock:
                    outcomes[k] = found, error
                    bound = min(bound, k)

    helpers = []
    try:
        for _ in range(jobs - 1):
            helper = threading.Thread(target=pull, name="multigroup-scan")
            helper.start()
            helpers.append(helper)
        pull()
    finally:
        with lock:
            bound = 0  # should the caller be interrupted, helpers start nothing more
        for helper in helpers:
            helper.join()
    if not outcomes:
        return None
    found, error = outcomes[min(outcomes)]
    if error is not None:
        raise error
    return found
