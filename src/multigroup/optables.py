"""Operation tables, axiom reports, and multisets.

An OpTable is a dense |Q| x |Q| grid of result indices over a fixed carrier.
Closure is structural: a table cannot be built with results outside the
carrier. AxiomReports serialize to the stable JSON shape
{axiom, verdict, witness, checked, reason, exhaustive}; the witness is always
the lexicographically first violating tuple in carrier order, so reports are
byte-reproducible regardless of how the scan was parallelized.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from .errors import CarrierMismatchError, NotClosedError

if TYPE_CHECKING:
    from .carriers import Carrier

# Rows per scan chunk are chosen so one chunk holds about this many cells,
# independent of thread count; witnesses and counts never depend on chunking.
# At 2^18 cells a chunk's int16 gathers and bool mask (about 1.3 MB) stay in
# cache and are reused from the heap; at 1.5 M cells every chunk mapped and
# faulted in fresh pages, which made a passing assoc scan on 625 elements
# about 40 % slower.
CHUNK_CELLS = 262_144


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


def encode_element(element):
    """Carrier element encoding as JSON-ready data (tuples become lists)."""
    if isinstance(element, tuple):
        return [encode_element(v) for v in element]
    if isinstance(element, (int, np.integer)):
        return int(element)
    return element


@dataclass(frozen=True, eq=False)
class OpTable:
    """A binary operation on a carrier, stored as an index grid."""

    carrier: Carrier
    table: np.ndarray
    label: str = "op"

    def __post_init__(self):
        n = len(self.carrier)
        if self.table.shape != (n, n):
            raise CarrierMismatchError(
                f"table shape {self.table.shape} does not match carrier of size {n}"
            )
        self.table.setflags(write=False)

    def __len__(self):
        return len(self.carrier)

    def apply_index(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def apply(self, x, y):
        idx = self.carrier.index
        return self.carrier.elements[self.table[idx[x], idx[y]]]

    def relabel(self, label: str) -> "OpTable":
        return OpTable(self.carrier, self.table, label)


def table_from_array(carrier: Carrier, array, label: str = "op") -> OpTable:
    """Wrap a precomputed index grid; values are validated to be in range.

    Validation runs on the integer values as given, before the cast to
    index_dtype, so an out-of-range value is reported and never wrapped into
    range. A grid already contiguous at index_dtype is wrapped without a copy.
    """
    arr = np.asarray(array)
    if arr.dtype.kind not in "iu":
        arr = arr.astype(np.int64)
    n = len(carrier)
    if arr.shape != (n, n):
        raise CarrierMismatchError(f"array shape {arr.shape} vs carrier size {n}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        x, y = first_true((arr < 0) | (arr >= n))
        raise NotClosedError(carrier.elements[x], carrier.elements[y], int(arr[x, y]))
    table = np.ascontiguousarray(arr, dtype=index_dtype(n))
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


@dataclass(frozen=True)
class Multiset:
    """A multiset of carrier indices, stored as sorted (index, multiplicity) pairs."""

    entries: tuple

    @classmethod
    def from_indices(cls, indices: Iterable) -> "Multiset":
        counts: dict = {}
        for i in indices:
            i = int(i)
            counts[i] = counts.get(i, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @classmethod
    def from_entries(cls, pairs: Iterable) -> "Multiset":
        counts: dict = {}
        for i, m in pairs:
            if m < 0:
                raise ValueError("multiplicities must be non-negative")
            if m:
                counts[int(i)] = counts.get(int(i), 0) + int(m)
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


@dataclass(frozen=True)
class AxiomReport:
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


def chunk_ranges(n: int, width: int):
    """Fixed-width row chunks; width never depends on the thread count."""
    step = max(1, width)
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def scan_chunks(worker: Callable, n_rows: int, cells_per_row: int, jobs: int = 1):
    """Run worker(a0, a1) over fixed chunks in order and return the first hit.

    worker returns the lexicographically first violation in its chunk as an
    index tuple (with absolute first coordinate), or None. The result is the
    first non-None in chunk order, which is the global lexicographic minimum
    because chunks partition the first axis in order. The scan stops at the
    chunk that holds it: with jobs > 1 at most `jobs` chunks are in flight,
    submitted in chunk order and collected oldest first, so at most jobs - 1
    chunks past the witness chunk run and their results are discarded. The
    result never depends on `jobs`.
    """
    rows = max(1, CHUNK_CELLS // max(1, cells_per_row))
    ranges = chunk_ranges(n_rows, rows)
    if jobs <= 1 or len(ranges) <= 1:
        for a0, a1 in ranges:
            found = worker(a0, a1)
            if found is not None:
                return found
        return None
    pending = iter(ranges)
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        window = deque(pool.submit(worker, *r) for r in islice(pending, jobs))
        while window:
            found = window.popleft().result()
            if found is not None:
                for future in window:
                    future.cancel()
                return found
            nxt = next(pending, None)
            if nxt is not None:
                window.append(pool.submit(worker, *nxt))
    return None
