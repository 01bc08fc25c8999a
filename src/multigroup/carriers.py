"""Finite carriers: indexed element sets with a canonical order.

A Carrier fixes the element universe for operation tables. Canonical orders:
matrices are row-major lexicographic, permutations are in one-line-notation
order, pairs are lexicographic with the left component first.

Monoid and group carriers multiply in index space. `Carrier.product(i, j)`
gives the index of elements[i] * elements[j] elementwise over index arrays:
arithmetic for cyclic groups, the factors' products for direct products, and
one column decomposition for permutations and matrices. Column c of x y
depends only on column c of y, so the product's rank is a sum of one
precomputed part per column, taken by the table layer's pair gather
(`optables._take_pairs`); a dense rank index turns the rank into an index
when the rank space has at most |Q|^2 cells, a binary search over the sorted
ranks otherwise. The |Q| x |Q| Cayley table `cayley` is built by take on
first use, once per carrier object, and is write-protected: permutations and
matrices sum one take along the columns per column part, a row block at a
time; direct products take each factor's table by rows, then by columns;
cyclic groups rotate 0..n-1. No table here is gathered by two-array indexing
t[A, B], which converts whole index arrays to intp and runs 2-3 times slower.
`mul` multiplies two encodings in the carrier's own arithmetic and finds the
product by bisection over the elements, whose canonical order is the order
of their encodings, so one product builds no table at all, and `inv`,
`group_power` and `element_order` on one element are binary powers of
encodings through `mul`. Inverses are powers: every x in a group of order n
has x^n = e, so x^-1 = x^(n-1) by binary powering, and powers are reduced
mod n. Element orders (`element_order`, and `orders` for `group_exponent`)
take one binary power per prime factor of n; GL_n keeps the matrices of
nonzero determinant.
Vector-group pairs carry an action table `action[A, v]` instead. Cyclic,
symmetric and matrix groups also offer `automorphism_candidates`, index
permutations that the axiom checks verify on each table before reducing a
law to orbits, each once per OpTable. `make_automorphism` and that
verification share one row-block endomorphism test from the table layer
(`optables`), which also gives the generating set that the conjugation
candidates use.

Element encodings are plain hashable Python values: ints for cyclic groups and
integer windows, tuples for permutations and vectors, tuples of row tuples for
matrices, and 2-tuples for products and vector-group pairs.
"""

import bisect
import itertools
import math
import os
from collections.abc import Sequence
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ActionMismatchError,
    DimensionMismatchError,
    NotAnElementError,
    NotBijectiveError,
    NotClosedError,
    NotHomomorphismError,
    NoUnitError,
    TooLargeError,
    UnsupportedCarrierError,
    as_integer,
    integer_text,
    is_integer,
)
from .field import PrimeField
from .matrix import Matrix, identity_rows, mat_inv, mat_mul
from .optables import (
    _endomorphism_failure,
    _Frozen,
    _generators,
    _row_blocks,
    _take_pairs,
    first_true,
    index_dtype,
)

DEFAULT_GUARD = 10**6

# Cells per Cayley chunk. A chunk's rank sum, its column takes and lookup are
# a few arrays of at most int64 per cell, half a megabyte each, so building a
# table adds little to peak memory.
CAYLEY_CHUNK_CELLS = 65_536

KINDS = (
    "matrix-set",
    "matrix-group",
    "cyclic-group",
    "symmetric-group",
    "direct-product",
    "vector-group-pairs",
    "integer-window",
)
_RANKED = ("symmetric-group", "matrix-set", "matrix-group")  # the kinds with ranks and columns


def carrier_guard() -> int:
    """Current size guard; MULTIGROUP_GUARD overrides the default of 10^6."""
    raw = os.environ.get("MULTIGROUP_GUARD")
    if raw is None:
        return DEFAULT_GUARD
    try:
        return int(raw)
    except ValueError:
        raise UnsupportedCarrierError(f"MULTIGROUP_GUARD={raw!r} is not an integer") from None


def _guard_size(size: int, what: str, entries: int = 1) -> None:
    """Refuse more candidates than the guard allows, or than one array holds.

    Whatever the guard, `size` candidates of `entries` int64 values each must
    fit in one array, which numpy caps at 2^63 bytes. A count past 2^64 is
    not printed: it may have more digits than Python converts to a string.
    """
    guard = carrier_guard()
    count = "more than 2^64" if size > 1 << 64 else size
    if size > guard:
        raise TooLargeError(f"{what} needs {count} candidates, above the guard of {guard}")
    if 8 * entries * size >= 1 << 63:
        raise TooLargeError(f"{what} needs {count} candidates, more than one array holds")


def _guard_power(p: int, e: int, what: str) -> None:
    """_guard_size for p**e candidates of e entries; a plainly huge power is refused by bit length."""
    guard = carrier_guard()
    if e * (p.bit_length() - 1) > max(64, guard.bit_length()):  # then p**e > 2**64
        raise TooLargeError(f"{what} needs more than 2^64 candidates, above the guard of {guard}")
    _guard_size(p**e, what, e)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class Carrier(_Frozen):
    """An ordered finite element set, optionally with a monoid or group product.

    identity is the unit's encoding on monoid and group carriers; dim is the
    matrix size, vector length or permutation degree; factors holds the
    (left, right) carriers of a direct product; group is the matrix-group
    factor of vector-group pairs.
    """

    def __init__(self, kind: str, elements: tuple, label: str, identity=None,
                 is_group: bool = False, field: PrimeField | None = None,
                 dim: int | None = None, factors: tuple | None = None,
                 group: "Carrier | None" = None):
        if kind not in KINDS:
            raise UnsupportedCarrierError(f"unknown carrier kind {integer_text(kind, repr)}")
        vars(self).update(kind=kind, elements=elements, label=label, identity=identity,
                          is_group=is_group, field=field, dim=dim, factors=factors, group=group)
        if field is not None:
            self._refuse_wide_products()

    def __repr__(self):
        return f"<Carrier {self.label}>"

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @cached_property
    def index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    def index_of(self, element) -> int:
        """The index of element; NotAnElementError, a KeyError, for a non-element."""
        try:
            return self.index[element]
        except KeyError:
            raise NotAnElementError(element, self.label) from None

    @property
    def is_monoid(self) -> bool:
        return self.identity is not None

    @cached_property
    def identity_index(self) -> int:
        if self.identity is None:
            raise NoUnitError(f"{self.label} has no unit")
        return self._position(self.identity)

    def same_as(self, other: "Carrier") -> bool:
        return self.kind == other.kind and self.elements == other.elements

    def _require_group(self) -> None:
        if not self.is_group:
            raise UnsupportedCarrierError("element orders need a group carrier")

    def _require_ranks(self) -> None:
        if self.kind not in _RANKED:
            raise UnsupportedCarrierError("only permutation and matrix carriers rank their elements")

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as one int array: (N, n, n) for matrices, (N, n) for permutations."""
        return np.array(self.elements, dtype=np.int64)

    @cached_property
    def _rank_space(self) -> int:
        """The number of possible ranks: p^(d*d) for matrices, degree^degree for permutations."""
        return (self.field.p if self.field is not None else self.dim) ** self.array[0].size

    @cached_property
    def _weights(self) -> np.ndarray:
        """Place values of an element's entries: base p, or a permutation's degree."""
        base, size = (self.field.p if self.field is not None else self.dim), self.array[0].size
        if base**size > np.iinfo(np.int64).max:
            raise UnsupportedCarrierError(f"{self.label}: elements too large to rank in int64")
        return base ** np.arange(size - 1, -1, -1, dtype=np.int64)

    def _refuse_wide_products(self) -> None:
        """Refuse a modulus whose matrix products pass int64, before any table is built.

        Matrix and vector products (_columns, action, the sandwich tables of
        constructions) sum dim products of entries below p in int64 and
        reduce mod p after each product, so dim * (p - 1)^2 must not pass
        2^63 - 1. On 1x1 matrices, p = 3037000493 is the largest prime it allows.
        """
        p = self.field.p
        if self.dim * (p - 1) ** 2 > np.iinfo(np.int64).max:
            raise UnsupportedCarrierError(
                f"{self.label}: modulus {p} is too large for int64 matrix products")

    def _ranks(self, values) -> np.ndarray:
        """Rank of each matrix or permutation on the trailing axes of values (entries as digits)."""
        values = np.asarray(values)
        lead = values.shape[:values.ndim + 1 - self.array.ndim]
        return values.reshape(lead + (-1,)) @ self._weights

    @cached_property
    def ranks(self) -> np.ndarray:
        """The elements' ranks, ascending because the canonical order is lexicographic."""
        self._require_ranks()
        return _frozen(self._ranks(self.array))

    @cached_property
    def _rank_index(self) -> np.ndarray | None:
        """rank -> index, -1 where no element has the rank; None when the rank space exceeds n^2.

        Within n^2 cells the table is never larger than the Cayley table it serves.
        """
        n = len(self)
        if self._rank_space > n * n:
            return None
        table = np.full(self._rank_space, -1, dtype=index_dtype(n))
        table[self.ranks] = np.arange(n)
        return _frozen(table)

    def _index_of_ranks(self, wanted) -> np.ndarray:
        """Indices of the elements with the given ranks, -1 where absent."""
        if self._rank_index is not None:
            return self._rank_index.take(wanted)
        i = np.minimum(np.searchsorted(self.ranks, wanted), len(self) - 1)
        return np.where(self.ranks[i] == wanted, i, -1)

    def lookup(self, values) -> np.ndarray:
        """Indices of the matrices or permutations on the trailing axes of values, -1 if absent.

        A dense rank index serves the lookup when the rank space has at most
        n^2 cells; otherwise a binary search over the sorted ranks does.
        """
        self._require_ranks()
        return self._index_of_ranks(self._ranks(values))

    @cached_property
    def _columns(self) -> tuple:
        """(S, code): the column decomposition of the matrix and permutation products.

        Column c of x y depends only on column c of y: A (B e_c) for
        matrices, p[q[c]] for permutations. Each distinct column u found at
        position c has one column of S, those of position 0 first, and
        S[i, u] is what column c of elements[i] u adds to the rank of the
        product; code[j, c] is the S column of column c of elements[j]. Only
        the distinct columns are indexed, so S holds at most n d min(n, p^d)
        entries. Ranks below 2^31 are kept as int32.
        """
        d, matrix = self.dim, self.field is not None
        dtype = np.int32 if self._rank_space <= 1 << 31 else np.int64
        weights = self._weights.reshape(-1, d)  # [row, column]; one row for permutations
        columns = self.array.transpose(0, 2, 1) if matrix else self.array[:, :, None]
        keys = (columns * weights.T).sum(axis=2)  # [j, c]: column c's own part of the rank
        code = np.empty((len(self), d), dtype=np.intp)
        parts, offset = [], 0
        for c in range(d):
            _, first, inverse = np.unique(keys[:, c], return_index=True, return_inverse=True)
            code[:, c], offset = offset + inverse, offset + len(first)
            distinct = columns[first, c]  # the distinct columns at c, one per row
            if matrix:  # [i, u] -> sum over r of (A_i u)[r] * weight[r, c]
                part = weights[:, c] @ (self.array @ distinct.T % self.field.p)
            else:  # [i, u] -> p_i[u] * weight[c]
                part = self.array[:, distinct[:, 0]] * weights[0, c]
            parts.append(part.astype(dtype))
        return _frozen(np.concatenate(parts, axis=1)), _frozen(code)

    def product(self, i, j) -> np.ndarray:
        """Index of elements[i] * elements[j], elementwise over broadcast index arrays.

        Matrices and permutations gather S[i, code[j, c]] for every column c
        in one pair gather and sum the columns' parts into the product's
        rank (see `_columns`), then look the rank up. -1 marks a matrix
        product outside the carrier, which a verified carrier never produces.
        """
        if self.kind == "cyclic-group":
            return (np.asarray(i, dtype=np.int64) + j) % len(self)
        if self.kind in _RANKED:
            table, code = self._columns
            parts = _take_pairs(table, np.expand_dims(i, -1), code.take(j, axis=0))  # [..., c]
            return self._index_of_ranks(parts.sum(axis=-1, dtype=parts.dtype))
        if self.kind == "direct-product":
            left, right = self.factors
            (li, ri), (lj, rj) = np.divmod(i, len(right)), np.divmod(j, len(right))
            return left.product(li, lj).astype(np.int64) * len(right) + right.product(ri, rj)
        raise UnsupportedCarrierError(f"{self.label} has no product")

    @cached_property
    def cayley(self) -> np.ndarray:
        """cayley[i, j] = product(i, j) for all pairs, built once by take and write-protected.

        Direct products take each factor's table by a row take, then a
        column take. Matrices and permutations build their rank in row blocks
        of about CAYLEY_CHUNK_CELLS cells, one take along axis 1 per column
        c, S[a0:a1].take(code[:, c], axis=1), and look it up as `product`
        does; a matrix product outside the carrier raises NotClosedError at
        the first such pair in row-major order. Cyclic groups rotate 0..n-1.
        """
        n = len(self)
        if self.kind == "direct-product":
            left, right = self.factors
            li, ri = np.divmod(np.arange(n), len(right))
            table = left.cayley.take(li, axis=0).take(li, axis=1).astype(index_dtype(n))
            table *= len(right)  # every partial sum stays below n
            table += right.cayley.take(ri, axis=0).take(ri, axis=1)
            return _frozen(table)
        if self.kind == "cyclic-group":  # row i is 0..n-1 rotated left by i
            every = np.arange(n, dtype=index_dtype(n))
            return _frozen(sliding_window_view(np.concatenate((every, every[:-1])), n).copy())
        if self.kind not in _RANKED:
            raise UnsupportedCarrierError(f"{self.label} has no product")
        parts, code = self._columns
        codes = code.T.copy()  # one contiguous index row per column
        table = np.empty((n, n), dtype=index_dtype(n))
        for a0, a1 in _row_blocks(n, n, CAYLEY_CHUNK_CELLS):
            rank = parts[a0:a1].take(codes[0], axis=1)
            for column in codes[1:]:
                rank += parts[a0:a1].take(column, axis=1)
            block = self._index_of_ranks(rank)
            bad = first_true(block < 0)
            if bad is not None:
                a, b = a0 + bad[0], bad[1]
                escaped = self.array[a] @ self.array[b] % self.field.p
                raise NotClosedError(self[a], self[b], tuple(map(tuple, escaped.tolist())))
            table[a0:a1] = block
            del rank, block  # so the next block's takes do not sit beside them
        return _frozen(table)

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of every element of a group, by one binary power per prime factor of n."""
        self._require_group()
        n = len(self)
        orders = np.full(n, n, dtype=np.int64)
        for q in _prime_factors(n):  # o becomes o/q wherever x^(o/q) = e
            lower = orders // q
            orders = np.where(power_index(self, np.arange(n), lower) == self.identity_index,
                              lower, orders)
        return _frozen(orders)

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[i]: index of the inverse of elements[i], as elements[i]^(n - 1).

        Every x in a group of order n has x^n = e (Lagrange), so one binary
        power takes 2 log2(n) products, whatever the element orders.
        """
        self._require_group()
        n = len(self)
        return _frozen(power_index(self, np.arange(n), n - 1))

    @cached_property
    def automorphism_candidates(self) -> tuple:
        """Index permutations that may be automorphisms of tables on this carrier, built once.

        On cyclic groups x -> u x for a greedy generating set of the units; on
        symmetric and matrix groups conjugation x -> g x g^-1 by the
        generating set `optables._generators` finds in the Cayley table, the
        one Light's associativity test uses. Other kinds have none, and
        identity maps are left out. None is trusted: a table's automorphisms
        are verified on the table.
        """
        n = len(self)
        if self.kind == "cyclic-group":
            maps = [np.arange(n) * u % n for u in _unit_generators(n)]
        elif self.kind in ("symmetric-group", "matrix-group"):
            c = self.cayley
            maps = [c[:, self.inverse[g]].take(c[g]) for g in _generators(c, n).tolist()]
        else:
            return ()
        every = np.arange(n)
        return tuple(_frozen(s.astype(np.intp)) for s in maps if (s != every).any())

    @cached_property
    def action(self) -> np.ndarray:
        """action[A, v]: index of the vector A v on vector-group pairs; vectors in base-p order."""
        if self.kind != "vector-group-pairs":
            raise UnsupportedCarrierError(f"{self.label} carries no action")
        p, d = self.field.p, self.dim
        vectors = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
        images = vectors @ self.group.array.transpose(0, 2, 1) % p  # [A, v] -> (A v)^T
        return _frozen(images @ p ** np.arange(d - 1, -1, -1, dtype=np.int64))

    def _position(self, element) -> int:
        """The index of element by bisection; NotAnElementError for a non-element."""
        hash(element)  # and TypeError for an unhashable one
        try:
            i = bisect.bisect_left(self.elements, element)
        except TypeError:
            i = len(self)
        if i == len(self) or self.elements[i] != element:
            raise NotAnElementError(element, self.label)
        return i

    def mul(self, a, b):
        """a * b on encodings: one product in the carrier's own arithmetic.

        Cyclic groups add mod n, permutations compose, matrices multiply mod
        p and direct products multiply factor-wise. The factors and the
        product are looked up by bisection (NotAnElementError for a
        non-element), so neither the Cayley table nor the column tables of
        `product` are built.
        """
        for x in (a, b):
            self._position(x)
        if self.kind == "cyclic-group":
            c = (a + b) % len(self)
        elif self.kind == "symmetric-group":
            c = tuple(a[i] for i in b)
        elif self.kind in ("matrix-set", "matrix-group"):
            c = mat_mul(Matrix(self.field, a), Matrix(self.field, b)).rows
        elif self.kind == "direct-product":
            left, right = self.factors
            c = (left.mul(a[0], b[0]), right.mul(a[1], b[1]))
        else:
            raise UnsupportedCarrierError(f"{self.label} has no product")
        return self.elements[self._position(c)]

    def _power(self, a, k: int):
        """a^k for k >= 0 by binary powering on encodings through `mul`, so no table is built."""
        self._position(a)
        acc = self.elements[self.identity_index]
        while k:
            if k & 1:
                acc = self.mul(acc, a)
            a, k = self.mul(a, a), k >> 1
        return acc

    def inv(self, a):
        """a^-1 as a^(n - 1), through `mul`."""
        self._require_group()
        return self._power(a, len(self) - 1)


def _unit_generators(n: int) -> list:
    """A greedy generating set of the units of Z_n: each unit not yet generated joins, least first."""
    generated = np.zeros(n, dtype=bool)
    generated[1 % n] = True
    gens = []
    for u in range(2, n):
        if generated[u] or math.gcd(u, n) != 1:
            continue
        gens.append(u)
        coset = np.flatnonzero(generated)
        while not generated[coset[0] * u % n]:  # add the cosets H u, H u^2, ... of H
            coset = coset * u % n
            generated[coset] = True
    return gens


def _prime_factors(n: int) -> list:
    """The prime factors of n in ascending order, with multiplicity."""
    q = next((q for q in range(2, math.isqrt(n) + 1) if n % q == 0), n)
    return [] if n == 1 else [q] + _prime_factors(n // q)


def power_index(carrier: Carrier, i, k) -> np.ndarray:
    """Index of elements[i]^k by binary powering, elementwise over i and k >= 0."""
    k = np.asarray(k)
    base = np.asarray(i)
    acc = np.full(np.broadcast_shapes(base.shape, k.shape), carrier.identity_index)
    while k.any():
        acc = np.where(k & 1, carrier.product(acc, base), acc)
        base = carrier.product(base, base)
        k = k >> 1
    return acc


def _powers(group: Carrier, k) -> np.ndarray:
    """Index of g^k for every g; k must be an integer, and is reduced mod |G| (g^|G| = e)."""
    return power_index(group, np.arange(len(group)), as_integer(k, "exponent") % len(group))


def cyclic_group(n: int) -> Carrier:
    """Z_n under addition; elements 0..n-1."""
    n = as_integer(n, "order")
    if n < 1:
        raise _usage_error("cyclic")
    _guard_size(n, f"cyclic({integer_text(n)})")
    return Carrier("cyclic-group", tuple(range(n)), f"cyclic({n})", identity=0, is_group=True)


def symmetric_group(n: int) -> Carrier:
    """S_n in one-line notation, composition (p*q)(i) = p[q[i]]."""
    n = as_integer(n, "degree")
    if not 1 <= n <= 5:
        raise _usage_error("symmetric")
    elements = tuple(sorted(itertools.permutations(range(n))))
    return Carrier("symmetric-group", elements, f"symmetric({n})", identity=tuple(range(n)),
                   is_group=True, dim=n)


def enumerate_matrices(n: int, p: int, invertible_only: bool = False) -> Carrier:
    """All of M_n(F_p), or GL_n(F_p), in row-major lexicographic order.

    The enumeration space p^(n*n) must stay within the carrier guard. The
    candidates are one int64 stack in that order. GL_n keeps those whose
    determinant, a signed sum over the n! permutations reduced mod p after
    every product, is nonzero; no value reaches p^2, and a prime with p^2
    beyond int64 would need a stack of more than 3e9 rows. The full matrix
    set is a monoid under multiplication but not a group.
    """
    kind, name = ("matrix-group", "gl") if invertible_only else ("matrix-set", "matrices")
    n, p = as_integer(n, "dimension"), as_integer(p, "modulus")
    if n < 1:
        raise _usage_error(name)
    n_text, p_text = integer_text(n), integer_text(p)
    _guard_power(p, n * n, f"enumerating {n_text}x{n_text} matrices mod {p_text}")
    fld = PrimeField(p)
    stack = np.indices((p,) * (n * n), dtype=np.int64).reshape(n * n, -1).T.reshape(-1, n, n)
    if invertible_only:
        det = np.zeros(len(stack), dtype=np.int64)
        for perm in itertools.permutations(range(n)):
            term = stack[:, 0, perm[0]]
            for row in range(1, n):
                term = term * stack[:, row, perm[row]] % p
            det += term * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        stack = stack[det % p != 0]
    elements = tuple(tuple(map(tuple, m.tolist())) for m in stack)
    return Carrier(kind, elements, f"{name}({n},{p})", identity=identity_rows(n),
                   is_group=invertible_only, field=fld, dim=n)


def gl_group(n: int, p: int) -> Carrier:
    return enumerate_matrices(n, p, invertible_only=True)


def matrix_set(n: int, p: int) -> Carrier:
    return enumerate_matrices(n, p, invertible_only=False)


def matrix_subgroup(rows_list, n: int, p: int, label: str | None = None) -> Carrier:
    """A matrix group carrier from explicit elements, verified to be a group.

    Elements are given as row tuples, deduplicated and sorted row-major.
    Their size is checked first (DimensionMismatchError), then the identity,
    inverses and products: NotClosedError names the first inverse, else the
    first product in row-major order, outside the set.
    """
    n, fld = as_integer(n, "dimension"), PrimeField(p)
    elements = tuple(sorted({Matrix.from_rows(r, fld).rows for r in rows_list}))
    wrong = next((a for a in elements if len(a) != n), None)
    if wrong is not None:
        raise DimensionMismatchError(
            f"matrix subgroup element {wrong} is not {integer_text(n)}x{integer_text(n)}")
    if not elements or identity_rows(n) not in elements:  # an empty list has no unit, whatever n
        raise NoUnitError(f"matrix subgroup mod {fld.p} must contain the identity")
    member = set(elements)
    for a in elements:
        inverse = mat_inv(Matrix(fld, a)).rows
        if inverse not in member:
            raise NotClosedError(a, a, inverse)
    label = label or f"matrix-subgroup({n},{fld.p},{len(elements)})"
    carrier = Carrier("matrix-group", elements, label, identity=identity_rows(n), is_group=True,
                      field=fld, dim=n)
    carrier.cayley  # verifies closure under products
    return carrier


def direct_product(a: Carrier, b: Carrier) -> Carrier:
    """Componentwise product of two monoid-or-group carriers, product order."""
    if not (a.is_monoid and b.is_monoid):
        raise UnsupportedCarrierError("direct product needs factors with product structure")
    _guard_size(len(a) * len(b), f"{a.label} x {b.label}")
    elements = tuple((x, y) for x in a.elements for y in b.elements)
    return Carrier("direct-product", elements, f"{a.label} x {b.label}",
                   identity=(a.identity, b.identity), is_group=a.is_group and b.is_group,
                   factors=(a, b))


def pair_carrier(vdim: int, p: int, group: Carrier) -> Carrier:
    """Pairs (v, A) with v in F_p^vdim and A from a matrix group acting on it.

    Ordered lexicographically, vector first. The matrix dimension and modulus
    must match the vector space, else the standard action is undefined.
    """
    vdim, p = as_integer(vdim, "dimension"), as_integer(p, "modulus")
    if group.kind != "matrix-group":
        raise ActionMismatchError(f"pair carrier needs a matrix group, got {group.kind}")
    if (group.dim, group.field.p) != (vdim, p):
        raise ActionMismatchError("vector space and matrix group must share dimension and modulus")
    _guard_size(p**vdim * len(group), f"vectors({vdim},{p}) x {group.label}")
    vectors = tuple(itertools.product(range(p), repeat=vdim))
    elements = tuple((v, A) for v in vectors for A in group.elements)
    return Carrier("vector-group-pairs", elements, f"vectors({vdim},{p}) x {group.label}",
                   field=PrimeField(p), dim=vdim, group=group)


def integer_window(lo: int, hi: int) -> Carrier:
    """Exact integers lo..hi inclusive; no algebraic structure attached."""
    lo, hi = as_integer(lo, "window bound"), as_integer(hi, "window bound")
    if lo > hi:
        raise _usage_error("window")
    label = f"window({integer_text(lo)},{integer_text(hi)})"
    _guard_size(hi - lo + 1, label)
    return Carrier("integer-window", tuple(range(lo, hi + 1)), label)


class AtomSpec(NamedTuple):
    arity: int
    build: Callable  # the atom's constructor, called with its arguments
    usage: str  # the one message for arguments out of count or range


def _vectors(n: int, p: int) -> None:
    """Check a vectors(n,p) atom; the cross with gl(n,p) builds its carrier."""
    if n < 1:
        raise _usage_error("vectors")
    _guard_power(p, n, f"vectors({integer_text(n)},{integer_text(p)})")
    PrimeField(p)


# The carrier atoms of the spec language, in the order its messages list them.
# Each build names its constructor inside a lambda, so it is looked up at call
# time and a wrapper put on that name sees every call.
CARRIER_ATOMS = {
    "cyclic": AtomSpec(1, lambda n: cyclic_group(n), "cyclic(n) needs one argument n >= 1"),
    "symmetric": AtomSpec(1, lambda n: symmetric_group(n),
                          "symmetric(n) needs one argument with 1 <= n <= 5"),
    "gl": AtomSpec(2, lambda n, p: gl_group(n, p), "gl(n, p) needs a dimension and a modulus"),
    "matrices": AtomSpec(2, lambda n, p: matrix_set(n, p),
                         "matrices(n, p) needs a dimension and a modulus"),
    "vectors": AtomSpec(2, _vectors, "vectors(n, p) needs a dimension and a modulus"),
    "window": AtomSpec(2, lambda lo, hi: integer_window(lo, hi), "window(lo, hi) needs lo <= hi"),
}


def _usage_error(name: str) -> UnsupportedCarrierError:
    return UnsupportedCarrierError(CARRIER_ATOMS[name].usage)


def _refuse(message: str):
    raise UnsupportedCarrierError(message)


def _atom(name: str, args):
    spec = CARRIER_ATOMS.get(name)
    if spec is None:
        raise UnsupportedCarrierError(f"unknown carrier {name!r} (known: {', '.join(CARRIER_ATOMS)})")
    if len(args) != spec.arity:
        raise _usage_error(name)
    return spec.build(*args)


def build_carrier(atoms, at=lambda i, build: build()) -> Carrier:
    """The carrier of a carrier expression, given as its (name, args) atoms.

    Each atom is checked and built left to right. Then the cross rules
    apply: vectors only as vectors(n,p) x gl(n,p), no window in a cross,
    and the factors of a direct product together within the guard. at(i,
    build) returns build() for the atom i that a failure concerns; the spec
    language passes one that reports the failure at that atom.
    """
    built = [at(i, lambda: _atom(name, args)) for i, (name, args) in enumerate(atoms)]
    names = [name for name, _ in atoms]
    if names == ["vectors"]:
        at(0, lambda: _refuse("vectors(n,p) must be crossed with gl(n,p)"))
    if names == ["vectors", "gl"]:
        return at(0, lambda: pair_carrier(*atoms[0][1], built[1]))
    if "vectors" in names:
        at(0, lambda: _refuse("pair carriers are written vectors(n,p) x gl(n,p)"))
    if len(names) > 1 and "window" in names:
        at(names.index("window"), lambda: _refuse("window carriers cannot be crossed"))
    carrier = built[0]
    for i in range(1, len(built)):
        carrier = at(i, lambda: direct_product(carrier, built[i]))
    return carrier


def build_carrier_atom(name: str, args) -> Carrier:
    """One named carrier atom alone, such as cyclic(4); vectors(n,p) needs a cross."""
    return build_carrier([(name, args)])


def group_carrier(spec: str) -> Carrier:
    """Build a carrier from a carrier expression of the spec language (carrierExpr).

    Accepts cyclic(n), symmetric(n), gl(n,p), matrices(n,p), window(lo,hi),
    crosses like cyclic(2) x symmetric(3), and vectors(n,p) x gl(n,p). A
    syntax error raises SpecError; an expression that names no carrier
    raises the error of the rule it breaks.
    """
    from .dsl import parse_carrier_expr

    return build_carrier([(atom.name, atom.args) for atom in parse_carrier_expr(spec)])


def element_order(carrier: Carrier, element) -> int:
    """The order of element, as `orders` finds it, by one `Carrier._power` per prime factor of n."""
    carrier._require_group()
    carrier._position(element)
    order = len(carrier)
    for q in _prime_factors(order):
        if carrier._power(element, order // q) == carrier.identity:
            order //= q
    return order


def group_exponent(carrier: Carrier) -> int:
    """Least common multiple of the element orders."""
    return int(np.lcm.reduce(carrier.orders))


def group_power(carrier: Carrier, element, k: int):
    """element^k in the carrier's group, with negative exponents via inverses."""
    k = as_integer(k, "exponent")
    if k < 0:
        carrier._position(element)
        element, k = carrier.inv(element), -k
    return carrier._power(element, k)


class GroupAutomorphism(_Frozen):
    """A verified automorphism of a group carrier, stored as an index permutation."""

    def __init__(self, carrier: Carrier, images: tuple, label: str = "phi"):
        # images[i] = index of the image of elements[i]
        vars(self).update(carrier=carrier, images=images, label=label)

    def apply_index(self, i: int) -> int:
        return self.images[i]

    def apply(self, element):
        return self.carrier.elements[self.images[self.carrier.index_of(element)]]


def make_automorphism(group: Carrier, rule) -> GroupAutomorphism:
    """Build and exhaustively validate an automorphism.

    rule is one of: "identity", ("inner", g), ("power", k) for an integer k,
    or a sequence or array of integer image indices; a power is reduced mod
    |G|, and any other rule raises UnsupportedCarrierError. Validation checks
    bijectivity and then the homomorphism law over all pairs, in row blocks,
    naming the first failing pair.
    """
    if not group.is_group:
        raise UnsupportedCarrierError("automorphisms need a group carrier")
    n = len(group)
    every = np.arange(n)
    if isinstance(rule, str):
        if rule != "identity":
            raise UnsupportedCarrierError(f"unknown automorphism rule {integer_text(rule, repr)}")
        images, label = every, "identity"
    elif isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "inner":
        g = rule[1]
        try:
            gi = group.index_of(g)
        except (KeyError, TypeError):  # not an element, or not hashable like one
            raise UnsupportedCarrierError(
                f"inner({integer_text(g, repr)}): element not in {group.label}") from None
        images = group.product(group.product(gi, every), group.inverse[gi])
        label = f"inner({gi})"
    elif isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "power":
        images, label = _powers(group, rule[1]), f"power({integer_text(rule[1])})"
    elif isinstance(rule, Sequence) or getattr(rule, "ndim", None) == 1:
        if len(rule) != n or not all(is_integer(i) and 0 <= i < n for i in rule):
            raise NotBijectiveError(f"image list must be a permutation of 0..{n - 1}")
        images, label = np.array(rule, dtype=np.int64), "explicit"
    else:
        raise UnsupportedCarrierError(f"unknown automorphism rule {integer_text(rule, repr)}")

    if not np.array_equal(np.sort(images), every):
        raise NotBijectiveError(f"{label} is not a bijection on {group.label}")
    bad = _endomorphism_failure(images, group.cayley)
    if bad is not None:
        a, b = (group.elements[i] for i in bad)
        raise NotHomomorphismError(f"{label} breaks the homomorphism law at ({a!r}, {b!r})")
    return GroupAutomorphism(carrier=group, images=tuple(int(i) for i in images), label=label)
