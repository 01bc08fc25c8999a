"""Finite carriers: indexed element sets with a canonical order.

A Carrier fixes the element universe for operation tables. Canonical orders:
matrices are row-major lexicographic, permutations are in one-line-notation
order, pairs are lexicographic with the left component first.

Monoid and group carriers multiply in index space. `Carrier.product(i, j)`
gives the index of elements[i] * elements[j] elementwise over index arrays,
with one implementation per kind: arithmetic for cyclic groups, a
permutation gather for symmetric groups, a matrix product and rank lookup for
matrix carriers, and the factors' products for direct products. The
|Q| x |Q| Cayley table `cayley` is built from it on first use, once per
carrier object, and is write-protected; `mul`, `inv` and `identity` read the
same structure on encodings without building the table. Vector-group pairs
carry an action table `action[A, v]` instead.

Element encodings are plain hashable Python values: ints for cyclic groups and
integer windows, tuples for permutations and vectors, tuples of row tuples for
matrices, and 2-tuples for products and vector-group pairs.
"""

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ActionMismatchError,
    NotBijectiveError,
    NotClosedError,
    NotHomomorphismError,
    NoUnitError,
    TooLargeError,
    UnsupportedCarrierError,
)
from .field import PrimeField
from .matrix import Matrix, mat_det, mat_inv
from .optables import first_true, index_dtype

DEFAULT_GUARD = 10**6

# Matrix or permutation entries per Cayley chunk: half a megabyte per int64
# temporary, so building a table adds little to peak memory.
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


def carrier_guard() -> int:
    """Current size guard; MULTIGROUP_GUARD overrides the default of 10^6."""
    raw = os.environ.get("MULTIGROUP_GUARD")
    if raw is None:
        return DEFAULT_GUARD
    try:
        return int(raw)
    except ValueError:
        raise UnsupportedCarrierError(f"MULTIGROUP_GUARD={raw!r} is not an integer") from None


def _guard_size(size: int, what: str) -> None:
    guard = carrier_guard()
    if size > guard:
        raise TooLargeError(f"{what} needs {size} candidates, above the guard of {guard}")


def _guard_power(p: int, e: int, what: str) -> None:
    """_guard_size for p**e candidates; a plainly huge power is refused by bit length."""
    guard = carrier_guard()
    if e * (p.bit_length() - 1) > max(64, guard.bit_length()):  # then p**e > 2**64
        raise TooLargeError(f"{what} needs more than 2^64 candidates, above the guard of {guard}")
    _guard_size(p**e, what)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class Carrier:
    """An ordered finite element set, optionally with a monoid or group product."""

    kind: str
    elements: tuple
    label: str
    identity: object = None     # the unit's encoding on monoid and group carriers
    is_group: bool = False
    field: PrimeField | None = None
    dim: int | None = None      # matrix size, vector length or permutation degree
    factors: tuple | None = None      # (left, right) carriers for direct products
    group: "Carrier | None" = None    # matrix-group factor of vector-group pairs

    def __post_init__(self):
        if self.kind not in KINDS:
            raise UnsupportedCarrierError(f"unknown carrier kind {self.kind!r}")

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
        return self.index[element]

    @property
    def is_monoid(self) -> bool:
        return self.identity is not None

    @cached_property
    def identity_index(self) -> int:
        return self.index[self.identity]

    def same_as(self, other: "Carrier") -> bool:
        return self.kind == other.kind and self.elements == other.elements

    @cached_property
    def array(self) -> np.ndarray:
        """The elements as one int array: (N, n, n) for matrices, (N, n) for permutations."""
        return np.array(self.elements, dtype=np.int64)

    @cached_property
    def _weights(self) -> np.ndarray:
        """Place values of an element's entries: base p, or a permutation's degree."""
        base, size = (self.field.p if self.field is not None else self.dim), self.array[0].size
        if base**size > np.iinfo(np.int64).max:
            raise UnsupportedCarrierError(f"{self.label}: elements too large to rank in int64")
        return base ** np.arange(size - 1, -1, -1, dtype=np.int64)

    def _ranks(self, values) -> np.ndarray:
        """Rank of each matrix or permutation on the trailing axes of values (entries as digits)."""
        values = np.asarray(values)
        lead = values.shape[:values.ndim + 1 - self.array.ndim]
        return values.reshape(lead + (-1,)) @ self._weights

    @cached_property
    def ranks(self) -> np.ndarray:
        """The elements' ranks, ascending because the canonical order is lexicographic."""
        return _frozen(self._ranks(self.array))

    def lookup(self, values) -> np.ndarray:
        """Indices of the matrices or permutations on the trailing axes of values, -1 if absent."""
        wanted = self._ranks(values)
        i = np.minimum(np.searchsorted(self.ranks, wanted), len(self) - 1)
        return np.where(self.ranks[i] == wanted, i, -1)

    def product(self, i, j) -> np.ndarray:
        """Index of elements[i] * elements[j], elementwise over broadcast index arrays.

        -1 marks a matrix product outside the carrier, which a verified
        carrier never produces.
        """
        if self.kind == "cyclic-group":
            return (np.asarray(i, dtype=np.int64) + j) % len(self)
        if self.kind == "symmetric-group":  # (p q)(k) = p[q[k]]
            p, q = np.broadcast_arrays(self.array[i], self.array[j])
            return self.lookup(np.take_along_axis(p, q, axis=-1))
        if self.kind in ("matrix-set", "matrix-group"):
            return self.lookup(self.array[i] @ self.array[j] % self.field.p)
        if self.kind == "direct-product":
            left, right = self.factors
            (li, ri), (lj, rj) = np.divmod(i, len(right)), np.divmod(j, len(right))
            return left.product(li, lj) * len(right) + right.product(ri, rj)
        raise UnsupportedCarrierError(f"{self.label} has no product")

    @cached_property
    def cayley(self) -> np.ndarray:
        """cayley[i, j] = product(i, j) for all pairs, built once and write-protected.

        Direct products combine their factors' tables. Other kinds evaluate
        their product over row chunks; a matrix product outside the carrier
        raises NotClosedError at the first such pair in row-major order.
        """
        n = len(self)
        if self.kind == "direct-product":
            left, right = self.factors
            li, ri = np.divmod(np.arange(n), len(right))
            table = left.cayley[li[:, None], li[None, :]].astype(index_dtype(n))
            table *= len(right)  # every partial sum stays below n
            table += right.cayley[ri[:, None], ri[None, :]]
            return _frozen(table)
        table = np.empty((n, n), dtype=index_dtype(n))
        rows = np.arange(n)[:, None]
        step = max(1, CAYLEY_CHUNK_CELLS // (n * self.array[0].size))
        for a0 in range(0, n, step):
            block = self.product(rows[a0:a0 + step], rows.T)
            bad = first_true(block < 0)
            if bad is not None:
                a, b = a0 + bad[0], bad[1]
                escaped = Matrix(self.field, (self.array[a] @ self.array[b]).tolist()).rows
                raise NotClosedError(self[a], self[b], escaped)
            table[a0:a0 + step] = block
        return _frozen(table)

    @cached_property
    def orders(self) -> np.ndarray:
        """The order of every element of a group, stepping all powers together."""
        if not self.is_group:
            raise UnsupportedCarrierError("element orders need a group carrier")
        step = np.arange(len(self))
        orders = np.zeros(len(self), dtype=np.int64)
        power, k = step, 1
        while not orders.all():
            orders[(power == self.identity_index) & (orders == 0)] = k
            power, k = self.product(power, step), k + 1
        return _frozen(orders)

    @cached_property
    def inverse(self) -> np.ndarray:
        """inverse[i]: index of the inverse of elements[i], as elements[i]^(order - 1)."""
        return _frozen(power_index(self, np.arange(len(self)), self.orders - 1))

    @cached_property
    def action(self) -> np.ndarray:
        """action[A, v]: index of the vector A v on vector-group pairs; vectors in base-p order."""
        if self.kind != "vector-group-pairs":
            raise UnsupportedCarrierError(f"{self.label} carries no action")
        p, d = self.field.p, self.dim
        vectors = np.array(list(itertools.product(range(p), repeat=d)), dtype=np.int64)
        images = vectors @ self.group.array.transpose(0, 2, 1) % p  # [A, v] -> (A v)^T
        return _frozen(images @ p ** np.arange(d - 1, -1, -1, dtype=np.int64))

    def mul(self, a, b):
        """a * b on encodings: one product, without building the Cayley table."""
        return self.elements[int(self.product(self.index[a], self.index[b]))]

    def inv(self, a):
        return self.elements[int(self.inverse[self.index[a]])]


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


def cyclic_group(n: int) -> Carrier:
    """Z_n under addition; elements 0..n-1."""
    if n < 1:
        raise _usage_error("cyclic")
    _guard_size(n, f"cyclic({n})")
    return Carrier("cyclic-group", tuple(range(n)), f"cyclic({n})", identity=0, is_group=True)


def symmetric_group(n: int) -> Carrier:
    """S_n in one-line notation, composition (p*q)(i) = p[q[i]]."""
    if not 1 <= n <= 5:
        raise _usage_error("symmetric")
    elements = tuple(sorted(itertools.permutations(range(n))))
    return Carrier("symmetric-group", elements, f"symmetric({n})", identity=tuple(range(n)),
                   is_group=True, dim=n)


def _identity_rows(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def enumerate_matrices(n: int, p: int, invertible_only: bool = False) -> Carrier:
    """All of M_n(F_p), or GL_n(F_p), in row-major lexicographic order.

    The enumeration space p^(n*n) must stay within the carrier guard. The
    full matrix set is a monoid under multiplication but not a group.
    """
    kind, name = ("matrix-group", "gl") if invertible_only else ("matrix-set", "matrices")
    if n < 1:
        raise _usage_error(name)
    _guard_power(p, n * n, f"enumerating {n}x{n} matrices mod {p}")
    fld = PrimeField(p)
    elements = []
    for flat in itertools.product(range(p), repeat=n * n):
        rows = tuple(flat[i * n:(i + 1) * n] for i in range(n))
        if invertible_only and mat_det(Matrix(fld, rows)) == 0:
            continue
        elements.append(rows)
    return Carrier(kind, tuple(elements), f"{name}({n},{p})", identity=_identity_rows(n),
                   is_group=invertible_only, field=fld, dim=n)


def gl_group(n: int, p: int) -> Carrier:
    return enumerate_matrices(n, p, invertible_only=True)


def matrix_set(n: int, p: int) -> Carrier:
    return enumerate_matrices(n, p, invertible_only=False)


def matrix_subgroup(rows_list, n: int, p: int, label: str | None = None) -> Carrier:
    """A matrix group carrier from explicit elements, verified to be a group.

    Elements are given as row tuples, deduplicated and sorted row-major. The
    identity is checked first, then inverses, then products: NotClosedError
    names the first inverse, else the first product in row-major order,
    outside the set.
    """
    fld = PrimeField(p)
    elements = tuple(sorted({Matrix.from_rows(r, fld).rows for r in rows_list}))
    if _identity_rows(n) not in elements:
        raise NoUnitError(f"matrix subgroup mod {p} must contain the identity")
    member = set(elements)
    for a in elements:
        inverse = mat_inv(Matrix(fld, a)).rows
        if inverse not in member:
            raise NotClosedError(a, a, inverse)
    label = label or f"matrix-subgroup({n},{p},{len(elements)})"
    carrier = Carrier("matrix-group", elements, label, identity=_identity_rows(n), is_group=True,
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
    if lo > hi:
        raise _usage_error("window")
    _guard_size(hi - lo + 1, f"window({lo},{hi})")
    return Carrier("integer-window", tuple(range(lo, hi + 1)), f"window({lo},{hi})")


class AtomSpec(NamedTuple):
    arity: int
    build: Callable  # the atom's constructor, called with its arguments
    usage: str  # the one message for arguments out of count or range


def _vectors(n: int, p: int) -> None:
    """Check a vectors(n,p) atom; the cross with gl(n,p) builds its carrier."""
    if n < 1:
        raise _usage_error("vectors")
    _guard_power(p, n, f"vectors({n},{p})")
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
    return int(carrier.orders[carrier.index_of(element)])


def group_exponent(carrier: Carrier) -> int:
    """Least common multiple of the element orders."""
    return int(np.lcm.reduce(carrier.orders))


def group_power(carrier: Carrier, element, k: int):
    """element^k in the carrier's group, with negative exponents via inverses."""
    i = carrier.index_of(element)
    if k < 0:
        i, k = carrier.inverse[i], -k
    return carrier.elements[int(power_index(carrier, i, k))]


@dataclass(frozen=True, eq=False)
class GroupAutomorphism:
    """A verified automorphism of a group carrier, stored as an index permutation."""

    carrier: Carrier
    images: tuple          # images[i] = index of the image of elements[i]
    label: str = "phi"

    def apply_index(self, i: int) -> int:
        return self.images[i]

    def apply(self, element):
        return self.carrier.elements[self.images[self.carrier.index_of(element)]]


def make_automorphism(group: Carrier, rule) -> GroupAutomorphism:
    """Build and exhaustively validate an automorphism.

    rule is one of: "identity", ("inner", g), ("power", k), or an explicit
    sequence of image indices. Validation checks bijectivity and the
    homomorphism law over all pairs, naming the first failing pair.
    """
    if not group.is_group:
        raise UnsupportedCarrierError("automorphisms need a group carrier")
    n = len(group)
    every = np.arange(n)
    if rule == "identity":
        images = every
        label = "identity"
    elif isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "inner":
        g = rule[1]
        if g not in group.index:
            raise UnsupportedCarrierError(f"inner({g!r}): element not in {group.label}")
        gi = group.index_of(g)
        images = group.product(group.product(gi, every), group.inverse[gi])
        label = f"inner({gi})"
    elif isinstance(rule, tuple) and len(rule) == 2 and rule[0] == "power":
        images = power_index(group, every, rule[1] % group_exponent(group))
        label = f"power({rule[1]})"
    else:
        images = [int(i) for i in rule]
        if len(images) != n or not all(0 <= i < n for i in images):
            raise NotBijectiveError(f"image list must be a permutation of 0..{n - 1}")
        images = np.array(images, dtype=np.int64)
        label = "explicit"

    if not np.array_equal(np.sort(images), every):
        raise NotBijectiveError(f"{label} is not a bijection on {group.label}")
    table, images = group.cayley, images.astype(group.cayley.dtype)
    bad = first_true(images[table] != table[images[:, None], images[None, :]])
    if bad is not None:
        a, b = (group.elements[i] for i in bad)
        raise NotHomomorphismError(f"{label} breaks the homomorphism law at ({a!r}, {b!r})")
    return GroupAutomorphism(carrier=group, images=tuple(int(i) for i in images), label=label)
