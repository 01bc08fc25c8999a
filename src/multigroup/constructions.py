"""Operation-table constructions over the built-in carriers.

Each construction is a gather over its carrier's index arrays: the Cayley
table, the inverse and power indices and, on vector-group pairs, the action
table. No construction evaluates a rule per element pair. Every gather is a
take, through the gather kernel of optables (_take and _take_pairs) where
its index is a whole table, so no intp index covers more than one block of
GATHER_CELLS cells; none is two-array indexing t[A, B]. On vector-group
pairs and on M x M, a product's coordinates depend on a few of the factors'
coordinates, so the table of those is gathered once, over the group or the
monoid, and spread over the pairs by a row take or a broadcast sum.

Each builder checks its carrier through one of the five needs below, which
hold the text that refuses any other carrier; the spec language's table,
`dsl.CONSTRUCTIONS`, names the same needs, so a spec refuses with that text.
Likewise `matrix_constant` holds the rules on a matrix constant (its size,
and its invertibility for gl_group_op): the matrix builders check their
constants by it and the spec language builds its matrix literals by it, so a
library call and a spec refuse a constant with the same text.
"""

from typing import Callable, NamedTuple

import numpy as np

from .carriers import (
    Carrier,
    GroupAutomorphism,
    _powers,
    direct_product,
)
from .errors import (
    CarrierMismatchError,
    ChoiceError,
    DimensionMismatchError,
    ModulusMismatchError,
    NoUnitError,
    NotAnActionError,
    NotClosedError,
    OddModulusError,
    SingularMatrixError,
    UnsupportedCarrierError,
    as_integer,
)
from .matrix import Matrix, mat_add_scaled, mat_det
from .optables import (
    OpTable,
    _take,
    _take_pairs,
    first_true,
    index_dtype,
    scan_chunks,
    table_from_array,
    unit_indices,
)


class _MatrixOpFields(NamedTuple):
    s: int
    t: int
    m1: Matrix
    m2: Matrix


class MatrixOpParams(_MatrixOpFields):
    """Scalars and mixing matrices for the two-parameter matrix product."""

    __slots__ = ()

    def __new__(cls, s: int, t: int, m1: Matrix, m2: Matrix):
        if m1.field.p != m2.field.p:
            raise ModulusMismatchError("mixing matrices live over different fields")
        if m1.n != m2.n:
            raise DimensionMismatchError("mixing matrices have different sizes")
        p, s, t = m1.field.p, as_integer(s, "scalar"), as_integer(t, "scalar")
        return super().__new__(cls, s % p, t % p, m1, m2)


class CarrierNeed(NamedTuple):
    """The carrier a construction needs, and the text that refuses any other."""

    holds: Callable  # Carrier -> bool
    message: str  # formatted with ctor= and kind= (the carrier's kind)
    error: type = UnsupportedCarrierError

    def require(self, carrier: Carrier, ctor: str) -> None:
        """Raise the need's error, naming the construction ctor, unless carrier meets the need."""
        if not self.holds(carrier):
            raise self.error(self.message.format(ctor=ctor, kind=carrier.kind))


MATRIX_CARRIER = CarrierNeed(lambda carrier: carrier.kind in ("matrix-set", "matrix-group"),
                             "{ctor} needs a matrix carrier, carrier is {kind}")
PAIR_CARRIER = CarrierNeed(lambda carrier: carrier.kind == "vector-group-pairs",
                           "{ctor} needs a vectors(n,p) x gl(n,p) carrier, carrier is {kind}")
GROUP_CARRIER = CarrierNeed(lambda carrier: carrier.is_group, "{ctor} needs a group carrier")
MONOID_SQUARE = CarrierNeed(lambda carrier: carrier.factors is not None and carrier.factors[0].is_monoid
                            and carrier.factors[0].same_as(carrier.factors[1]),
                            "{ctor} needs a carrier M x M with M a monoid")
EVEN_CYCLIC = CarrierNeed(lambda carrier: carrier.kind == "cyclic-group" and len(carrier) % 2 == 0,
                          "{ctor} needs a cyclic carrier of even order", OddModulusError)


def matrix_constant(carrier: Carrier, rows, invertible: bool = False, field=None) -> Matrix:
    """rows as a constant of a product on the matrix carrier, over field (by default the carrier's).

    A constant has the carrier's matrix size and, for a sandwich (invertible), a nonzero
    determinant. Builders check their constants, and specs build their literals, here alone.
    """
    d, field = carrier.dim, field or carrier.field
    if len(rows) != d or any(len(row) != d for row in rows):
        raise DimensionMismatchError(f"matrix must be {d}x{d} for this carrier")
    if field.p != carrier.field.p:  # never in a spec, whose constants lie over the carrier's field
        raise ModulusMismatchError(f"carrier modulus {carrier.field.p} vs parameter modulus {field.p}")
    m = Matrix.from_rows(rows, field)
    if invertible and mat_det(m) == 0:
        raise SingularMatrixError(f"matrix constant is singular mod {field.p}")
    return m


def _sandwich_table(carrier: Carrier, m: Matrix, label: str) -> OpTable:
    """A*B = A M B as a row gather: row A is the Cayley row of A M.

    The carrier holds every matrix or is a group, so A M B lies in it for
    every B exactly when A M does. The first A with A M outside it is thus
    the first failing row, and (A, Q[0]) the first failing pair.
    """
    mats, p = carrier.array, carrier.field.p
    m_array = np.array(m.rows, dtype=np.int64)
    rows = carrier.lookup(mats @ m_array % p)
    bad = first_true(rows < 0)
    if bad is not None:
        a = bad[0]
        result = mats[a] @ m_array @ mats[0] % p
        raise NotClosedError(carrier[a], carrier[0], tuple(map(tuple, result.tolist())))
    return table_from_array(carrier, carrier.cayley.take(rows, axis=0), label)


def matrix_op(params: MatrixOpParams, carrier: Carrier, label: str | None = None) -> OpTable:
    """The two-parameter product A*B = s A M1 B + t A M2 B = A (s M1 + t M2) B."""
    MATRIX_CARRIER.require(carrier, "matrix_op")
    for m in (params.m1, params.m2):
        matrix_constant(carrier, m.rows, field=m.field)
    name = label or f"matrix_op(s={params.s},t={params.t})"
    return _sandwich_table(carrier, mat_add_scaled(params.s, params.m1, params.t, params.m2), name)


def gl_group_op(m: Matrix, carrier: Carrier, label: str | None = None) -> OpTable:
    """The sandwich product A*B = A M B; M must be invertible."""
    MATRIX_CARRIER.require(carrier, "gl_group_op")
    matrix_constant(carrier, m.rows, invertible=True, field=m.field)
    return _sandwich_table(carrier, m, label or "gl_group_op")


def _conjugates(group: Carrier, power: np.ndarray) -> np.ndarray:
    """t[g, h] = g^k h g^-k, where power[g] is the index of g^k.

    Row g is the Cayley row of g^k, gathered at the column of g^-k.
    """
    c = group.cayley
    return _take_pairs(c, c.take(power, axis=0), group.inverse.take(power)[:, None])


def _twisted_differences(group: Carrier, images: np.ndarray) -> np.ndarray:
    """t[a, b] = phi(a b^-1) b for the automorphism phi with the given index images."""
    c = group.cayley
    return _take_pairs(c, _take(images, c.take(group.inverse, axis=1), 0), np.arange(len(group)))


def conj_quandle(group: Carrier, m: int = 1, label: str | None = None) -> OpTable:
    """Twisted conjugation a*b = b^-m a b^m; the exponent is reduced mod the group order."""
    GROUP_CARRIER.require(group, "conj_quandle")
    inverse_powers = group.inverse.take(_powers(group, m))  # b^-m, so row b of t is b^-m a b^m
    return table_from_array(group, _conjugates(group, inverse_powers).T,
                            label or f"conj_quandle(m={m})")


def core_quandle(group: Carrier, label: str | None = None) -> OpTable:
    """The core operation a*b = b a^-1 b (2b - a on abelian groups)."""
    GROUP_CARRIER.require(group, "core_quandle")
    c = group.cayley  # row b of t: the Cayley row of b at the columns a^-1, then times b
    t = _take_pairs(c, c.take(group.inverse, axis=1), np.arange(len(group))[:, None])
    return table_from_array(group, t.T, label or "core_quandle")


def _require_phi(phi: GroupAutomorphism, group: Carrier) -> np.ndarray:
    if not phi.carrier.same_as(group):
        raise CarrierMismatchError("automorphism is defined over a different group")
    return np.array(phi.images, dtype=group.cayley.dtype)


def alexander_quandle(group: Carrier, phi: GroupAutomorphism, label: str | None = None) -> OpTable:
    """Twisted difference a*b = phi(a b^-1) b for an automorphism phi."""
    GROUP_CARRIER.require(group, "alexander_quandle")
    return table_from_array(group, _twisted_differences(group, _require_phi(phi, group)),
                            label or f"alexander_quandle({phi.label})")


def _pair_table(pairs: Carrier, vector: np.ndarray, element: np.ndarray, label: str) -> OpTable:
    """The table (a,A) o (b,B) = (vector[A, b], element[A, B]) on vector-group pairs.

    Both parts are index tables over the group and the vectors. A row
    depends on A alone, so each group row is built once, and the table is
    its row take.
    """
    k, dtype = len(pairs.group), index_dtype(len(pairs))
    rows = vector.astype(dtype)[:, :, None] * k + element[:, None, :]  # [A, b, B]
    return table_from_array(pairs, rows.reshape(k, -1).take(np.arange(len(pairs)) % k, axis=0), label)


def vxg_phi_op(pairs: Carrier, phi: GroupAutomorphism, label: str | None = None) -> OpTable:
    """(a,A) o (b,B) = (A b, phi(A B^-1) B) on vector-group pairs."""
    PAIR_CARRIER.require(pairs, "vxg_phi_op")
    images = _require_phi(phi, pairs.group)
    return _pair_table(pairs, pairs.action, _twisted_differences(pairs.group, images),
                       label or f"vxg_phi_op({phi.label})")


def vxg_conj_op(pairs: Carrier, n: int, label: str | None = None) -> OpTable:
    """(a,A) o_n (b,B) = (A^n b, A^n B A^-n) on vector-group pairs."""
    PAIR_CARRIER.require(pairs, "vxg_conj_op")
    group = pairs.group
    power = _powers(group, n)
    return _pair_table(pairs, pairs.action.take(power, axis=0), _conjugates(group, power),
                       label or f"vxg_conj_op(n={n})")


def opposite_op(op: OpTable, label: str | None = None) -> OpTable:
    """The transposed table: a *' b = b * a."""
    return table_from_array(op.carrier, op.table.T, label or f"opposite({op.label})")


def _verified_monoid(carrier: Carrier, who: str) -> Carrier:
    if not carrier.is_monoid:
        raise NoUnitError(f"{who} needs a carrier with a two-sided unit, got {carrier.kind}")
    if carrier.identity_index not in unit_indices(carrier.cayley):
        raise NoUnitError(f"{who}: listed identity is not a two-sided unit")
    return carrier


def pair_dimonoid_on(product: Carrier) -> tuple:
    """Dimonoid tables over an explicit M x M product carrier.

    (m,n) -| (m',n') = (m, n m' n') and (m,n) |- (m',n') = (m n m', n').
    Both read the triple products t[a, b, d] = (a b) d, one take of the
    monoid's table by itself, and add the untouched coordinate.
    """
    MONOID_SQUARE.require(product, "pair_dimonoid")
    monoid = _verified_monoid(product.factors[0], "pair_dimonoid")
    c, k, n = monoid.cayley, len(monoid), len(product)
    triple = _take(c, c, 0).astype(index_dtype(n))  # [a, b, d] -> (a b) d
    every = np.arange(k, dtype=triple.dtype)
    dashv = (every[:, None, None] * k + triple.reshape(k, n)).reshape(n, n)  # [m, n, (m', n')]
    vdash = (triple.reshape(n, k, 1) * k + every).reshape(n, n)  # [(m, n), m', n']
    return table_from_array(product, dashv, "pair_dashv"), table_from_array(product, vdash, "pair_vdash")


def pair_dimonoid(monoid: Carrier) -> tuple:
    """Dimonoid tables over M x M for a monoid carrier M."""
    _verified_monoid(monoid, "pair_dimonoid")
    return pair_dimonoid_on(direct_product(monoid, monoid))


def default_vector_action(pairs: Carrier):
    """The standard action g.x = g x as a rule on encodings."""
    return lambda g, x: Matrix(pairs.field, g).apply(x)


def action_dimonoid(pairs: Carrier, action=None) -> tuple:
    """Dimonoid tables on X x G for a verified group action of G on X.

    (x,g) -| (y,h) = (x, gh) and (x,g) |- (y,h) = (g.y, gh). The action is
    the carrier's own table, A.v, which is an action by construction, unless
    a rule on encodings is given; a given rule is checked exhaustively for
    identity and compatibility before any table is built.
    """
    PAIR_CARRIER.require(pairs, "action_dimonoid")
    group = pairs.group
    act, c = pairs.action, group.cayley
    if action is not None:
        vectors = [v for v, _ in pairs.elements[::len(group)]]
        position = {v: i for i, v in enumerate(vectors)}

        def index(image):  # -1 for an image outside the vectors, an unhashable one included
            try:
                return position.get(image, -1)
            except TypeError:
                return -1

        act = np.array([[index(action(g, v)) for v in vectors] for g in group.elements])
        moved = first_true(act[group.identity_index] != np.arange(len(vectors)))
        if moved is not None:
            raise NotAnActionError(f"identity must act trivially, moves {vectors[moved[0]]!r}")
        outside = first_true(act < 0)
        if outside is not None:
            g, v = group[outside[0]], vectors[outside[1]]
            raise NotAnActionError(f"g={g!r} moves x={v!r} outside the vectors")

        def compatibility(g0, g1):  # first (g, h, x) with (gh).x != g.(h.x)
            every = np.arange(g0, g1)[:, None, None]
            hit = first_true(_take(act, c[g0:g1], 0) != _take_pairs(act, every, act[None]))
            return None if hit is None else (g0 + hit[0],) + hit[1:]

        bad = scan_chunks(compatibility, len(group), len(group) * len(vectors))
        if bad is not None:
            g, h, v = group[bad[0]], group[bad[1]], vectors[bad[2]]
            raise NotAnActionError(f"compatibility fails at g={g!r}, h={h!r}, x={v!r}")
    k, n = len(group), len(pairs)
    every = np.arange(n // k, dtype=index_dtype(n))
    dashv = (every[:, None, None] * k + c.take(np.arange(n) % k, axis=1)).reshape(n, n)  # [a, A, (b, B)]
    return table_from_array(pairs, dashv, "action_dashv"), _pair_table(pairs, act, c, "action_vdash")


def brace_ops(group: Carrier, variant: str = "trivial") -> tuple:
    """(dot, circ) tables: the trivial brace (circ = dot) or the opposite one (circ = dot flipped)."""
    if variant not in ("trivial", "opposite"):
        raise ChoiceError(f"unknown brace variant {variant!r}")
    GROUP_CARRIER.require(group, f"brace_{variant}")
    dot = table_from_array(group, group.cayley, "dot")
    return dot, dot.relabel("circ") if variant == "trivial" else opposite_op(dot, "circ")


def brace_trivial(group: Carrier) -> tuple:
    return brace_ops(group, "trivial")


def brace_opposite(group: Carrier) -> tuple:
    return brace_ops(group, "opposite")


def parity_circ(a: int, b: int) -> int:
    """a o b = a + b for even a, a - b for odd a, on exact integers."""
    a, b = as_integer(a, "argument"), as_integer(b, "argument")
    return a + b if a % 2 == 0 else a - b


class _WindowFields(NamedTuple):
    lo: int
    hi: int


class ZParityWindow(_WindowFields):
    """Exact-integer evaluator for the parity operations on a window.

    There are no tables here: the operations are not closed on a finite
    window, so this object only answers spot checks. Arguments must lie in
    [lo, hi]; results are exact integers and may leave the window.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int):
        lo, hi = as_integer(lo, "window bound"), as_integer(hi, "window bound")
        if lo > hi:
            raise ChoiceError(f"empty window ({lo}, {hi})")
        return super().__new__(cls, lo, hi)

    def contains(self, value: int) -> bool:
        return self.lo <= as_integer(value, "argument") <= self.hi

    def _check(self, *values) -> tuple:
        """values as integers; ChoiceError for one outside the window."""
        for v in values:
            if not self.contains(v):
                raise ChoiceError(f"{v} is outside the window [{self.lo}, {self.hi}]")
        return tuple(as_integer(v, "argument") for v in values)

    def plus(self, a: int, b: int) -> int:
        return sum(self._check(a, b))

    def circ(self, a: int, b: int) -> int:
        return parity_circ(*self._check(a, b))

    # dimonoid-style aliases: -| is the parity product, |- is addition
    def dashv(self, a: int, b: int) -> int:
        return self.circ(a, b)

    def vdash(self, a: int, b: int) -> int:
        return self.plus(a, b)


def z_parity_window(lo: int, hi: int) -> ZParityWindow:
    return ZParityWindow(lo, hi)


def z_parity_brace(carrier: Carrier) -> tuple:
    """(plus, circ) tables of the parity brace on Z_2m.

    The parity of a is only well defined modulo an even modulus, so odd
    cyclic carriers are rejected.
    """
    EVEN_CYCLIC.require(carrier, "z_parity_brace")
    m = len(carrier)
    x, y = np.ogrid[:m, :m]
    circ = np.where(x % 2 == 0, 1, -1) * y  # a + b for even a, a - b for odd a
    circ += x
    circ %= m
    return table_from_array(carrier, carrier.cayley, "plus"), table_from_array(carrier, circ, "circ")
