"""Operation-table constructions over the built-in carriers.

Each construction is a gather over its carrier's index arrays: the Cayley
table, the inverse and power indices and, on vector-group pairs, the action
table. No construction evaluates a rule per element pair.

The spec language names them in one table, `dsl.CONSTRUCTIONS`: each entry
gives a construction's name, the carrier it needs, its arguments and the
function here that builds it.
"""

from typing import NamedTuple

import numpy as np

from .carriers import (
    Carrier,
    GroupAutomorphism,
    direct_product,
    power_index,
)
from .errors import (
    CarrierMismatchError,
    DimensionMismatchError,
    ModulusMismatchError,
    NoUnitError,
    NotAnActionError,
    NotClosedError,
    OddModulusError,
    SingularMatrixError,
    UnsupportedCarrierError,
)
from .matrix import Matrix, mat_add_scaled, mat_det
from .optables import OpTable, first_true, scan_chunks, table_from_array, unit_indices


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
        p = m1.field.p
        return super().__new__(cls, s % p, t % p, m1, m2)


def _require_matrix_carrier(carrier: Carrier, n: int, p: int) -> None:
    if carrier.kind not in ("matrix-set", "matrix-group"):
        raise UnsupportedCarrierError(f"need a matrix carrier, got {carrier.kind}")
    if carrier.dim != n:
        raise DimensionMismatchError(f"carrier holds {carrier.dim}x{carrier.dim} matrices, params are {n}x{n}")
    if carrier.field.p != p:
        raise ModulusMismatchError(f"carrier modulus {carrier.field.p} vs parameter modulus {p}")


def _grid(n: int) -> tuple:
    """Row and column index arrays of an n x n table: x down the rows, y across."""
    every = np.arange(n)
    return every[:, None], every[None, :]


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
    return table_from_array(carrier, carrier.cayley[rows], label)


def matrix_op(params: MatrixOpParams, carrier: Carrier, label: str | None = None) -> OpTable:
    """The two-parameter product A*B = s A M1 B + t A M2 B = A (s M1 + t M2) B."""
    _require_matrix_carrier(carrier, params.m1.n, params.m1.field.p)
    name = label or f"matrix_op(s={params.s},t={params.t})"
    return _sandwich_table(carrier, mat_add_scaled(params.s, params.m1, params.t, params.m2), name)


def gl_group_op(m: Matrix, carrier: Carrier, label: str | None = None) -> OpTable:
    """The sandwich product A*B = A M B; M must be invertible."""
    _require_matrix_carrier(carrier, m.n, m.field.p)
    if mat_det(m) == 0:
        raise SingularMatrixError(f"sandwich matrix {m.rows} is singular mod {m.field.p}")
    return _sandwich_table(carrier, m, label or "gl_group_op")


def _require_group(carrier: Carrier, who: str) -> None:
    if not carrier.is_group:
        raise UnsupportedCarrierError(f"{who} needs a group carrier, got {carrier.kind}")


def _powers(group: Carrier, k: int) -> np.ndarray:
    """Index of g^k for every g, the exponent reduced mod the group order (g^|G| = e)."""
    return power_index(group, np.arange(len(group)), k % len(group))


def conj_quandle(group: Carrier, m: int = 1, label: str | None = None) -> OpTable:
    """Twisted conjugation a*b = b^-m a b^m; the exponent is reduced mod the group order."""
    _require_group(group, "conj_quandle")
    c, power = group.cayley, _powers(group, m)
    x, y = _grid(len(group))
    return table_from_array(group, c[c[group.inverse[power][y], x], power[y]],
                            label or f"conj_quandle(m={m})")


def core_quandle(group: Carrier, label: str | None = None) -> OpTable:
    """The core operation a*b = b a^-1 b (2b - a on abelian groups)."""
    _require_group(group, "core_quandle")
    c = group.cayley
    x, y = _grid(len(group))
    return table_from_array(group, c[c[y, group.inverse[x]], y], label or "core_quandle")


def _require_phi(phi: GroupAutomorphism, group: Carrier) -> np.ndarray:
    if not phi.carrier.same_as(group):
        raise CarrierMismatchError("automorphism is defined over a different group")
    return np.array(phi.images, dtype=group.cayley.dtype)


def alexander_quandle(group: Carrier, phi: GroupAutomorphism, label: str | None = None) -> OpTable:
    """Twisted difference a*b = phi(a b^-1) b for an automorphism phi."""
    _require_group(group, "alexander_quandle")
    images, c = _require_phi(phi, group), group.cayley
    x, y = _grid(len(group))
    return table_from_array(group, c[images[c[x, group.inverse[y]]], y],
                            label or f"alexander_quandle({phi.label})")


def _require_pairs(carrier: Carrier, who: str) -> Carrier:
    if carrier.kind != "vector-group-pairs":
        raise UnsupportedCarrierError(f"{who} needs a vector-group pair carrier, got {carrier.kind}")
    return carrier.group


def _pair_parts(pairs: Carrier) -> tuple:
    """((xv, xg), (yv, yg)): the vector and group indices of row pair x and column pair y."""
    x, y = _grid(len(pairs))
    return np.divmod(x, len(pairs.group)), np.divmod(y, len(pairs.group))


def vxg_phi_op(pairs: Carrier, phi: GroupAutomorphism, label: str | None = None) -> OpTable:
    """(a,A) o (b,B) = (A b, phi(A B^-1) B) on vector-group pairs."""
    group = _require_pairs(pairs, "vxg_phi_op")
    images, c = _require_phi(phi, group), group.cayley
    (_, xg), (yv, yg) = _pair_parts(pairs)
    table = pairs.action[xg, yv] * len(group) + c[images[c[xg, group.inverse[yg]]], yg]
    return table_from_array(pairs, table, label or f"vxg_phi_op({phi.label})")


def vxg_conj_op(pairs: Carrier, n: int, label: str | None = None) -> OpTable:
    """(a,A) o_n (b,B) = (A^n b, A^n B A^-n) on vector-group pairs."""
    group = _require_pairs(pairs, "vxg_conj_op")
    power, c = _powers(group, n), group.cayley
    (_, xg), (yv, yg) = _pair_parts(pairs)
    an = power[xg]
    table = pairs.action[an, yv] * len(group) + c[c[an, yg], group.inverse[an]]
    return table_from_array(pairs, table, label or f"vxg_conj_op(n={n})")


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
    """
    if product.kind != "direct-product" or product.factors is None:
        raise UnsupportedCarrierError("pair_dimonoid needs a direct-product carrier")
    left, right = product.factors
    if not left.same_as(right):
        raise UnsupportedCarrierError("pair_dimonoid needs both product factors equal")
    monoid = _verified_monoid(left, "pair_dimonoid")
    c, k = monoid.cayley, len(monoid)
    x, y = _grid(len(product))
    (xm, xn), (ym, yn) = np.divmod(x, k), np.divmod(y, k)
    dashv = table_from_array(product, xm * k + c[c[xn, ym], yn], "pair_dashv")
    vdash = table_from_array(product, c[c[xm, xn], ym].astype(np.int64) * k + yn, "pair_vdash")
    return dashv, vdash


def pair_dimonoid(monoid: Carrier) -> tuple:
    """Dimonoid tables over M x M for a monoid carrier M."""
    _verified_monoid(monoid, "pair_dimonoid")
    return pair_dimonoid_on(direct_product(monoid, monoid))


def default_vector_action(pairs: Carrier):
    """The standard action g.x = g x as a rule on encodings."""
    return lambda g, x: Matrix(pairs.field, g).apply(x)


def action_dimonoid(pairs: Carrier, action=None) -> tuple:
    """Dimonoid tables on X x G for a verified group action of G on X.

    (x,g) -| (y,h) = (x, gh) and (x,g) |- (y,h) = (g.y, gh). The action, the
    carrier's own table unless a rule on encodings is given, is checked
    exhaustively for identity and compatibility before any table is built.
    """
    group = _require_pairs(pairs, "action_dimonoid")
    vectors = [v for v, _ in pairs.elements[::len(group)]]
    act = pairs.action
    if action is not None:
        position = {v: i for i, v in enumerate(vectors)}
        act = np.array([[position.get(action(g, v), -1) for v in vectors] for g in group.elements])
    moved = first_true(act[group.identity_index] != np.arange(len(vectors)))
    if moved is not None:
        raise NotAnActionError(f"identity must act trivially, moves {vectors[moved[0]]!r}")
    outside = first_true(act < 0)
    if outside is not None:
        g, v = group[outside[0]], vectors[outside[1]]
        raise NotAnActionError(f"g={g!r} moves x={v!r} outside the vectors")
    c = group.cayley

    def compatibility(g0, g1):  # first (g, h, x) with (gh).x != g.(h.x)
        hit = first_true(act[c[g0:g1]] != act[np.arange(g0, g1)[:, None, None], act[None]])
        return None if hit is None else (g0 + hit[0],) + hit[1:]

    bad = scan_chunks(compatibility, len(group), len(group) * len(vectors))
    if bad is not None:
        g, h, v = group[bad[0]], group[bad[1]], vectors[bad[2]]
        raise NotAnActionError(f"compatibility fails at g={g!r}, h={h!r}, x={v!r}")
    (xv, xg), (yv, yg) = _pair_parts(pairs)
    gh = c[xg, yg]
    dashv = table_from_array(pairs, xv * len(group) + gh, "action_dashv")
    vdash = table_from_array(pairs, act[xg, yv] * len(group) + gh, "action_vdash")
    return dashv, vdash


def brace_ops(group: Carrier, variant: str = "trivial") -> tuple:
    """(dot, circ) tables: the trivial brace (circ = dot) or the opposite one (circ = dot flipped)."""
    _require_group(group, "brace_ops")
    dot = table_from_array(group, group.cayley, "dot")
    if variant == "trivial":
        return dot, dot.relabel("circ")
    if variant == "opposite":
        return dot, opposite_op(dot, "circ")
    raise ValueError(f"unknown brace variant {variant!r}")


def brace_trivial(group: Carrier) -> tuple:
    return brace_ops(group, "trivial")


def brace_opposite(group: Carrier) -> tuple:
    return brace_ops(group, "opposite")


def parity_circ(a: int, b: int) -> int:
    """a o b = a + b for even a, a - b for odd a, on exact integers."""
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
        if lo > hi:
            raise ValueError(f"empty window ({lo}, {hi})")
        return super().__new__(cls, lo, hi)

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def _check(self, *values):
        for v in values:
            if not self.contains(v):
                raise ValueError(f"{v} is outside the window [{self.lo}, {self.hi}]")

    def plus(self, a: int, b: int) -> int:
        self._check(a, b)
        return a + b

    def circ(self, a: int, b: int) -> int:
        self._check(a, b)
        return parity_circ(a, b)

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
    if carrier.kind != "cyclic-group":
        raise UnsupportedCarrierError("z_parity_brace needs a cyclic carrier")
    m = len(carrier)
    if m % 2 != 0:
        raise OddModulusError(f"parity brace needs an even modulus, got {m}")
    x, y = _grid(m)
    circ = np.where(x % 2 == 0, 1, -1) * y  # a + b for even a, a - b for odd a
    circ += x
    circ %= m
    return table_from_array(carrier, carrier.cayley, "plus"), table_from_array(carrier, circ, "circ")
