"""Operation-table constructions over the built-in carriers.

The spec language names them in one table, `dsl.CONSTRUCTIONS`: each entry
gives a construction's name, the carrier it needs, its arguments and the
function here that builds it.
"""

from dataclasses import dataclass

import numpy as np

from .carriers import (
    Carrier,
    GroupAutomorphism,
    direct_product,
    group_exponent,
    group_power,
)
from .errors import (
    ActionMismatchError,
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
from .matrix import Matrix, mat_det
from .optables import OpTable, build_op_table, first_true, table_from_array


@dataclass(frozen=True)
class MatrixOpParams:
    """Scalars and mixing matrices for the two-parameter matrix product."""

    s: int
    t: int
    m1: Matrix
    m2: Matrix

    def __post_init__(self):
        if self.m1.field.p != self.m2.field.p:
            raise ModulusMismatchError("mixing matrices live over different fields")
        if self.m1.n != self.m2.n:
            raise DimensionMismatchError("mixing matrices have different sizes")
        p = self.m1.field.p
        object.__setattr__(self, "s", self.s % p)
        object.__setattr__(self, "t", self.t % p)


def _require_matrix_carrier(carrier: Carrier, n: int, p: int) -> None:
    if carrier.kind not in ("matrix-set", "matrix-group"):
        raise UnsupportedCarrierError(f"need a matrix carrier, got {carrier.kind}")
    if carrier.dim != n:
        raise DimensionMismatchError(f"carrier holds {carrier.dim}x{carrier.dim} matrices, params are {n}x{n}")
    if carrier.field.p != p:
        raise ModulusMismatchError(f"carrier modulus {carrier.field.p} vs parameter modulus {p}")


def _bilinear_table(carrier: Carrier, s: int, t: int, m1: Matrix, m2: Matrix, label: str) -> OpTable:
    """Vectorized A*B = s A M1 B + t A M2 B with closure checked via rank lookup."""
    p, n = carrier.field.p, carrier.dim
    elems = carrier.as_matrix_array
    count = len(carrier)
    am1 = elems @ np.array(m1.rows, dtype=np.int64) % p
    am2 = elems @ np.array(m2.rows, dtype=np.int64) % p
    weights = p ** np.arange(n * n - 1, -1, -1, dtype=np.int64)
    rank_index = carrier.matrix_rank_index
    grid = np.empty((count, count), dtype=np.int64)
    rows_per_chunk = max(1, 4_000_000 // (count * n * n))
    for a0 in range(0, count, rows_per_chunk):
        a1 = min(a0 + rows_per_chunk, count)
        part = (
            s * np.einsum("aij,bjk->abik", am1[a0:a1], elems)
            + t * np.einsum("aij,bjk->abik", am2[a0:a1], elems)
        ) % p
        ranks = part.reshape(a1 - a0, count, n * n) @ weights
        idx = rank_index[ranks]
        bad = first_true(idx < 0)
        if bad is not None:
            a, b = bad
            result = tuple(tuple(int(v) for v in row) for row in part[a, b])
            raise NotClosedError(carrier.elements[a0 + a], carrier.elements[b], result)
        grid[a0:a1] = idx
    return table_from_array(carrier, grid, label)


def matrix_op(params: MatrixOpParams, carrier: Carrier, label: str | None = None) -> OpTable:
    """The two-parameter product A*B = s A M1 B + t A M2 B."""
    _require_matrix_carrier(carrier, params.m1.n, params.m1.field.p)
    name = label or f"matrix_op(s={params.s},t={params.t})"
    return _bilinear_table(carrier, params.s, params.t, params.m1, params.m2, name)


def gl_group_op(m: Matrix, carrier: Carrier, label: str | None = None) -> OpTable:
    """The sandwich product A*B = A M B; M must be invertible."""
    _require_matrix_carrier(carrier, m.n, m.field.p)
    if mat_det(m) == 0:
        raise SingularMatrixError(f"sandwich matrix {m.rows} is singular mod {m.field.p}")
    return _bilinear_table(carrier, 1, 0, m, m, label or "gl_group_op")


def _require_group(carrier: Carrier, who: str) -> None:
    if not carrier.is_group:
        raise UnsupportedCarrierError(f"{who} needs a group carrier, got {carrier.kind}")


def conj_quandle(group: Carrier, m: int = 1, label: str | None = None) -> OpTable:
    """Twisted conjugation a*b = b^-m a b^m; the exponent is reduced mod the group exponent."""
    _require_group(group, "conj_quandle")
    m_red = m % group_exponent(group)
    powers = {b: group_power(group, b, m_red) for b in group.elements}
    inv_powers = {b: group.inv(powers[b]) for b in group.elements}
    mul = group.mul
    rule = lambda a, b: mul(mul(inv_powers[b], a), powers[b])
    return build_op_table(group, rule, label or f"conj_quandle(m={m})")


def core_quandle(group: Carrier, label: str | None = None) -> OpTable:
    """The core operation a*b = b a^-1 b (2b - a on abelian groups)."""
    _require_group(group, "core_quandle")
    mul, inv = group.mul, group.inv
    rule = lambda a, b: mul(mul(b, inv(a)), b)
    return build_op_table(group, rule, label or "core_quandle")


def alexander_quandle(group: Carrier, phi: GroupAutomorphism, label: str | None = None) -> OpTable:
    """Twisted difference a*b = phi(a b^-1) b for an automorphism phi."""
    _require_group(group, "alexander_quandle")
    if not phi.carrier.same_as(group):
        raise CarrierMismatchError("automorphism is defined over a different group")
    mul, inv = group.mul, group.inv
    rule = lambda a, b: mul(phi.apply(mul(a, inv(b))), b)
    return build_op_table(group, rule, label or f"alexander_quandle({phi.label})")


def _require_pairs(carrier: Carrier, who: str) -> Carrier:
    if carrier.kind != "vector-group-pairs":
        raise UnsupportedCarrierError(f"{who} needs a vector-group pair carrier, got {carrier.kind}")
    return carrier.group


def _matvec(rows, v, p):
    return tuple(sum(row[k] * v[k] for k in range(len(v))) % p for row in rows)


def vxg_phi_op(pairs: Carrier, phi: GroupAutomorphism, label: str | None = None) -> OpTable:
    """(a,A) o (b,B) = (A b, phi(A B^-1) B) on vector-group pairs."""
    group = _require_pairs(pairs, "vxg_phi_op")
    if not phi.carrier.same_as(group):
        raise CarrierMismatchError("automorphism is defined over a different group")
    p = pairs.field.p
    mul, inv = group.mul, group.inv

    def rule(x, y):
        (_, a_mat), (b_vec, b_mat) = x, y
        return (_matvec(a_mat, b_vec, p), mul(phi.apply(mul(a_mat, inv(b_mat))), b_mat))

    return build_op_table(pairs, rule, label or f"vxg_phi_op({phi.label})")


def vxg_conj_op(pairs: Carrier, n: int, label: str | None = None) -> OpTable:
    """(a,A) o_n (b,B) = (A^n b, A^n B A^-n) on vector-group pairs."""
    group = _require_pairs(pairs, "vxg_conj_op")
    p = pairs.field.p
    n_red = n % group_exponent(group)
    powers = {A: group_power(group, A, n_red) for A in group.elements}
    inv_powers = {A: group.inv(powers[A]) for A in group.elements}
    mul = group.mul

    def rule(x, y):
        (_, a_mat), (b_vec, b_mat) = x, y
        an = powers[a_mat]
        return (_matvec(an, b_vec, p), mul(mul(an, b_mat), inv_powers[a_mat]))

    return build_op_table(pairs, rule, label or f"vxg_conj_op(n={n})")


def opposite_op(op: OpTable, label: str | None = None) -> OpTable:
    """The transposed table: a *' b = b * a."""
    return table_from_array(op.carrier, op.table.T, label or f"opposite({op.label})")


def _verified_monoid(carrier: Carrier, who: str) -> Carrier:
    if not carrier.is_monoid:
        raise NoUnitError(f"{who} needs a carrier with a two-sided unit, got {carrier.kind}")
    e = carrier.identity
    for x in carrier.elements:
        if carrier.mul(e, x) != x or carrier.mul(x, e) != x:
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
    mul = monoid.mul
    dashv = build_op_table(
        product, lambda x, y: (x[0], mul(mul(x[1], y[0]), y[1])), "pair_dashv"
    )
    vdash = build_op_table(
        product, lambda x, y: (mul(mul(x[0], x[1]), y[0]), y[1]), "pair_vdash"
    )
    return dashv, vdash


def pair_dimonoid(monoid: Carrier) -> tuple:
    """Dimonoid tables over M x M for a monoid carrier M."""
    _verified_monoid(monoid, "pair_dimonoid")
    return pair_dimonoid_on(direct_product(monoid, monoid))


def default_vector_action(pairs: Carrier):
    p = pairs.field.p
    return lambda g, x: _matvec(g, x, p)


def action_dimonoid(pairs: Carrier, action=None) -> tuple:
    """Dimonoid tables on X x G for a verified group action of G on X.

    (x,g) -| (y,h) = (x, gh) and (x,g) |- (y,h) = (g.y, gh). The action is
    checked exhaustively for identity and compatibility before any table is
    built.
    """
    group = _require_pairs(pairs, "action_dimonoid")
    if action is None:
        action = default_vector_action(pairs)
    xs = sorted({x for x, _ in pairs.elements})
    e = group.identity
    for x in xs:
        if action(e, x) != x:
            raise NotAnActionError(f"identity must act trivially, moves {x!r}")
    for g in group.elements:
        for h in group.elements:
            gh = group.mul(g, h)
            for x in xs:
                if action(gh, x) != action(g, action(h, x)):
                    raise NotAnActionError(
                        f"compatibility fails at g={g!r}, h={h!r}, x={x!r}"
                    )
    mul = group.mul
    dashv = build_op_table(pairs, lambda a, b: (a[0], mul(a[1], b[1])), "action_dashv")
    vdash = build_op_table(
        pairs, lambda a, b: (action(a[1], b[0]), mul(a[1], b[1])), "action_vdash"
    )
    return dashv, vdash


def brace_ops(group: Carrier, variant: str = "trivial") -> tuple:
    """(dot, circ) tables: the trivial brace (circ = dot) or the opposite one (circ = dot flipped)."""
    _require_group(group, "brace_ops")
    dot = build_op_table(group, group.mul, "dot")
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


@dataclass(frozen=True)
class ZParityWindow:
    """Exact-integer evaluator for the parity operations on a window.

    There are no tables here: the operations are not closed on a finite
    window, so this object only answers spot checks. Arguments must lie in
    [lo, hi]; results are exact integers and may leave the window.
    """

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty window ({self.lo}, {self.hi})")

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
    plus = build_op_table(carrier, carrier.mul, "plus")
    circ = build_op_table(carrier, lambda a, b: parity_circ(a, b) % m, "circ")
    return plus, circ
