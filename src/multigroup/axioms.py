"""Exhaustive axiom checks over operation tables.

Every check decides its whole tuple space in carrier order and reports the
lexicographically first violation as its witness. A failing triple scan stops
after the chunk that holds that witness (plus at most jobs - 1 chunks already
in flight), so a refutation costs the chunks up to it, not all of them.
`checked` is the tuple-space size of every stage the check ran, not the
number of comparisons made: n^3 per triple law, n^2 per pair law and n per
element law, on pass and on fail alike. A composite check stops at its first
failing stage, so its `checked` sums the stages up to and including that one.
Both are functions of the carrier and the tables alone, which makes reports
byte-identical across repeated runs and across thread counts.
"""

import numpy as np

from .errors import NotAGroupError, NotAUnitError
from .optables import (
    AxiomReport,
    Multiset,
    OpTable,
    REASON_NO_SOLUTION,
    REASON_NOT_UNIQUE,
    VERDICT_FAIL,
    failing,
    first_true,
    inverse_indices,
    passing,
    scan_chunks,
    shared_carrier,
    table_from_array,
    unit_indices,
)

LEFT = "left"
RIGHT = "right"


def _side(side: str) -> str:
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return side


def _law(axiom, carrier, sides, jobs, reason=None, cells_per_row=None) -> AxiomReport:
    """Scan one law over every triple and report its first violation.

    sides(a0, a1) returns the (left, right) values of the law for first
    coordinates a0..a1-1; their leading axes are (a - a0, b, c), and any
    further axes are compared too. cells_per_row (default n^2) sizes chunks.
    """
    n = len(carrier)

    def worker(a0, a1):
        left, right = sides(a0, a1)
        hit = first_true(left != right)
        if hit is None:
            return None
        a, b, c = hit[:3]
        return (a0 + a, b, c)

    found = scan_chunks(worker, n, cells_per_row or n * n, jobs)
    if found is not None:
        return failing(axiom, carrier, found, n**3, reason)
    return passing(axiom, n**3)


# Law shapes: each returns the chunk sides for _law.


def _bracket(A, B, C, D):
    """(x B y) A z = x C (y D z)."""
    def sides(a0, a1):
        return A[B[a0:a1], :], C[a0:a1][:, D]

    return sides


def _mixed_distrib(ta, tb):
    """(x a y) b z = (x b z) a (y b z)."""
    def sides(a0, a1):
        return tb[ta[a0:a1], :], ta[tb[a0:a1][:, None, :], tb[None, :, :]]

    return sides


def _left_distrib(t):
    """x t (y t z) = (x t y) t (x t z)."""
    def sides(a0, a1):
        sub = t[a0:a1]
        return sub[:, t], t[sub[:, :, None], sub[:, None, :]]

    return sides


def _stages(name: str, stages) -> AxiomReport:
    """Run (label, thunk) stages in order and stop at the first failing one.

    `checked` sums the stages that ran. The failing stage is reported as
    `label`, or as `label: reason` when its own report carries a reason.
    """
    checked = 0
    for label, run in stages:
        report = run()
        checked += report.checked
        if not report.passed:
            reason = label if report.reason is None else f"{label}: {report.reason}"
            return AxiomReport(name, VERDICT_FAIL, report.witness, checked, reason)
    return passing(name, checked)


def check_associativity(op: OpTable, jobs: int = 1) -> AxiomReport:
    """(a*b)*c = a*(b*c) over all triples."""
    t = op.table
    return _law("assoc", op.carrier, _bracket(t, t, t, t), jobs)


def check_interchange(op_i: OpTable, op_j: OpTable, jobs: int = 1) -> AxiomReport:
    """(a *_i b) *_j c = a *_i (b *_j c) over all triples."""
    carrier = shared_carrier(op_i, op_j)
    ti, tj = op_i.table, op_j.table
    return _law("interchange", carrier, _bracket(tj, ti, ti, tj), jobs)


def check_idempotency(op: OpTable) -> AxiomReport:
    """x*x = x for every x."""
    n = len(op)
    off = first_true(op.table.diagonal() != np.arange(n))
    if off is not None:
        return failing("idempotent", op.carrier, off, n)
    return passing("idempotent", n)


def _solution_counts(op: OpTable, side: str) -> np.ndarray:
    """counts[x, y]: right mode solutions z of x = z*y; left mode solutions u of x*u = y."""
    t = op.table
    n = len(op)
    counts = np.zeros((n, n), dtype=np.int64)
    if side == RIGHT:
        cols = np.broadcast_to(np.arange(n), (n, n))
        np.add.at(counts, (t, cols), 1)
    else:
        rows = np.broadcast_to(np.arange(n)[:, None], (n, n))
        np.add.at(counts, (rows, t), 1)
    return counts


def check_divisibility(op: OpTable, side: str, unique: bool = True) -> AxiomReport:
    """Solvability of the sided division equation for every pair.

    Right side: for each (x, y), solutions z of x = z*y. Left side: for each
    (a, b), solutions u of a*u = b. With unique=True exactly one solution is
    required; the failure reason distinguishes a missing solution from a
    non-unique one. With unique=False only existence is required.
    """
    _side(side)
    axiom = f"divisibility_{side}"
    n = len(op)
    counts = _solution_counts(op, side)
    bad = first_true((counts != 1) if unique else (counts == 0))
    if bad is not None:
        reason = REASON_NO_SOLUTION if counts[bad] == 0 else REASON_NOT_UNIQUE
        return failing(axiom, op.carrier, bad, n * n, reason)
    return passing(axiom, n * n)


def check_self_distributivity(op: OpTable, side: str, jobs: int = 1) -> AxiomReport:
    """Right: (x*y)*z = (x*z)*(y*z). Left: x*(y*z) = (x*y)*(x*z)."""
    _side(side)
    t = op.table
    sides = _mixed_distrib(t, t) if side == RIGHT else _left_distrib(t)
    return _law(f"distrib_{side}", op.carrier, sides, jobs)


def find_units(op: OpTable) -> list:
    """All two-sided units of the table (a magma has at most one)."""
    return [op.carrier.elements[e] for e in unit_indices(op.table).tolist()]


def find_inverses(op: OpTable, unit) -> tuple:
    """Two-sided inverses relative to a verified unit.

    Returns (report, mapping) where mapping takes each element to its
    lexicographically first two-sided inverse or None. The report fails on the
    first element with no inverse.
    """
    carrier = op.carrier
    e = carrier.index_of(unit)
    if e not in unit_indices(op.table):
        raise NotAUnitError(f"{unit!r} is not a two-sided unit of {op.label!r}")
    inverses = inverse_indices(op.table, e)
    mapping = dict(zip(carrier.elements, (carrier.elements[b] if b >= 0 else None
                                          for b in inverses.tolist())))
    missing = first_true(inverses < 0)
    n = len(op)
    if missing is not None:
        return failing("inverses", carrier, missing, n * n), mapping
    return passing("inverses", n * n), mapping


def check_group(op: OpTable, jobs: int = 1) -> AxiomReport:
    """Associativity, a two-sided unit, and an inverse for every element."""
    units = []

    def unit():
        units.extend(find_units(op))
        return passing("unit", len(op)) if units else failing("unit", op.carrier, (), len(op))

    return _stages("group", [
        ("assoc", lambda: check_associativity(op, jobs=jobs)),
        ("no-unit", unit),
        ("inverses", lambda: find_inverses(op, units[0])[0]),
    ])


def check_rack_quandle(
    op: OpTable, side: str, require_idempotent: bool, jobs: int = 1
) -> AxiomReport:
    """Sided rack axioms, optionally with idempotency (quandle).

    Sub-checks run in axiom order: idempotency (when required), then unique
    divisibility, then self-distributivity, all on the same side; the first
    failure is reported with its sub-axiom as the reason.
    """
    _side(side)
    name = ("quandle_" if require_idempotent else "rack_") + side
    stages = []
    if require_idempotent:
        stages.append(("idempotent", lambda: check_idempotency(op)))
    stages.append((f"divisibility_{side}", lambda: check_divisibility(op, side, unique=True)))
    stages.append((f"distrib_{side}", lambda: check_self_distributivity(op, side, jobs=jobs)))
    return _stages(name, stages)


def check_dimonoid(dashv: OpTable, vdash: OpTable, jobs: int = 1) -> AxiomReport:
    """The five two-operation axioms, checked in their standard order 1..5.

    With -| and |- for the two products, the axioms are:
      1: (x -| y) -| z = x -| (y -| z)
      2: (x -| y) -| z = x -| (y |- z)
      3: (x |- y) -| z = x |- (y -| z)
      4: (x -| y) |- z = x |- (y |- z)
      5: (x |- y) |- z = x |- (y |- z)
    The first violated axiom number is reported as the reason.
    """
    carrier = shared_carrier(dashv, vdash)
    d, v = dashv.table, vdash.table
    laws = ((d, d, d, d), (d, d, d, v), (d, v, v, d), (v, d, v, v), (v, v, v, v))
    return _stages("dimonoid", [
        (f"axiom-{k}", lambda law=law: _law("dimonoid", carrier, _bracket(*law), jobs))
        for k, law in enumerate(laws, 1)
    ])


def find_bar_units(dashv: OpTable, vdash: OpTable) -> list:
    """Elements e with x -| e = x and e |- x = x for all x."""
    carrier = shared_carrier(dashv, vdash)
    return [carrier.elements[e] for e in unit_indices(vdash.table, dashv.table).tolist()]


def check_skew_brace(dot: OpTable, circ: OpTable, jobs: int = 1) -> AxiomReport:
    """Two group structures linked by g1 o (g2 . g3) = (g1 o g2) . g1^-1 . (g1 o g3).

    Both tables must be groups (NotAGroupError otherwise); the inverse in the
    compatibility identity is taken in the dot group.
    """
    carrier = shared_carrier(dot, circ)
    for which, op in (("dot", dot), ("circ", circ)):
        group_report = check_group(op, jobs=jobs)
        if not group_report.passed:
            raise NotAGroupError(which, group_report)
    d, c = dot.table, circ.table
    inv = inverse_indices(d, unit_indices(d)[0])

    def sides(a0, a1):
        csub = c[a0:a1]
        left = csub[:, d]
        partial = d[csub, inv[a0:a1, None]]        # (g1 o g2) . g1^-1
        return left, d[partial[:, :, None], csub[:, None, :]]

    return _law("skew_brace", carrier, sides, jobs, reason="compatibility")


def check_multiquandle_pair(op_i: OpTable, op_j: OpTable, jobs: int = 1) -> AxiomReport:
    """Both mixed self-distributivity identities for an operation pair.

    First (x *_i y) *_j z = (x *_j z) *_i (y *_j z) over all triples, then the
    same with i and j exchanged; the reason names which identity broke.
    """
    carrier = shared_carrier(op_i, op_j)
    ti, tj = op_i.table, op_j.table
    return _stages("multiquandle", [
        (label, lambda ta=ta, tb=tb: _law("multiquandle", carrier, _mixed_distrib(ta, tb), jobs))
        for label, ta, tb in (("mixed-distrib-ij", ti, tj), ("mixed-distrib-ji", tj, ti))
    ])


def op_product(op_i: OpTable, op_j: OpTable, label: str | None = None) -> OpTable:
    """The composite operation p(i,j)q = (p *_i q) *_j q as a table."""
    carrier = shared_carrier(op_i, op_j)
    n = len(carrier)
    grid = op_j.table[op_i.table, np.arange(n)[None, :]]
    return table_from_array(carrier, grid, label or f"product({op_i.label},{op_j.label})")


def _op_stack(ops) -> np.ndarray:
    if not ops:
        raise ValueError("need at least one operation")
    shared_carrier(*ops)
    return np.stack([op.table for op in ops])


def nvalued_product(ops) -> list:
    """For each pair (a, b), the multiset of a *_k b over all operations k.

    Returns a 2D list indexed by carrier position, holding Multiset values.
    """
    stack = _op_stack(ops)
    n = stack.shape[1]
    return [
        [Multiset.from_indices(stack[:, a, b]) for b in range(n)] for a in range(n)
    ]


def check_nvalued_associativity(ops, jobs: int = 1) -> AxiomReport:
    """Multiset associativity of the combined multivalued product.

    (a*b)*c feeds every value of the multiset a*b (with multiplicity) through
    *c and merges; equality with a*(b*c) is multiset equality of the m^2
    results, checked for every triple.
    """
    stack = _op_stack(ops)
    carrier = ops[0].carrier
    m, n = stack.shape[0], stack.shape[1]

    def sides(a0, a1):
        k = a1 - a0
        rows = stack[:, a0:a1, :]                    # (m, k, n): a *_i b
        left = stack[:, rows, :]                     # (j, i, a, b, c)
        left = np.sort(left.reshape(m * m, k, n, n), axis=0)
        right = rows[:, :, stack]                    # (j, a, i, b, c)
        right = np.sort(right.transpose(0, 2, 1, 3, 4).reshape(m * m, k, n, n), axis=0)
        return np.moveaxis(left, 0, -1), np.moveaxis(right, 0, -1)

    return _law("nvalued_assoc", carrier, sides, jobs, cells_per_row=n * n * m * m)
