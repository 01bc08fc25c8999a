"""Exhaustive axiom checks over operation tables.

Every check decides its whole tuple space and reports the lexicographically
first violation, in carrier order, as its witness. A triple law is decided in
at most two steps:
- Proofs. Associativity (`assoc`, the assoc stage of `group`, the group
  checks of `skew_brace`, dimonoid axioms 1 and 5) by Light's test over a
  generating set, the whole carrier when testing every element costs no more
  cells than searching for generators, and the interchange law
  (`interchange`, dimonoid axiom 3) by Light's test on its inner table and
  a left-ideal cover. Light's test runs once per table within a check. Each
  proof gives up past n^3/8 compared cells.
- One scan over the orbit representatives. Candidate permutations come from
  the carrier (x -> u x for units u on Z_n, conjugation by generators on
  symmetric and matrix groups), and those verified to be automorphisms of
  every table the law reads split the carrier into orbits. The scan covers
  the triples whose first coordinate is an orbit's least element, in
  ascending order, and its first hit is the witness. Carriers with no
  surviving candidate have one orbit per element, so every row is scanned.
  A failing scan stops after the chunk that holds its first hit (plus at
  most jobs - 1 chunks already in flight).
`checked` is the tuple-space size of every stage the check ran, not the
number of comparisons made: n^3 per triple law, n^2 per pair law and n per
element law, on pass and on fail alike, proved or scanned. A composite check
stops at its first failing stage, so its `checked` sums the stages up to and
including that one. Both are functions of the carrier and the tables alone,
which makes reports byte-identical across repeated runs and across thread
counts.
"""

import functools

import numpy as np

from .errors import NotAGroupError, NotAUnitError
from .optables import (
    PROOF_CELLS,
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
    _endomorphism_failure,
    _generators,
    _step,
)

LEFT = "left"
RIGHT = "right"


def _side(side: str) -> str:
    if side not in (LEFT, RIGHT):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return side


def _law(axiom, carrier, sides, orbits, jobs, reason=None, cells_per_row=None,
         decide=None) -> AxiomReport:
    """Decide one law over every triple and report its first violation.

    sides(rows) returns the (left, right) values of the law for the first
    coordinates in rows, an ascending intp array; their leading axes are
    (a, b, c), a counted along rows, and any further axes are compared too.
    orbits() gives the orbit representatives of the tables the law reads (see
    _orbits). cells_per_row (default n^2) sizes chunks. decide, when given,
    may prove the law without a scan: when it returns True the law holds on
    every triple. Otherwise one scan over the representatives decides it.
    """
    n = len(carrier)
    if decide is not None and decide():
        return passing(axiom, n**3)
    found = _first_failure(sides, orbits(), cells_per_row or n * n, jobs)
    if found is not None:
        return failing(axiom, carrier, found, n**3, reason)
    return passing(axiom, n**3)


def _first_failure(sides, rows, width, jobs):
    """The first failing (a, b, c) with a in rows, an ascending intp array of first coordinates."""
    def worker(a0, a1):
        left, right = sides(rows[a0:a1])
        hit = first_true(left != right)
        if hit is None:
            return None
        a, b, c = hit[:3]
        return (rows[a0 + a], b, c)

    return scan_chunks(worker, len(rows), width, jobs)


# Proofs: each returns True only when its law holds on every triple, and
# False when it refutes the law or would compare more than `cap` cells. Their
# temporaries stay within PROOF_CELLS (see optables).


def _row_keys(t: np.ndarray) -> np.ndarray:
    """A wrapping 64-bit linear hash of every row of t; equal rows get equal keys."""
    m = t.shape[1]
    weights = np.arange(1, m + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    weights ^= weights >> np.uint64(29)
    keys = np.empty(len(t), dtype=np.uint64)
    step = _step(4 * m)
    for a0 in range(0, len(t), step):
        keys[a0:a0 + step] = t[a0:a0 + step].astype(np.uint64) @ weights
    return keys


def _has_right_unit(t: np.ndarray) -> bool:
    """Whether some column e of t has t[x, e] = x for every x, as a monoid's unit has.

    Only the columns with t[n - 1, e] = n - 1 are candidates, and each is
    verified whole.
    """
    n = len(t)
    candidates = np.flatnonzero(t[n - 1] == n - 1)
    xs = np.arange(n)[:, None]
    step = _step(n)
    return any((t[:, candidates[c0:c0 + step]] == xs).all(axis=0).any()
               for c0 in range(0, len(candidates), step))


def _class_reps(t: np.ndarray) -> np.ndarray:
    """Ascending indices of rows of t such that every row equals one of them.

    No two rows are equal, and every row is its own class, when column 0
    takes n distinct values, as on a group table (one bincount), or when t
    has a right unit, whose column tells every row apart, as on a monoid
    table whose column 0 repeats. Otherwise rows are sorted by key, and a row
    joins its predecessor's class only when the two are exactly equal: a key
    collision can cost a merge, but never merges unequal rows.
    """
    n, m = t.shape
    if np.bincount(t[:, 0]).max() == 1 or _has_right_unit(t):
        return np.arange(n)
    order = np.argsort(_row_keys(t), kind="stable")
    fresh = np.ones(n, dtype=bool)
    step = _step(m)
    for a0 in range(1, n, step):
        a1 = min(a0 + step, n)
        fresh[a0:a1] = (t[order[a0:a1]] != t[order[a0 - 1:a1 - 1]]).any(axis=1)
    return np.sort(order[fresh])


def _associative(t: np.ndarray, cap: int) -> bool:
    """Light's associativity test: (x g) y = x (g y) for every generator g.

    The g for which this holds for all x and y are closed under the product,
    so when a generating set passes, every element does (Clifford & Preston,
    The Algebraic Theory of Semigroups, vol. 1, 1961). Both sides depend on
    x only through row x of t, and on y only through column y, so x ranges
    over one representative per class of equal rows, and y over one per
    class of equal columns when those columns fit in PROOF_CELLS (over every
    y otherwise): |generators| * |x| * |y| cells. When |x| * |y| <= n and
    the cap allows n generators, every element is tested: the whole carrier
    generates, and testing it costs at most n^2 cells, which a search for
    generators reads anyway.
    """
    n = len(t)
    rows, cols = _class_reps(t), _class_reps(t.T)
    if len(cols) == n or n * len(cols) > PROOF_CELLS:
        cols, narrow = np.arange(n), t
    else:
        narrow = t[:, cols]
    limit = cap // (len(rows) * len(cols))
    if len(rows) * len(cols) <= n <= limit:
        gens = np.arange(n)
    else:
        gens = _generators(t, limit)
        if gens is None:
            return False
    # rows x and each (x, g, y) block take at most half of PROOF_CELLS each
    step = _step(2 * n)
    for a0 in range(0, len(rows), step):
        tx = t[rows[a0:a0 + step]]
        per_block = _step(2 * len(tx) * len(cols))
        for g0 in range(0, len(gens), per_block):
            g = gens[g0:g0 + per_block]
            # (x g) y and x (g y), each of shape (x, g, y)
            if (narrow[tx[:, g]] != np.take(tx, narrow[g], axis=1)).any():
                return False
    return True


def _interchanges(ti: np.ndarray, tj: np.ndarray, cap: int) -> bool:
    """(x i y) j z = x i (y j z) for all triples, by a left-ideal cover of an associative i.

    When i is associative, the y for which the law holds for every x and z
    form a left ideal of (Q, i): for such y and any w,
        (x i (w i y)) j z = ((x i w) i y) j z = (x i w) i (y j z)
                          = x i (w i (y j z)) = x i ((w i y) j z).
    So each least y not yet covered is tested over all (x, z), n^2 cells, and
    when it passes it covers itself and its column i[:, y]. The caller proves
    the associativity of i first: on a table that is not associative the
    cover proves nothing.
    """
    n = len(ti)
    covered = np.zeros(n, dtype=bool)
    step = _step(n)
    for _ in range(cap // (n * n)):
        y = int(np.argmin(covered))
        column, yz = ti[:, y], tj[y]
        for a0 in range(0, n, step):
            if (tj[column[a0:a0 + step]] != ti[a0:a0 + step][:, yz]).any():
                return False
        covered[y] = True
        covered[column] = True
        if covered.all():
            return True
    return False


# The orbit step. If a permutation s of the carrier is an automorphism of
# every table a law reads, the law fails at (a, b, c) exactly when it fails at
# (s a, s b, s c). So the first coordinates of failing triples are a union of
# orbits under the group the verified candidates generate, and the least of
# them is the least element of its orbit: scanning only the rows of those
# least elements, in ascending order, finds the lexicographically first
# witness, in |reps| * n^2 cells instead of n^3. Candidates come from the
# carrier alone (Carrier.automorphism_candidates), and each is kept only when
# optables._endomorphism_failure finds no pair it breaks on any table; the
# candidates are permutations, so a kept one is an automorphism.


def _orbit_reps(carrier, tables):
    """The least element of every orbit of the candidates that are automorphisms of all tables.

    An ascending intp array; every element when no candidate survives. Orbits
    come from min-label propagation: each element's label falls to the least
    label it reaches through a kept permutation or through its own label,
    until nothing moves.
    """
    tables = list({id(t): t for t in tables}.values())
    kept = [s for s in carrier.automorphism_candidates
            if all(_endomorphism_failure(s, t) is None for t in tables)]
    every = np.arange(len(carrier))
    labels = every
    while True:
        low = labels
        for s in kept:
            low = np.minimum(low, low[s])
        low = low[low]
        if np.array_equal(low, labels):
            return np.flatnonzero(labels == every)
        labels = low


def _orbits(carrier, *tables):
    """_orbit_reps(carrier, tables) as a thunk that computes it once, for laws that share it.

    The tables are every table the laws read: a permutation that is an
    automorphism of all of them is one of each table of each law.
    """
    return functools.cache(lambda: _orbit_reps(carrier, tables))


# Law shapes: each returns the sides(rows) of _law, which take only an ascending
# intp array of first coordinates.


def _bracket(A, B, C, D):
    """(x B y) A z = x C (y D z)."""
    def sides(rows):
        return A[B[rows], :], C[rows][:, D]

    return sides


def _associativity(cap: int):
    """t -> _associative(t, cap), run once per table, for laws that share tables."""
    verdicts = {}

    def associative(t):
        if id(t) not in verdicts:
            verdicts[id(t)] = _associative(t, cap)
        return verdicts[id(t)]

    return associative


def _bracket_law(axiom, carrier, law, jobs, orbits=None, associative=None) -> AxiomReport:
    """The law of _bracket(*law), proved without a scan where its shape allows.

    With one table throughout it is associativity. With A and D one table j
    and B and C one table i it is the interchange law (x i y) j z = x i (y j z),
    proved by the associativity of i and the left-ideal cover. associative
    (default: a fresh _associativity) holds the verdicts of Light's test that
    the laws of one check share.
    """
    A, B, C, D = law
    cap = len(A) ** 3 // 8
    associative = associative or _associativity(cap)
    decide = None
    if A is B is C is D:
        decide = lambda: associative(A)
    elif A is D and B is C:
        decide = lambda: associative(B) and _interchanges(B, A, cap)
    return _law(axiom, carrier, _bracket(*law), orbits or _orbits(carrier, *law), jobs,
                decide=decide)


def _mixed_distrib(ta, tb):
    """(x a y) b z = (x b z) a (y b z)."""
    def sides(rows):
        return tb[ta[rows], :], ta[tb[rows][:, None, :], tb[None, :, :]]

    return sides


def _left_distrib(t):
    """x t (y t z) = (x t y) t (x t z)."""
    def sides(rows):
        sub = t[rows]
        return sub[:, t], t[sub[:, :, None], sub[:, None, :]]

    return sides


def _brace_compatibility(d, c):
    """g1 c (g2 d g3) = (g1 c g2) d g1^-1 d (g1 c g3), with the inverse of the group d."""
    inv = inverse_indices(d, unit_indices(d)[0])

    def sides(rows):
        csub = c[rows]
        partial = d[csub, inv[rows][:, None]]        # (g1 o g2) . g1^-1
        return csub[:, d], d[partial[:, :, None], csub[:, None, :]]

    return sides


def _nvalued(stack):
    """(x * y) * z = x * (y * z) as multisets over every pair of the stacked tables."""
    m, n = stack.shape[0], stack.shape[1]

    def sides(rows):
        sub = stack[:, rows, :]                      # (m, k, n): a *_i b
        k = sub.shape[1]
        left = stack[:, sub, :]                      # (j, i, a, b, c)
        left = np.sort(left.reshape(m * m, k, n, n), axis=0)
        right = sub[:, :, stack]                     # (j, a, i, b, c)
        right = np.sort(right.transpose(0, 2, 1, 3, 4).reshape(m * m, k, n, n), axis=0)
        return np.moveaxis(left, 0, -1), np.moveaxis(right, 0, -1)

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
    return _bracket_law("assoc", op.carrier, (t, t, t, t), jobs)


def check_interchange(op_i: OpTable, op_j: OpTable, jobs: int = 1) -> AxiomReport:
    """(a *_i b) *_j c = a *_i (b *_j c) over all triples."""
    carrier = shared_carrier(op_i, op_j)
    ti, tj = op_i.table, op_j.table
    return _bracket_law("interchange", carrier, (tj, ti, ti, tj), jobs)


def check_idempotency(op: OpTable) -> AxiomReport:
    """x*x = x for every x."""
    n = len(op)
    off = first_true(op.table.diagonal() != np.arange(n))
    if off is not None:
        return failing("idempotent", op.carrier, off, n)
    return passing("idempotent", n)


def _solution_counts(op: OpTable, side: str) -> np.ndarray:
    """counts[x, y]: right mode solutions z of x = z*y; left mode solutions u of x*u = y.

    The left count of row x is the histogram of its values, taken by one
    bincount per row block. The right count is the left count of the
    transposed table, transposed back; it is a view, in which first_true
    still finds the row-major first (x, y).
    """
    t = op.table if side == LEFT else op.table.T
    n = len(op)
    counts = np.empty((n, n), dtype=np.int32)
    step = _step(4 * n)
    for a0 in range(0, n, step):
        block = t[a0:a0 + step]
        cells = np.arange(len(block))[:, None] * n + block
        counts[a0:a0 + step] = np.bincount(cells.ravel(), minlength=block.size).reshape(block.shape)
    return counts if side == LEFT else counts.T


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
    return _law(f"distrib_{side}", op.carrier, sides, _orbits(op.carrier, t), jobs)


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
    orbits = _orbits(carrier, d, v)
    # axioms 3 and 5 both rest on the associativity of |-: prove it once
    associative = _associativity(len(carrier) ** 3 // 8)
    return _stages("dimonoid", [
        (f"axiom-{k}", lambda law=law: _bracket_law("dimonoid", carrier, law, jobs, orbits,
                                                    associative))
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
    # an automorphism of dot commutes with its inverse, so (d, c) are all the law reads
    d, c = dot.table, circ.table
    return _law("skew_brace", carrier, _brace_compatibility(d, c), _orbits(carrier, d, c), jobs,
                reason="compatibility")


def check_multiquandle_pair(op_i: OpTable, op_j: OpTable, jobs: int = 1) -> AxiomReport:
    """Both mixed self-distributivity identities for an operation pair.

    First (x *_i y) *_j z = (x *_j z) *_i (y *_j z) over all triples, then the
    same with i and j exchanged; the reason names which identity broke.
    """
    carrier = shared_carrier(op_i, op_j)
    ti, tj = op_i.table, op_j.table
    orbits = _orbits(carrier, ti, tj)
    return _stages("multiquandle", [
        (label, lambda ta=ta, tb=tb: _law("multiquandle", carrier, _mixed_distrib(ta, tb),
                                          orbits, jobs))
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
    m, n = stack.shape[0], stack.shape[1]
    orbits = _orbits(ops[0].carrier, *(op.table for op in ops))
    return _law("nvalued_assoc", ops[0].carrier, _nvalued(stack), orbits, jobs,
                cells_per_row=n * n * m * m)
