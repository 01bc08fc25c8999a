"""Exhaustive axiom checks over operation tables.

Every check decides its whole tuple space and reports the lexicographically
first violation, in carrier order, as its witness. A triple law is a shape
and its tables, and one ladder (_decide) decides every triple law in at most
two steps:
- The proof the law's shape allows, chosen in one place (_proved).
  Associativity (`assoc`, the assoc stage of `group`, the group checks of
  `skew_brace`, dimonoid axioms 1 and 5) by Light's test over a generating
  set, the whole carrier when testing every element costs no more cells
  than searching for generators, and the interchange law (`interchange`,
  dimonoid axiom 3) by Light's test on its inner table and a left-ideal
  cover. Other shapes have no proof yet. Light's test runs once per table:
  its verdict is kept in the OpTable's memo, which every check on that
  table, or on a relabelling of it, reads. Each proof gives up past n^3/8
  compared cells.
- One scan over the orbit representatives. Candidate permutations come from
  the carrier (x -> u x for units u on Z_n, conjugation by generators on
  symmetric and matrix groups), and those verified to be automorphisms of
  every table the law reads split the carrier into orbits; each candidate's
  verdict on a table is kept in that table's memo too. The scan covers
  the triples whose first coordinate is an orbit's least element, in
  ascending order, and its first hit is the witness. Carriers with no
  surviving candidate have one orbit per element, so every row is scanned.
  So is every row of a law whose n rows fit in one scan chunk, where the
  orbit step is skipped: verifying candidates costs more than the rows it
  saves. Once a failing scan finds its first hit, it starts no chunk past
  the one that holds it (optables.scan_chunks). A chunk gathers both sides
  of the law through the gather kernel of optables (_take, _take_pairs),
  by take on intp indices made in blocks of at most optables.GATHER_CELLS,
  so besides its two sides and their mask it holds one block of indices.
  Chunks, index blocks and the proofs' blocks all come from
  optables._row_blocks.
Divisibility, a pair law, is decided on sorted rows: a row of the table (or
of its transpose, for the right side) leaves every division equation of its
pairs with exactly one solution only when it sorts to 0..n-1, and the least
bad value of a row that does not is read off its first deviation
(check_divisibility).
`checked` is the tuple-space size of every stage the check ran, not the
number of comparisons made: n^3 per triple law, n^2 per pair law and n per
element law, on pass and on fail alike, proved or scanned. A composite check
runs its stages in order and nothing after its first failing stage, so its
`checked` sums the stages up to and including that one. Both are functions
of the carrier and the tables alone, which makes reports byte-identical
across repeated runs and across thread counts.
"""

import numpy as np

from . import optables
from .errors import ChoiceError, NotAGroupError, NotAUnitError
from .optables import (
    AxiomReport,
    Multiset,
    OpTable,
    REASON_NO_SOLUTION,
    REASON_NOT_UNIQUE,
    VERDICT_FAIL,
    failing,
    first_true,
    index_dtype,
    inverse_indices,
    job_count,
    passing,
    scan_chunks,
    shared_carrier,
    table_from_array,
    unit_indices,
    _endomorphism_failure,
    _generators,
    _row_blocks,
    _take,
    _take_pairs,
)

LEFT = "left"
RIGHT = "right"


def _side(side: str) -> str:
    if side not in (LEFT, RIGHT):
        raise ChoiceError(f"side must be 'left' or 'right', got {side!r}")
    return side


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
    for a0, a1 in _row_blocks(len(t), 4 * m, optables.PROOF_CELLS):
        keys[a0:a1] = t[a0:a1].astype(np.uint64) @ weights
    return keys


def _has_right_unit(t: np.ndarray) -> bool:
    """Whether some column e of t has t[x, e] = x for every x, as a monoid's unit has.

    Only the columns with t[n - 1, e] = n - 1 are candidates, and each is
    verified whole.
    """
    n = len(t)
    candidates = np.flatnonzero(t[n - 1] == n - 1)
    xs = np.arange(n)[:, None]
    return any((t[:, candidates[c0:c1]] == xs).all(axis=0).any()
               for c0, c1 in _row_blocks(len(candidates), n, optables.PROOF_CELLS))


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
    for a0, a1 in _row_blocks(n - 1, m, optables.PROOF_CELLS):  # rows 1..n-1 of the order
        fresh[a0 + 1:a1 + 1] = (t[order[a0 + 1:a1 + 1]] != t[order[a0:a1]]).any(axis=1)
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
    if len(cols) == n or n * len(cols) > optables.PROOF_CELLS:  # t[:, cols] does not fit
        cols, narrow = np.arange(n), t
    else:
        narrow = t[:, cols]
    limit = cap // (len(rows) * len(cols))
    if limit == 0:  # not one generator fits, and a non-empty magma needs one
        return False
    if len(rows) * len(cols) <= n <= limit:
        gens = np.arange(n)
    else:
        gens = _generators(t, limit)
        if gens is None:
            return False
    # rows x and each (x, g, y) block take at most half of PROOF_CELLS each
    for a0, a1 in _row_blocks(len(rows), 2 * n, optables.PROOF_CELLS):
        tx = t[rows[a0:a1]]
        for g0, g1 in _row_blocks(len(gens), 2 * len(tx) * len(cols), optables.PROOF_CELLS):
            g = gens[g0:g1]
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
    blocks = _row_blocks(n, n, optables.PROOF_CELLS)
    for _ in range(cap // (n * n)):
        y = int(np.argmin(covered))
        column, yz = ti[:, y], tj[y]
        for a0, a1 in blocks:
            if (tj[column[a0:a1]] != ti[a0:a1][:, yz]).any():
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
# candidates are permutations, so a kept one is an automorphism. A verdict
# depends on the table alone and is kept in its OpTable's memo, so the laws
# and checks that read one table verify each candidate on it once.


def _known(op: OpTable, key, learn) -> bool:
    """learn(op.table) once per table, kept in op's memo under key: "light" or a candidate's index."""
    if key not in op._memo:
        op._memo[key] = learn(op.table)
    return op._memo[key]


def _light(op: OpTable) -> bool:
    """Light's verdict on op within the cap of n^3/8 cells."""
    return _known(op, "light", lambda t: _associative(t, len(t) ** 3 // 8))


def _orbit_reps(carrier, ops):
    """The least element of every orbit of the candidates that are automorphisms of all ops.

    An ascending intp array; every element when no candidate survives. Orbits
    come from min-label propagation: each element's label falls to the least
    label it reaches through a kept permutation or through its own label,
    until nothing moves.
    """
    kept = [s for i, s in enumerate(carrier.automorphism_candidates)
            if all(_known(op, i, lambda t: _endomorphism_failure(s, t) is None) for op in ops)]
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


# Law shapes. A law is a shape and its tables: shape(*tables) returns sides(rows),
# the (left, right) values of the law for the first coordinates in rows, an
# ascending intp array; their leading axes are (a, b, c), a counted along rows,
# and any further axes are compared too.
#
# Every gather is a take through the gather kernel of optables (_take and
# _take_pairs), on intp indices converted or built one row block of at most
# optables.GATHER_CELLS at a time inside each chunk. That is the scan's own
# budget, not the proofs' PROOF_CELLS, and it is read when the chunk runs. No
# intp copy of a table outlives its block: beside a chunk's two sides and its
# mask, each thread holds one block.


def _bracket(A, B, C, D):
    """(x B y) A z = x C (y D z)."""
    def sides(rows):
        return _take(A, B[rows], 0), _take(C[rows], D, 1)

    return sides


def _mixed_distrib(ta, tb):
    """(x a y) b z = (x b z) a (y b z)."""
    def sides(rows):
        return _take(tb, ta[rows], 0), _take_pairs(ta, tb[rows][:, None, :], tb[None])

    return sides


def _left_distrib(t):
    """x t (y t z) = (x t y) t (x t z)."""
    def sides(rows):
        sub = t[rows]
        return _take(sub, t, 1), _take_pairs(t, sub[:, :, None], sub[:, None, :])

    return sides


def _brace_compatibility(d, c):
    """g1 c (g2 d g3) = (g1 c g2) d g1^-1 d (g1 c g3), with the inverse of the group d."""
    inv = inverse_indices(d, unit_indices(d)[0])

    def sides(rows):
        csub = c[rows]
        partial = _take_pairs(d, csub, inv[rows][:, None])  # (g1 o g2) . g1^-1
        return _take(csub, d, 1), _take_pairs(d, partial[:, :, None], csub[:, None, :])

    return sides


def _nvalued(*tables):
    """(x * y) * z = x * (y * z) as multisets over every pair of the tables."""
    stack = np.stack(tables)
    m, n = stack.shape[0], stack.shape[1]

    def sides(rows):
        sub = stack[:, rows, :]                      # (m, k, n): a *_i b
        k = sub.shape[1]
        left = _take(stack, sub, 1)                  # (j, i, a, b, c)
        left = np.sort(left.reshape(m * m, k, n, n), axis=0)
        right = _take(sub, stack, 2)                 # (i, a, j, b, c)
        right = np.sort(right.transpose(0, 2, 1, 3, 4).reshape(m * m, k, n, n), axis=0)
        return np.moveaxis(left, 0, -1), np.moveaxis(right, 0, -1)

    return sides


def _proved(shape, ops) -> bool:
    """Whether the proof the law's shape allows shows that it holds on every triple.

    _bracket(A, B, C, D) with one table throughout is associativity. With
    A and D one table j and B and C one table i it is the interchange law
    (x i y) j z = x i (y j z), proved by the associativity of i and the
    left-ideal cover. Tables are the same when their grids are one array. No
    other shape has a proof yet.
    """
    if shape is not _bracket:
        return False
    A, B, C, D = ops
    if A.table is B.table is C.table is D.table:
        return _light(A)
    return (A.table is D.table and B.table is C.table and _light(B)
            and _interchanges(B.table, A.table, len(A) ** 3 // 8))


def _decide(axiom, shape, *ops, jobs, reason=None, width=None) -> AxiomReport:
    """Decide the law shape(*grids of ops) over every triple and report its first violation.

    The proof its shape allows runs first. When that does not prove the
    law, one scan over the orbit representatives of ops, the tables the law
    reads, decides it; width (default n^2) is the cells per row that size
    its chunks. When every row fits in one chunk, every row is scanned and
    the orbit step is skipped: verifying candidates would cost more than
    the rows it saves. A jobs that job_count refuses is refused first.
    """
    jobs = job_count(jobs)
    carrier = ops[0].carrier
    n = len(carrier)
    if not _proved(shape, ops):
        width = width or n * n
        rows = np.arange(n) if n * width <= optables.CHUNK_CELLS else _orbit_reps(carrier, ops)
        found = _first_failure(shape(*(op.table for op in ops)), rows, width, jobs)
        if found is not None:
            return failing(axiom, carrier, found, n**3, reason)
    return passing(axiom, n**3)


def _stages(name: str, stages) -> AxiomReport:
    """Run (label, report) stages in order and stop at the first failing one.

    stages is lazy, a generator: a stage's report is made only when every
    stage before it passed, so nothing runs after the first failure.
    `checked` sums the stages that ran. The failing stage is reported as
    `label`, or as `label: reason` when its own report carries a reason.
    """
    checked = 0
    for label, report in stages:
        checked += report.checked
        if not report.passed:
            reason = label if report.reason is None else f"{label}: {report.reason}"
            return AxiomReport(name, VERDICT_FAIL, report.witness, checked, reason)
    return passing(name, checked)


def check_associativity(op: OpTable, jobs: int = 1) -> AxiomReport:
    """(a*b)*c = a*(b*c) over all triples."""
    return _decide("assoc", _bracket, op, op, op, op, jobs=jobs)


def check_interchange(op_i: OpTable, op_j: OpTable, jobs: int = 1) -> AxiomReport:
    """(a *_i b) *_j c = a *_i (b *_j c) over all triples."""
    shared_carrier(op_i, op_j)
    return _decide("interchange", _bracket, op_j, op_i, op_i, op_j, jobs=jobs)


def check_idempotency(op: OpTable) -> AxiomReport:
    """x*x = x for every x."""
    n = len(op)
    off = first_true(op.table.diagonal() != np.arange(n))
    if off is not None:
        return failing("idempotent", op.carrier, off, n)
    return passing("idempotent", n)


def _first_bad_values(rows: np.ndarray, unique: bool) -> np.ndarray:
    """The least bad value of every sorted row of n values in 0..n-1, or n for a good row.

    A row is good, in both modes, exactly when it is 0..n-1: n cells cover
    the n values only as a permutation. Else the first cell that differs
    from its position follows prev, the cell before it (-1 for cell 0). With
    unique, the least bad value is prev + 1, missing, when the gap from prev
    is more than 1, and prev, repeated, otherwise. Without it, the least bad
    value is the least missing one, prev + 1 at the first gap of more than 1
    in the row between -1 and n.
    """
    k, n = rows.shape
    values = np.full(k, n, dtype=np.intp)
    off = rows != np.arange(n, dtype=rows.dtype)  # an int64 range would widen every cell
    bad = np.flatnonzero(off.any(axis=1))
    if len(bad):
        rows, i = rows[bad], np.arange(len(bad))
        if unique:
            at = off[bad].argmax(axis=1)
        else:  # steps between -1, the sorted row and n lie in 0..n, so they keep the row's dtype
            edge = rows.dtype.type
            at = (np.diff(rows, prepend=edge(-1), append=edge(n), axis=1) > 1).argmax(axis=1)
        previous = np.where(at > 0, rows[i, at - 1], -1)
        values[bad] = previous + ((rows[i, at] - previous > 1) if unique else 1)
    return values


def check_divisibility(op: OpTable, side: str, unique: bool = True) -> AxiomReport:
    """Solvability of the sided division equation for every pair.

    Right side: for each (x, y), solutions z of x = z*y. Left side: for each
    (a, b), solutions u of a*u = b. With unique=True exactly one solution is
    required; the failure reason distinguishes a missing solution from a
    non-unique one. With unique=False only existence is required.

    The left side sorts the rows of the table, the right side the rows of
    its transposed blocks, which are its columns. A block holds PROOF_CELLS
    cells, sorted in the table's index dtype, and no temporary cell is
    wider. A pair fails where its value is bad in its sorted row
    (_first_bad_values). The left witness is the first bad row at its least
    bad value, and it ends the loop. The right witness is the least bad
    value over every column, at the least column that holds it. The reason
    is the number of solutions at the witness.
    """
    _side(side)
    axiom, n = f"divisibility_{side}", len(op)
    t = op.table if side == LEFT else op.table.T
    values = np.full(n, n, dtype=np.intp)
    for a0, a1 in _row_blocks(n, n, optables.PROOF_CELLS):
        rows = np.array(t[a0:a1], dtype=index_dtype(n), order="C")
        rows.sort(axis=1)
        values[a0:a1] = _first_bad_values(rows, unique)
        if side == LEFT and values[a0:a1].min() < n:
            break
    if values.min() == n:
        return passing(axiom, n * n)
    row = int(np.argmax(values < n) if side == LEFT else np.argmin(values))
    value = int(values[row])
    reason = REASON_NO_SOLUTION if np.count_nonzero(t[row] == value) == 0 else REASON_NOT_UNIQUE
    witness = (row, value) if side == LEFT else (value, row)
    return failing(axiom, op.carrier, witness, n * n, reason)


def check_self_distributivity(op: OpTable, side: str, jobs: int = 1) -> AxiomReport:
    """Right: (x*y)*z = (x*z)*(y*z). Left: x*(y*z) = (x*y)*(x*z)."""
    _side(side)
    shape, ops = (_mixed_distrib, (op, op)) if side == RIGHT else (_left_distrib, (op,))
    return _decide(f"distrib_{side}", shape, *ops, jobs=jobs)


def find_units(op: OpTable) -> list:
    """All two-sided units of the table (a magma has at most one)."""
    return [op.carrier.elements[e] for e in unit_indices(op.table).tolist()]


def _inverses_report(op: OpTable, inverses: np.ndarray) -> AxiomReport:
    """The report on inverse_indices, failing on the first element with no inverse (-1)."""
    missing, n = first_true(inverses < 0), len(op)
    return passing("inverses", n * n) if missing is None else failing("inverses", op.carrier, missing, n * n)


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
    return _inverses_report(op, inverses), mapping


def check_group(op: OpTable, jobs: int = 1) -> AxiomReport:
    """Associativity, a two-sided unit, and an inverse for every element, decided on indices."""
    def stages():
        yield "assoc", check_associativity(op, jobs=jobs)
        units, n = unit_indices(op.table), len(op)
        yield "no-unit", passing("unit", n) if len(units) else failing("unit", op.carrier, (), n)
        yield "inverses", _inverses_report(op, inverse_indices(op.table, units[0]))

    return _stages("group", stages())


def check_rack_quandle(
    op: OpTable, side: str, require_idempotent: bool, jobs: int = 1
) -> AxiomReport:
    """Sided rack axioms, optionally with idempotency (quandle).

    Sub-checks run in axiom order: idempotency (when required), then unique
    divisibility, then self-distributivity, all on the same side; the first
    failure is reported with its sub-axiom as the reason.
    """
    _side(side)
    jobs = job_count(jobs)  # before the stages that take no jobs run
    name = ("quandle_" if require_idempotent else "rack_") + side

    def stages():
        if require_idempotent:
            yield "idempotent", check_idempotency(op)
        yield f"divisibility_{side}", check_divisibility(op, side, unique=True)
        yield f"distrib_{side}", check_self_distributivity(op, side, jobs=jobs)

    return _stages(name, stages())


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
    shared_carrier(dashv, vdash)
    d, v = dashv, vdash
    # axioms 3 and 5 both rest on the associativity of |-, proved once for vdash
    brackets = ((d, d, d, d), (d, d, d, v), (d, v, v, d), (v, d, v, v), (v, v, v, v))
    return _stages("dimonoid", (
        (f"axiom-{k}", _decide("dimonoid", _bracket, *ops, jobs=jobs))
        for k, ops in enumerate(brackets, 1)
    ))


def find_bar_units(dashv: OpTable, vdash: OpTable) -> list:
    """Elements e with x -| e = x and e |- x = x for all x."""
    carrier = shared_carrier(dashv, vdash)
    return [carrier.elements[e] for e in unit_indices(vdash.table, dashv.table).tolist()]


def check_skew_brace(dot: OpTable, circ: OpTable, jobs: int = 1) -> AxiomReport:
    """Two group structures linked by g1 o (g2 . g3) = (g1 o g2) . g1^-1 . (g1 o g3).

    Both tables must be groups (NotAGroupError otherwise); the inverse in the
    compatibility identity is taken in the dot group.
    """
    shared_carrier(dot, circ)
    for which, op in (("dot", dot), ("circ", circ)):
        group_report = check_group(op, jobs=jobs)
        if not group_report.passed:
            raise NotAGroupError(which, group_report)
    # an automorphism of dot commutes with its inverse, so dot and circ are all the law reads
    return _decide("skew_brace", _brace_compatibility, dot, circ, jobs=jobs,
                   reason="compatibility")


def check_multiquandle_pair(op_i: OpTable, op_j: OpTable, jobs: int = 1) -> AxiomReport:
    """Both mixed self-distributivity identities for an operation pair.

    First (x *_i y) *_j z = (x *_j z) *_i (y *_j z) over all triples, then the
    same with i and j exchanged; the reason names which identity broke.
    """
    shared_carrier(op_i, op_j)
    return _stages("multiquandle", (
        (label, _decide("multiquandle", _mixed_distrib, a, b, jobs=jobs))
        for label, a, b in (("mixed-distrib-ij", op_i, op_j), ("mixed-distrib-ji", op_j, op_i))
    ))


def op_product(op_i: OpTable, op_j: OpTable, label: str | None = None) -> OpTable:
    """The composite operation p(i,j)q = (p *_i q) *_j q as a table."""
    carrier = shared_carrier(op_i, op_j)
    grid = _take_pairs(op_j.table, op_i.table, np.arange(len(carrier)))
    return table_from_array(carrier, grid, label or f"product({op_i.label},{op_j.label})")


def _ops_carrier(ops):
    if not ops:
        raise ChoiceError("need at least one operation")
    return shared_carrier(*ops)


def nvalued_product(ops) -> list:
    """For each pair (a, b), the multiset of a *_k b over all operations k.

    Returns a 2D list indexed by carrier position, holding Multiset values.
    """
    _ops_carrier(ops)
    stack = np.stack([op.table for op in ops])
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
    m, n = len(ops), len(_ops_carrier(ops))
    return _decide("nvalued_assoc", _nvalued, *ops, jobs=jobs, width=n * n * m * m)
