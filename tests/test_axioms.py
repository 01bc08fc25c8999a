"""Engine checks against independent brute-force oracles.

Every vectorized check is compared, verdict and witness both, with a plain
triple-loop reimplementation on small carriers, and frozen counterexamples
pin the lexicographic witness order.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multigroup.axioms import (
    LEFT,
    RIGHT,
    check_associativity,
    check_dimonoid,
    check_divisibility,
    check_group,
    check_idempotency,
    check_interchange,
    check_multiquandle_pair,
    check_nvalued_associativity,
    check_rack_quandle,
    check_self_distributivity,
    check_skew_brace,
    find_bar_units,
    find_inverses,
    find_units,
    nvalued_product,
    op_product,
)
from multigroup.carriers import Carrier, cyclic_group, gl_group, symmetric_group
from multigroup.constructions import (
    _verified_monoid,
    brace_ops,
    conj_quandle,
    core_quandle,
    gl_group_op,
    opposite_op,
    pair_dimonoid,
)
from multigroup.errors import NoUnitError, NotAGroupError, NotAUnitError
from multigroup.field import PrimeField
from multigroup.matrix import Matrix
from multigroup import axioms, optables
from multigroup.optables import build_op_table, table_from_array


def table_of(n, fn, label="op"):
    return build_op_table(cyclic_group(n), lambda a, b: fn(a, b) % n, label=label)


def oracle_triples(n, bad):
    """First violating triple in lex order, or None."""
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if bad(x, y, z):
                    return (x, y, z)
    return None


# --- associativity -------------------------------------------------------------


def test_associativity_failure_frozen():
    sub = table_of(3, lambda a, b: a - b, "minus")
    report = check_associativity(sub)
    assert report.verdict == "fail"
    assert report.witness == (0, 0, 1)
    assert report.checked == 27
    assert report.exhaustive


def test_associativity_against_oracle():
    cases = [
        (4, lambda a, b: a + b),
        (4, lambda a, b: a - b),
        (5, lambda a, b: a * b),
        (5, lambda a, b: a + 2 * b),
        (6, lambda a, b: max(a, b)),
        (6, lambda a, b: a),
    ]
    for n, fn in cases:
        op = table_of(n, fn)
        report = check_associativity(op)
        want = oracle_triples(
            n, lambda x, y, z: fn(fn(x, y) % n, z) % n != fn(x, fn(y, z) % n) % n
        )
        assert (report.witness == want) and (report.passed == (want is None))


# --- interchange ----------------------------------------------------------------


def test_interchange_failure_frozen():
    plus = table_of(4, lambda a, b: a + b, "plus")
    biggest = table_of(4, max, "max")
    report = check_interchange(plus, biggest)
    assert report.verdict == "fail"
    assert report.witness == (1, 0, 1)


def test_interchange_against_oracle():
    n = 4
    ops = {
        "plus": lambda a, b: (a + b) % n,
        "times": lambda a, b: (a * b) % n,
        "max": lambda a, b: max(a, b),
        "left": lambda a, b: a,
    }
    tables = {k: table_of(n, fn, k) for k, fn in ops.items()}
    for ki, kj in itertools.product(ops, repeat=2):
        fi, fj = ops[ki], ops[kj]
        report = check_interchange(tables[ki], tables[kj])
        want = oracle_triples(n, lambda x, y, z: fj(fi(x, y), z) != fi(x, fj(y, z)))
        assert report.witness == want, (ki, kj)


def test_interchange_with_itself_is_associativity():
    plus = table_of(5, lambda a, b: a + b)
    assert check_interchange(plus, plus).passed
    minus = table_of(5, lambda a, b: a - b)
    assert check_interchange(minus, minus).witness == check_associativity(minus).witness


# --- idempotency ----------------------------------------------------------------


def test_idempotency():
    plus = table_of(3, lambda a, b: a + b)
    report = check_idempotency(plus)
    assert report.verdict == "fail"
    assert report.witness == (1,)
    assert report.checked == 3
    assert check_idempotency(table_of(5, max)).passed


# --- divisibility ---------------------------------------------------------------


def test_right_divisibility_unique_for_core():
    core = core_quandle(cyclic_group(3))
    report = check_divisibility(core, RIGHT, unique=True)
    assert report.passed
    assert report.checked == 9


def test_right_divisibility_failures_frozen():
    times = table_of(4, lambda a, b: a * b, "times")
    unique = check_divisibility(times, RIGHT, unique=True)
    assert unique.verdict == "fail"
    assert unique.witness == (0, 0)
    assert unique.reason == "exists-not-unique"
    exists = check_divisibility(times, RIGHT, unique=False)
    assert exists.verdict == "fail"
    assert exists.witness == (1, 0)
    assert exists.reason == "no-solution"


def test_left_divisibility_failures_frozen():
    op = table_of(4, lambda a, b: a + 2 * b, "skew")
    unique = check_divisibility(op, LEFT, unique=True)
    assert unique.witness == (0, 0)
    assert unique.reason == "exists-not-unique"
    exists = check_divisibility(op, LEFT, unique=False)
    assert exists.witness == (0, 1)
    assert exists.reason == "no-solution"


def test_divisibility_against_oracle():
    n = 5
    cases = [lambda a, b: (a + b) % n, lambda a, b: (a * b) % n, lambda a, b: max(a, b)]
    for fn in cases:
        op = table_of(n, fn)
        for side in (LEFT, RIGHT):
            report = check_divisibility(op, side, unique=True)
            bad = None
            for first in range(n):
                for second in range(n):
                    if side == RIGHT:
                        count = sum(1 for z in range(n) if fn(z, second) == first)
                    else:
                        count = sum(1 for u in range(n) if fn(first, u) == second)
                    if count != 1:
                        bad = (first, second)
                        break
                if bad:
                    break
            assert report.witness == bad


def naive_solution_counts(t):
    """(left, right): left[x][y] counts the u with x*u = y, right[x][y] the z with z*y = x."""
    n = len(t)
    left, right = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            left[x][t[x][y]] += 1
            right[t[x][y]][y] += 1
    return left, right


@pytest.mark.parametrize("kind", ["group", "random"])
def test_solution_counts_over_several_row_blocks(kind):
    # 420 rows take several row blocks of the histogram; one changed cell
    # moves a count of a group table from 1 to 0 and another to 2
    n = 420
    x, y = np.ogrid[:n, :n]
    rng = np.random.default_rng(5)
    base = (x + y) % n if kind == "group" else rng.integers(0, n, (n, n))
    for cell in (None, (0, 0), (n - 1, n - 1), (n // 2, 3)):
        t = np.array(base)
        if cell is not None:
            t[cell] = (t[cell] + 1) % n
        op = table_from_array(cyclic_group(n), t)
        for side, want in zip((LEFT, RIGHT), naive_solution_counts(t.tolist())):
            counts = axioms._solution_counts(op, side)
            assert counts.dtype == np.int32 and counts.tolist() == want
            bad = next(((a, b) for a in range(n) for b in range(n) if want[a][b] != 1), None)
            report = check_divisibility(op, side)
            assert report.witness == bad
            if bad is not None:
                assert report.reason == ("no-solution" if want[bad[0]][bad[1]] == 0
                                         else "exists-not-unique")


def test_divisibility_rejects_bad_side():
    with pytest.raises(ValueError):
        check_divisibility(table_of(3, lambda a, b: a + b), "up")


# --- self-distributivity --------------------------------------------------------


def test_self_distributivity_failures_frozen():
    plus = table_of(4, lambda a, b: a + b)
    right = check_self_distributivity(plus, RIGHT)
    assert right.witness == (0, 0, 1)
    left = check_self_distributivity(plus, LEFT)
    assert left.witness == (1, 0, 0)


def test_self_distributivity_against_oracle():
    n = 4
    cases = [
        lambda a, b: (2 * b - a) % n,
        lambda a, b: (a + b) % n,
        lambda a, b: a,
        lambda a, b: b,
    ]
    for fn in cases:
        op = table_of(n, fn)
        right = check_self_distributivity(op, RIGHT)
        want_r = oracle_triples(
            n, lambda x, y, z: fn(fn(x, y) % n, z) % n != fn(fn(x, z) % n, fn(y, z) % n) % n
        )
        assert right.witness == want_r
        left = check_self_distributivity(op, LEFT)
        want_l = oracle_triples(
            n, lambda x, y, z: fn(x, fn(y, z) % n) % n != fn(fn(x, y) % n, fn(x, z) % n) % n
        )
        assert left.witness == want_l


# --- units, inverses, groups ----------------------------------------------------


def test_units_and_inverses_of_conjugated_product():
    glc = gl_group(2, 2)
    m = Matrix.from_rows(((0, 1), (1, 0)), PrimeField(2))
    op = gl_group_op(m, glc)
    units = find_units(op)
    assert units == [((0, 1), (1, 0))]
    report, mapping = find_inverses(op, units[0])
    assert report.passed
    assert mapping[((1, 1), (0, 1))] == ((1, 0), (1, 1))
    with pytest.raises(NotAUnitError):
        find_inverses(op, ((1, 0), (0, 1)))


def test_find_units_empty():
    assert find_units(core_quandle(cyclic_group(3))) == []


def test_check_group_pass():
    s3 = symmetric_group(3)
    mul = build_op_table(s3, s3.mul, label="mul")
    report = check_group(mul)
    assert report.passed
    assert report.checked == 216 + 6 + 36


def test_check_group_failure_reasons():
    not_assoc = table_of(3, lambda a, b: a - b)
    r1 = check_group(not_assoc)
    assert (r1.reason, r1.witness) == ("assoc", (0, 0, 1))

    no_unit = table_of(3, lambda a, b: a)
    r2 = check_group(no_unit)
    assert (r2.reason, r2.witness) == ("no-unit", ())

    no_inverses = table_of(4, lambda a, b: a * b)
    r3 = check_group(no_inverses)
    assert (r3.reason, r3.witness) == ("inverses", (0,))
    assert r3.checked == 64 + 4 + 16


# --- rack / quandle composites --------------------------------------------------


def test_quandle_right_composite_pass():
    op = conj_quandle(symmetric_group(3))
    report = check_rack_quandle(op, RIGHT, require_idempotent=True)
    assert report.passed
    assert report.checked == 6 + 36 + 216


def test_quandle_subcheck_order_idempotency_first():
    shift = table_of(3, lambda a, b: a + 1, "shift")
    report = check_rack_quandle(shift, LEFT, require_idempotent=True)
    assert report.verdict == "fail"
    assert report.reason == "idempotent"
    assert report.witness == (0,)


def test_quandle_left_divisibility_failure():
    core4 = core_quandle(cyclic_group(4))
    report = check_rack_quandle(core4, LEFT, require_idempotent=True)
    assert report.verdict == "fail"
    assert report.reason == "divisibility_left: exists-not-unique"
    assert report.witness == (0, 0)
    assert report.checked == 4 + 16


def test_rack_skips_idempotency():
    shift = table_of(5, lambda a, b: a + 1, "shift")
    report = check_rack_quandle(shift, RIGHT, require_idempotent=False)
    # z*y = z+1 = x solves uniquely; (x*y)*z = x+2 = (x*z)*(y*z)
    assert report.passed
    assert report.checked == 25 + 125


# --- dimonoid -------------------------------------------------------------------


def test_dimonoid_pass_for_pair_construction():
    dashv, vdash = pair_dimonoid(cyclic_group(4))
    report = check_dimonoid(dashv, vdash)
    assert report.passed
    assert report.checked == 5 * 16**3


def test_dimonoid_axiom2_failure_frozen():
    s3 = symmetric_group(3)
    mul = build_op_table(s3, s3.mul, label="mul")
    report = check_dimonoid(opposite_op(mul), mul)
    assert report.verdict == "fail"
    assert report.reason == "axiom-2"
    assert report.witness == ((0, 1, 2), (0, 2, 1), (1, 0, 2))
    y, z = report.witness[1], report.witness[2]
    assert s3.mul(y, z) != s3.mul(z, y)


def test_dimonoid_against_oracle():
    n = 3
    dashv_fn = lambda a, b: a
    vdash_fn = lambda a, b: b
    dashv = table_of(n, dashv_fn, "take-left")
    vdash = table_of(n, vdash_fn, "take-right")
    report = check_dimonoid(dashv, vdash)
    # axioms 1..5 with the projection pair hold (the bar-unit laws differ)
    axioms_fns = [
        lambda x, y, z: dashv_fn(dashv_fn(x, y), z) != dashv_fn(x, dashv_fn(y, z)),
        lambda x, y, z: dashv_fn(dashv_fn(x, y), z) != dashv_fn(x, vdash_fn(y, z)),
        lambda x, y, z: dashv_fn(vdash_fn(x, y), z) != vdash_fn(x, dashv_fn(y, z)),
        lambda x, y, z: vdash_fn(dashv_fn(x, y), z) != vdash_fn(x, vdash_fn(y, z)),
        lambda x, y, z: vdash_fn(vdash_fn(x, y), z) != vdash_fn(x, vdash_fn(y, z)),
    ]
    assert report.passed == all(
        oracle_triples(n, fn) is None for fn in axioms_fns
    )


def test_bar_units_of_pair_dimonoid():
    dashv, vdash = pair_dimonoid(cyclic_group(4))
    assert find_bar_units(dashv, vdash) == [(0, 0), (1, 3), (2, 2), (3, 1)]


# --- skew braces ----------------------------------------------------------------


def test_skew_brace_pass():
    for group in (symmetric_group(3), cyclic_group(6)):
        for variant in ("trivial", "opposite"):
            dot, circ = brace_ops(group, variant)
            assert check_skew_brace(dot, circ).passed


def test_skew_brace_compatibility_failure_frozen():
    z4 = cyclic_group(4)
    dot = table_of(4, lambda a, b: a + b, "plus")
    circ = table_of(4, lambda a, b: a + b + 1, "shifted")
    report = check_skew_brace(dot, circ)
    assert report.verdict == "fail"
    assert report.reason == "compatibility"
    assert report.witness == (0, 0, 0)


def test_skew_brace_requires_groups():
    dot = table_of(3, lambda a, b: a, "proj")
    circ = table_of(3, lambda a, b: a + b, "plus")
    with pytest.raises(NotAGroupError) as info:
        check_skew_brace(dot, circ)
    assert info.value.which == "dot"
    assert not info.value.report.passed


def test_skew_brace_against_oracle():
    n = 8
    z = cyclic_group(n)
    dot = table_of(n, lambda a, b: a + b, "plus")

    def circ_fn(a, b):
        return (a + b) % n if a % 2 == 0 else (a - b) % n

    circ = table_of(n, circ_fn, "parity")
    report = check_skew_brace(dot, circ)
    want = oracle_triples(
        n,
        lambda g1, g2, g3: circ_fn(g1, (g2 + g3) % n)
        != (circ_fn(g1, g2) - g1 + circ_fn(g1, g3)) % n,
    )
    assert report.witness == want
    assert report.passed == (want is None)


# --- multi-operation checks -----------------------------------------------------


def test_multiquandle_pair_pass():
    s3 = symmetric_group(3)
    conj = conj_quandle(s3)
    proj = build_op_table(s3, lambda a, b: a, label="proj")
    report = check_multiquandle_pair(conj, proj)
    assert report.passed
    assert report.checked == 2 * 216


def test_multiquandle_pair_failure_frozen():
    core = core_quandle(cyclic_group(4))
    plus = table_of(4, lambda a, b: a + b, "plus")
    report = check_multiquandle_pair(core, plus)
    assert report.verdict == "fail"
    assert report.reason == "mixed-distrib-ji"
    assert report.witness == (0, 0, 1)


def test_op_product_values():
    core5 = core_quandle(cyclic_group(5))
    prod = op_product(core5, core5)
    assert all(prod.table[x, y] == x for x in range(5) for y in range(5))
    s3 = symmetric_group(3)
    conj = conj_quandle(s3)
    twice = op_product(conj, conj)
    x, y = s3.index_of((1, 0, 2)), s3.index_of((1, 2, 0))
    assert s3.elements[twice.table[x, y]] == (0, 2, 1)


def test_nvalued_product_multisets():
    plus = table_of(4, lambda a, b: a + b, "plus")
    shifted = table_of(4, lambda a, b: a + b + 2, "shifted")
    grid = nvalued_product([plus, shifted])
    assert grid[1][1].entries == ((0, 1), (2, 1))
    assert grid[0][0].total == 2


def test_nvalued_associativity_pass_frozen():
    plus = table_of(4, lambda a, b: a + b, "plus")
    shifted = table_of(4, lambda a, b: a + b + 2, "shifted")
    report = check_nvalued_associativity([plus, shifted])
    assert report.passed
    assert report.checked == 64


def test_nvalued_associativity_failure_frozen():
    plus = table_of(3, lambda a, b: a + b, "plus")
    proj = table_of(3, lambda a, b: a, "proj")
    report = check_nvalued_associativity([plus, proj])
    assert report.verdict == "fail"
    assert report.witness == (0, 0, 1)


def test_nvalued_associativity_against_oracle():
    n = 3
    fns = [lambda a, b: (a + b) % n, lambda a, b: max(a, b)]
    ops = [table_of(n, fn) for fn in fns]
    report = check_nvalued_associativity(ops)

    def multiset_bad(a, b, c):
        left = sorted(fj(fi(a, b), c) % n for fi in fns for fj in fns)
        right = sorted(fj(a, fi(b, c)) % n for fi in fns for fj in fns)
        return left != right

    want = oracle_triples(n, multiset_bad)
    assert report.witness == want
    assert report.passed == (want is None)


def test_nvalued_single_op_matches_plain_assoc():
    minus = table_of(4, lambda a, b: a - b, "minus")
    combo = check_nvalued_associativity([minus])
    plain = check_associativity(minus)
    assert combo.witness == plain.witness


# --- determinism ----------------------------------------------------------------


def test_jobs_do_not_change_reports():
    s3 = symmetric_group(3)
    mul = build_op_table(s3, s3.mul, label="mul")
    core = core_quandle(cyclic_group(4))
    pairs = [
        check_group(mul, jobs=1).to_json_dict(),
        check_rack_quandle(core, RIGHT, require_idempotent=True, jobs=1).to_json_dict(),
        check_dimonoid(opposite_op(mul), mul, jobs=1).to_json_dict(),
    ]
    repeats = [
        check_group(mul, jobs=4).to_json_dict(),
        check_rack_quandle(core, RIGHT, require_idempotent=True, jobs=4).to_json_dict(),
        check_dimonoid(opposite_op(mul), mul, jobs=4).to_json_dict(),
    ]
    assert pairs == repeats


def oracle_report(n, laws):
    """(verdict, witness, reason, checked) for (reason, bad) laws checked in order."""
    for k, (reason, bad) in enumerate(laws, 1):
        hit = oracle_triples(n, bad)
        if hit is not None:
            return ("fail", hit, reason, k * n**3)
    return ("pass", None, None, len(laws) * n**3)


def single_op_cases(op, t):
    """(run(jobs), oracle laws) for the one-table triple checks; t is the table as lists."""
    return [
        (lambda jobs: check_associativity(op, jobs=jobs),
         [(None, lambda x, y, z: t[t[x][y]][z] != t[x][t[y][z]])]),
        (lambda jobs: check_self_distributivity(op, RIGHT, jobs=jobs),
         [(None, lambda x, y, z: t[t[x][y]][z] != t[t[x][z]][t[y][z]])]),
        (lambda jobs: check_self_distributivity(op, LEFT, jobs=jobs),
         [(None, lambda x, y, z: t[x][t[y][z]] != t[t[x][y]][t[x][z]])]),
    ]


def op_pair_cases(op_i, op_j, ti, tj):
    """(run(jobs), oracle laws) for the two-table triple checks."""
    d, v = ti, tj

    def multiset_bad(x, y, z):
        left = sorted(g[f[x][y]][z] for f in (ti, tj) for g in (ti, tj))
        return left != sorted(g[x][f[y][z]] for f in (ti, tj) for g in (ti, tj))

    return [
        (lambda jobs: check_interchange(op_i, op_j, jobs=jobs),
         [(None, lambda x, y, z: tj[ti[x][y]][z] != ti[x][tj[y][z]])]),
        (lambda jobs: check_dimonoid(op_i, op_j, jobs=jobs), [
            ("axiom-1", lambda x, y, z: d[d[x][y]][z] != d[x][d[y][z]]),
            ("axiom-2", lambda x, y, z: d[d[x][y]][z] != d[x][v[y][z]]),
            ("axiom-3", lambda x, y, z: d[v[x][y]][z] != v[x][d[y][z]]),
            ("axiom-4", lambda x, y, z: v[d[x][y]][z] != v[x][v[y][z]]),
            ("axiom-5", lambda x, y, z: v[v[x][y]][z] != v[x][v[y][z]]),
        ]),
        (lambda jobs: check_multiquandle_pair(op_i, op_j, jobs=jobs), [
            ("mixed-distrib-ij", lambda x, y, z: tj[ti[x][y]][z] != ti[tj[x][z]][tj[y][z]]),
            ("mixed-distrib-ji", lambda x, y, z: ti[tj[x][y]][z] != tj[ti[x][z]][ti[y][z]]),
        ]),
        (lambda jobs: check_nvalued_associativity([op_i, op_j], jobs=jobs),
         [(None, multiset_bad)]),
    ]


def skew_brace_case(plus, op_c, c, n):
    """skew_brace over Z/n addition; the oracle takes the inverse of x as -x."""
    return (lambda jobs: check_skew_brace(plus, op_c, jobs=jobs),
            [("compatibility", lambda x, y, z: c[x][(y + z) % n] != (c[x][y] - x + c[x][z]) % n)])


def test_multi_chunk_scans_match_oracle(monkeypatch):
    # One-row chunks, so every scan crosses chunk boundaries and jobs=2 merges
    # results from several threads.
    monkeypatch.setattr(optables, "CHUNK_CELLS", 1)
    rng = np.random.default_rng(11)
    for n in range(5, 9):
        a = np.arange(n)
        plus = (a[:, None] + a[None, :]) % n
        perturbed = plus.copy()
        i, j = rng.integers(1, n, 2)
        perturbed[i, j] = (perturbed[i, j] + 1) % n
        perm = rng.permutation(n)
        grids = {
            "plus": plus,
            "core": (2 * a[None, :] - a[:, None]) % n,
            "left": np.broadcast_to(a[:, None], (n, n)),
            "zero": np.zeros((n, n), dtype=np.int64),
            "shift": np.broadcast_to((a[:, None] + 1) % n, (n, n)),
            "perturbed": perturbed,
            "random": rng.integers(0, n, (n, n)),
            # plus carried through a permutation: another group on Z/n
            "conjugate": np.argsort(perm)[(perm[:, None] + perm[None, :]) % n],
        }
        ops = {k: table_from_array(cyclic_group(n), g, k) for k, g in grids.items()}
        lists = {k: g.tolist() for k, g in grids.items()}
        cases = []
        for k in grids:
            cases += single_op_cases(ops[k], lists[k])
        for ki, kj in itertools.product(("plus", "core", "left", "zero", "shift", "perturbed", "random"), repeat=2):
            cases += op_pair_cases(ops[ki], ops[kj], lists[ki], lists[kj])
        for k in ("plus", "conjugate"):
            cases.append(skew_brace_case(ops["plus"], ops[k], lists[k], n))
        for run, laws in cases:
            want = oracle_report(n, laws)
            for jobs in (1, 2):
                report = run(jobs)
                assert (report.verdict, report.witness, report.reason, report.checked) == want


# --- hypothesis properties ------------------------------------------------------


@st.composite
def random_tables(draw):
    n = draw(st.integers(2, 6))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
    z = cyclic_group(n)
    grid = np.array(flat, dtype=np.int64).reshape(n, n)
    from multigroup.optables import table_from_array

    return table_from_array(z, grid, "random")


@given(random_tables())
@settings(max_examples=60, deadline=None)
def test_assoc_witness_is_sound(op):
    report = check_associativity(op)
    t = op.table
    n = len(op)
    if report.passed:
        assert oracle_triples(n, lambda x, y, z: t[t[x, y], z] != t[x, t[y, z]]) is None
    else:
        x, y, z = report.witness
        assert t[t[x, y], z] != t[x, t[y, z]]
        assert report.witness == oracle_triples(
            n, lambda a, b, c: t[t[a, b], c] != t[a, t[b, c]]
        )


@given(random_tables())
@settings(max_examples=40, deadline=None)
def test_divisibility_witness_is_sound(op):
    t = op.table
    n = len(op)
    for side in (LEFT, RIGHT):
        report = check_divisibility(op, side, unique=True)
        if report.passed:
            continue
        first, second = report.witness
        if side == RIGHT:
            count = sum(1 for z in range(n) if t[z, second] == first)
        else:
            count = sum(1 for u in range(n) if t[first, u] == second)
        if report.reason == "no-solution":
            assert count == 0
        else:
            assert count > 1


@given(random_tables(), random_tables())
@settings(max_examples=30, deadline=None)
def test_multiquandle_same_op_degenerates(op, _other):
    report = check_multiquandle_pair(op, op)
    single = check_self_distributivity(op, RIGHT)
    assert report.passed == single.passed
    if not report.passed:
        assert report.witness == single.witness


@st.composite
def unital_tables(draw):
    """Two random tables on cyclic(n) and an index e, n = 1..5.

    Half the time e is planted as a two-sided unit of the first table, and
    entries equal e with high odds, so tables with no unit, with a unit and
    with several inverses per element all turn up.
    """
    n = draw(st.integers(1, 5))
    e = draw(st.integers(0, n - 1))
    entries = st.lists(st.one_of(st.just(e), st.integers(0, n - 1)), min_size=n * n,
                       max_size=n * n)
    first, second = (np.array(draw(entries)).reshape(n, n) for _ in range(2))
    if draw(st.booleans()):
        first[e, :] = first[:, e] = np.arange(n)
    z = cyclic_group(n)
    return table_from_array(z, first, "first"), table_from_array(z, second, "second"), e


def naive_units(rows, cols):
    n = len(rows)
    return [e for e in range(n) if all(rows[e][x] == x and cols[x][e] == x for x in range(n))]


@given(unital_tables())
@settings(max_examples=150, deadline=None)
def test_unit_and_inverse_searches_match_naive_loops(tables):
    op, other, e = tables
    t, s = op.table.tolist(), other.table.tolist()
    n = len(t)
    assert find_units(op) == naive_units(t, t)
    assert find_bar_units(other, op) == naive_units(t, s)

    monoid = Carrier("cyclic-group", tuple(range(n)), "m", identity=e)
    monoid.__dict__["cayley"] = op.table  # the random table as the carrier's product
    if e in naive_units(t, t):
        assert _verified_monoid(monoid, "m") is monoid
    else:
        with pytest.raises(NoUnitError):
            _verified_monoid(monoid, "m")
        with pytest.raises(NotAUnitError):
            find_inverses(op, e)
        return

    report, mapping = find_inverses(op, e)
    want = [next((b for b in range(n) if t[a][b] == e and t[b][a] == e), None)
            for a in range(n)]
    assert mapping == dict(enumerate(want))
    missing = [a for a in range(n) if want[a] is None]
    assert report.passed == (not missing)
    assert report.witness == (tuple(missing[:1]) if missing else None)
    assert report.checked == n * n


def test_group_check_decides_units_and_inverses_on_indices():
    # multiplication mod 6 is an associative monoid with unit 1 in which 0
    # has no inverse; the unit and inverse stages read the table's indices
    # and build no element index on the carrier
    z6 = cyclic_group(6)
    x = np.arange(6)
    times = table_from_array(z6, x[:, None] * x % 6, "times")
    report = check_group(times)
    assert (report.passed, report.witness, report.reason) == (False, (0,), "inverses")
    assert report.checked == 6**3 + 6 + 6**2
    assert check_group(table_from_array(z6, z6.cayley, "plus")).passed
    assert "index" not in vars(z6)
    assert find_inverses(times, 1)[0].witness == report.witness
