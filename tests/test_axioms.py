"""Engine checks against independent brute-force oracles.

Every vectorized check is compared, verdict and witness both, with the plain
loops of tests/reference.py on small carriers, and frozen counterexamples
pin the lexicographic witness order.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
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
from multigroup import optables
from multigroup.optables import OpTable, build_op_table, table_from_array


def table_of(n, fn, label="op"):
    return build_op_table(cyclic_group(n), lambda a, b: fn(a, b) % n, label=label)


def lists_of(n, fn):
    """The table of fn mod n as nested lists, built without the package."""
    return [[fn(a, b) % n for b in range(n)] for a in range(n)]


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
        want = reference.law_failure(reference.assoc(lists_of(n, fn)), n)
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
        report = check_interchange(tables[ki], tables[kj])
        want = reference.law_failure(
            reference.interchange(lists_of(n, ops[ki]), lists_of(n, ops[kj])), n)
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
            _, bad, _, _ = reference.divisibility(lists_of(n, fn), side)
            assert report.witness == bad


def assert_divisibility_as_naive(t):
    op = table_from_array(cyclic_group(len(t)), t)
    for side, unique in itertools.product((LEFT, RIGHT), (True, False)):
        report = check_divisibility(op, side, unique)
        _, witness, reason, _ = reference.divisibility(t.tolist(), side, unique)
        assert (report.witness, report.reason) == (witness, reason)


@pytest.mark.parametrize("kind", ["group", "random"])
def test_solution_counts_over_several_row_blocks(kind, monkeypatch):
    # 420 rows take several row blocks of the sort; one changed cell
    # moves a count of a group table from 1 to 0 and another to 2
    n = 420
    x, y = np.ogrid[:n, :n]
    rng = np.random.default_rng(5)
    base = (x + y) % n if kind == "group" else rng.integers(0, n, (n, n))
    for cell in (None, (0, 0), (n - 1, n - 1), (n // 2, 3)):
        t = np.array(base)
        if cell is not None:
            t[cell] = (t[cell] + 1) % n
        assert_divisibility_as_naive(t)
    # Small tables at one row per block, so the right side takes its least
    # bad value across blocks: shuffled Latin squares with up to two cells
    # changed, where values repeat and go missing in every pattern, or
    # uniform random tables
    monkeypatch.setattr(optables, "PROOF_CELLS", 1)
    for n in (1, 2, 3, 4, 5, 7):
        latin = (np.arange(n)[:, None] + np.arange(n)) % n
        for _ in range(12):
            if kind == "random":
                assert_divisibility_as_naive(rng.integers(0, n, (n, n)))
                continue
            t = latin[rng.permutation(n)][:, rng.permutation(n)]
            for _ in range(rng.integers(0, 3)):
                t[tuple(rng.integers(0, n, 2))] = rng.integers(0, n)
            assert_divisibility_as_naive(t)


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
        op, t = table_of(n, fn), lists_of(n, fn)
        right = check_self_distributivity(op, RIGHT)
        want_r = reference.law_failure(reference.mixed_distrib(t, t), n)
        assert right.witness == want_r
        left = check_self_distributivity(op, LEFT)
        want_l = reference.law_failure(reference.left_distrib(t), n)
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
    laws = reference.dimonoid_axioms(lists_of(n, dashv_fn), lists_of(n, vdash_fn))
    assert report.passed == all(
        reference.law_failure(law, n) is None for law in laws
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
    want = reference.law_failure(reference.brace_compatibility(
        lists_of(n, lambda a, b: a + b), lists_of(n, circ_fn)), n)
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
    want = reference.law_failure(reference.multiset_assoc(*(lists_of(n, fn) for fn in fns)), n)
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


def single_op_cases(op, t):
    """(run(jobs), reference laws) for the one-table triple checks; t is the table as lists."""
    return [
        (lambda jobs: check_associativity(op, jobs=jobs), [(None, reference.assoc(t))]),
        (lambda jobs: check_self_distributivity(op, RIGHT, jobs=jobs),
         [(None, reference.mixed_distrib(t, t))]),
        (lambda jobs: check_self_distributivity(op, LEFT, jobs=jobs),
         [(None, reference.left_distrib(t))]),
    ]


def op_pair_cases(op_i, op_j, ti, tj):
    """(run(jobs), reference laws) for the two-table triple checks."""
    dimonoid = reference.dimonoid_axioms(ti, tj)
    return [
        (lambda jobs: check_interchange(op_i, op_j, jobs=jobs),
         [(None, reference.interchange(ti, tj))]),
        (lambda jobs: check_dimonoid(op_i, op_j, jobs=jobs),
         [(f"axiom-{k}", law) for k, law in enumerate(dimonoid, 1)]),
        (lambda jobs: check_multiquandle_pair(op_i, op_j, jobs=jobs),
         [("mixed-distrib-ij", reference.mixed_distrib(ti, tj)),
          ("mixed-distrib-ji", reference.mixed_distrib(tj, ti))]),
        (lambda jobs: check_nvalued_associativity([op_i, op_j], jobs=jobs),
         [(None, reference.multiset_assoc(ti, tj))]),
    ]


def skew_brace_case(plus, op_c, d, c):
    """skew_brace over the group plus; d and c are the two tables as lists."""
    return (lambda jobs: check_skew_brace(plus, op_c, jobs=jobs),
            [("compatibility", reference.brace_compatibility(d, c))])


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
            cases.append(skew_brace_case(ops["plus"], ops[k], lists["plus"], lists[k]))
        for run, laws in cases:
            want = reference.report(n, laws)
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
    law = reference.assoc(op.table.tolist())
    n = len(op)
    if report.passed:
        assert reference.law_failure(law, n) is None
    else:
        left, right = law(*report.witness)
        assert left != right
        assert report.witness == reference.law_failure(law, n)


@given(random_tables())
@settings(max_examples=40, deadline=None)
def test_divisibility_witness_is_sound(op):
    counts = reference.solution_counts(op.table.tolist())
    for side in (LEFT, RIGHT):
        report = check_divisibility(op, side, unique=True)
        if report.passed:
            continue
        first, second = report.witness
        count = counts[side == RIGHT][first][second]
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


@given(unital_tables())
@settings(max_examples=150, deadline=None)
def test_unit_and_inverse_searches_match_naive_loops(tables):
    op, other, e = tables
    t, s = op.table.tolist(), other.table.tolist()
    n = len(t)
    assert find_units(op) == reference.units(t)
    assert find_bar_units(other, op) == reference.units(t, s)

    monoid = Carrier("cyclic-group", tuple(range(n)), "m", identity=e)
    monoid.__dict__["cayley"] = op.table  # the random table as the carrier's product
    if e in reference.units(t):
        assert _verified_monoid(monoid, "m") is monoid
    else:
        with pytest.raises(NoUnitError):
            _verified_monoid(monoid, "m")
        with pytest.raises(NotAUnitError):
            find_inverses(op, e)
        return

    report, mapping = find_inverses(op, e)
    want = reference.inverses(t, e)
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


JOB_TAKERS = {
    "assoc": lambda op, jobs: check_associativity(op, jobs=jobs),
    "interchange": lambda op, jobs: check_interchange(op, op, jobs=jobs),
    "distrib": lambda op, jobs: check_self_distributivity(op, RIGHT, jobs=jobs),
    "group": lambda op, jobs: check_group(op, jobs=jobs),
    "rack": lambda op, jobs: check_rack_quandle(op, RIGHT, require_idempotent=True, jobs=jobs),
    "dimonoid": lambda op, jobs: check_dimonoid(op, op, jobs=jobs),
    "skew_brace": lambda op, jobs: check_skew_brace(op, op, jobs=jobs),
    "multiquandle": lambda op, jobs: check_multiquandle_pair(op, op, jobs=jobs),
    "nvalued": lambda op, jobs: check_nvalued_associativity([op, op], jobs=jobs),
}


@pytest.mark.parametrize("jobs", [0, -3, 1.5, np.float64(2.0), "2", None])
@pytest.mark.parametrize("name", JOB_TAKERS)
def test_jobs_that_is_no_integer_of_at_least_one_is_refused_before_any_work(name, jobs,
                                                                           monkeypatch):
    from multigroup import axioms
    from multigroup.errors import JobsError, WorkbenchError

    def work(*args, **kwargs):
        raise AssertionError("work began before jobs was read")

    for stage in ("_proved", "check_idempotency", "check_divisibility", "scan_chunks"):
        monkeypatch.setattr(axioms, stage, work)
    op = OpTable(cyclic_group(3), cyclic_group(3).cayley)
    with pytest.raises(JobsError) as err:
        JOB_TAKERS[name](op, jobs)
    assert str(err.value) == f"jobs must be an integer of at least 1, not {jobs!r}"
    assert isinstance(err.value, ValueError) and isinstance(err.value, WorkbenchError)


@pytest.mark.parametrize("jobs", [1, 2, True, np.int64(2)])
@pytest.mark.parametrize("name", JOB_TAKERS)
def test_integer_jobs_are_taken(name, jobs):
    op = OpTable(cyclic_group(3), cyclic_group(3).cayley)
    assert JOB_TAKERS[name](op, jobs).checked > 0


def test_demos_and_spec_checks_read_jobs_before_any_work(monkeypatch):
    from multigroup import demos, dsl
    from multigroup.errors import JobsError

    monkeypatch.setitem(demos.DEMOS, "S3-assoc", ("title", lambda jobs: 1 / 0))
    with pytest.raises(JobsError):
        demos.run_demo("S3-assoc", jobs=0)
    compiled = dsl.compile_spec(dsl.parse_spec(dsl.SpecSource(
        "carrier cyclic(3);\nop s = core_quandle();\ncheck idempotent s;\n")))
    # idempotency runs on one thread whatever jobs says, and still refuses a bad one
    with pytest.raises(JobsError):
        dsl.run_check(compiled, compiled.checks[0], jobs=0)
    assert dsl.run_check(compiled, compiled.checks[0], jobs=2).passed
