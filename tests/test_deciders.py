"""The steps that decide passing triple laws without a full scan.

`axioms._associative` (Light's test), and `axioms._interchanges` (the
left-ideal cover) after it, may only return True on a law that holds on every
triple. Given an unbounded work cap they are also complete, so on small
tables their verdicts must equal plain triple loops exactly. The tables come
from random magmas, relabelled transformation semigroups and their one-cell
perturbations, left-zero, right-zero and null bands, and tables with repeated
rows or columns. The orbit step, which reduces every triple law to orbit
representatives, is held to naive loops further down. Every naive loop is in
tests/reference.py.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from multigroup import axioms, carriers, optables
from multigroup.carriers import cyclic_group, direct_product, group_carrier, symmetric_group
from multigroup.cli import main
from multigroup.dsl import SpecSource, compile_spec, parse_spec, run_check
from multigroup.optables import table_from_array

GOLDEN = Path(__file__).parent / "golden"
UNBOUNDED = 1 << 62


def _relabel(draw, table):
    n = len(table)
    perm = draw(st.permutations(range(n)))
    out = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            out[perm[x], perm[y]] = perm[table[x][y]]
    return out


def _transformation_semigroup(draw):
    """The closure of 1-3 random maps of {0..k-1} under composition, k <= 3."""
    k = draw(st.integers(1, 3))
    maps = st.tuples(*[st.integers(0, k - 1)] * k)
    elements = set(draw(st.lists(maps, min_size=1, max_size=3)))
    while True:
        more = {tuple(g[f[i]] for i in range(k)) for f in elements for g in elements} - elements
        if not more:
            break
        elements |= more
    elements = sorted(elements)
    index = {f: i for i, f in enumerate(elements)}
    return [[index[tuple(g[f[i]] for i in range(k))] for g in elements] for f in elements]


def _band(draw):
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["left-zero", "right-zero", "null"]))
    zero = draw(st.integers(0, n - 1))
    rule = {"left-zero": lambda x, y: x, "right-zero": lambda x, y: y, "null": lambda x, y: zero}
    return [[rule[kind](x, y) for y in range(n)] for x in range(n)]


def _random_magma(draw):
    n = draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))).reshape(n, n)


@st.composite
def associative_tables(draw):
    """Semigroups: relabelled transformation semigroups and bands."""
    source = draw(st.sampled_from([_transformation_semigroup, _band]))
    return _relabel(draw, source(draw))


@st.composite
def tables(draw):
    """Magmas of every kind above, associative or not."""
    kind = draw(st.sampled_from(["random", "semigroup", "perturbed", "repeated"]))
    if kind == "random":
        return _random_magma(draw)
    t = draw(associative_tables())
    if kind == "perturbed":
        n = len(t)
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t[x, y] = draw(st.integers(0, n - 1))
    elif kind == "repeated":
        # t'[x, y] = t[r(x), c(y)] for random maps r and c repeats rows and columns
        if draw(st.booleans()):
            t = _random_magma(draw)
        n = len(t)
        rows = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        cols = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        t = t[np.ix_(rows, cols)]
    return np.asarray(t)


def frozen(t):
    return table_from_array(cyclic_group(len(t)), np.asarray(t), "t").table


def zero_keys(t):
    return np.zeros(len(t), dtype=np.uint64)


def row_sum_keys(t):
    return t.astype(np.uint64).sum(axis=1)


# (row keys, chunk cells), None keeping the real ones: keys that collide, and
# chunks so small that every chunked loop takes many steps and column
# classes are narrowed or not
VARIANTS = [(None, None), (zero_keys, None), (row_sum_keys, None), (None, 2), (None, 24)]


def _patch(patch, keys, chunk):
    if keys is not None:
        patch.setattr(axioms, "_row_keys", keys)
    if chunk is not None:
        patch.setattr(optables, "PROOF_CELLS", chunk)
        patch.setattr(optables, "GATHER_CELLS", chunk)


@pytest.mark.parametrize("keys, chunk", VARIANTS)
@given(tables())
@settings(max_examples=60, deadline=None)
def test_light_test_equals_naive_assoc(keys, chunk, t):
    t = frozen(t)
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, keys, chunk)
        naive = reference.law_failure(reference.assoc(t.tolist()), len(t)) is None
        assert axioms._associative(t, UNBOUNDED) == naive


@pytest.mark.parametrize("keys, chunk", VARIANTS)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_left_ideal_cover_equals_naive_interchange(keys, chunk, data):
    ti = data.draw(st.one_of(associative_tables(), tables()))
    n = len(ti)
    kind = data.draw(st.sampled_from(["random", "same", "perturbed", "associative"]))
    if kind == "random":
        tj = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n * n,
                                         max_size=n * n))).reshape(n, n)
    elif kind == "associative":
        tj = _relabel(data.draw, ti)  # associative whenever ti is
    else:
        tj = np.array(ti)
        if kind == "perturbed":
            x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            tj[x, y] = data.draw(st.integers(0, n - 1))
    ti, tj = frozen(ti), frozen(tj)
    want = all(reference.law_failure(law, n) is None for law in (
        reference.assoc(ti.tolist()), reference.interchange(ti.tolist(), tj.tolist())))
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, keys, chunk)
        proved = axioms._associative(ti, UNBOUNDED) and axioms._interchanges(ti, tj, UNBOUNDED)
    assert proved == want


@pytest.mark.parametrize("chunk", [None, 2])
@given(tables())
@settings(max_examples=60, deadline=None)
def test_generators_generate(chunk, t):
    t = frozen(t)
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, None, chunk)
        gens = optables._generators(t, UNBOUNDED).tolist()
    assert reference.closure(t.tolist(), gens) == set(range(len(t)))
    products = {v for row in t.tolist() for v in row}
    assert {g for g in range(len(t)) if g not in products} <= set(gens)


def greedy_generators(t, limit):
    """The greedy generating set of `optables._generators`, by closure under every product.

    The elements outside the image come first; then, in order of descending
    image size (least first on ties), each element not in the submagma the
    set generates so far joins it. None when the set outgrows limit.
    """
    n = len(t)
    products = {v for row in t for v in row}
    gens = [g for g in range(n) if g not in products]
    generated = reference.closure(t, gens)
    for g in sorted(range(n), key=lambda x: -len(set(t[x]))):
        if g not in generated:
            gens.append(g)
            generated = reference.closure(t, gens)
    return gens if len(gens) <= limit else None


@pytest.mark.parametrize("chunk", [None, 2])
@given(associative_tables(), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_generators_equal_the_greedy_closure_on_semigroups(chunk, t, limit):
    # on an associative table every generated element is a word in the
    # generators, so the search must pick exactly the greedy set above
    t = frozen(t)
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, None, chunk)
        gens = optables._generators(t, limit)
    want = greedy_generators(t.tolist(), limit)
    assert (gens if gens is None else gens.tolist()) == want


@pytest.mark.parametrize("keys, chunk", VARIANTS)
@given(tables())
@settings(max_examples=60, deadline=None)
def test_class_reps_cover_every_row_exactly(keys, chunk, t):
    t = frozen(t)
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, keys, chunk)
        for table in (t, t.T):
            reps = axioms._class_reps(table).tolist()
            assert reps == sorted(set(reps))
            rows = [tuple(r) for r in table.tolist()]
            assert {rows[x] for x in reps} == set(rows)
            if keys is None:
                # one representative per class: the real keys of these small
                # tables do not collide, and a column with a repeated value
                # must not pass for injective
                assert len(reps) == len(set(rows))


@given(tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_class_reps_equal_naive_classes_with_and_without_a_right_unit(t, data):
    t = np.array(t)
    n = len(t)
    if data.draw(st.booleans()):
        t[:, data.draw(st.integers(0, n - 1))] = np.arange(n)  # plant a right unit
    t = frozen(t)
    for table in (t, t.T):
        rows = [tuple(r) for r in table.tolist()]
        first = {}
        for x, row in enumerate(rows):
            first.setdefault(row, x)
        assert axioms._has_right_unit(table) == bool(reference.right_units(rows))
        assert axioms._class_reps(table).tolist() == sorted(first.values())


def test_cover_needs_an_associative_inner_table():
    # 0 is a two-sided unit, so y = 0 passes and its column covers everything,
    # yet (1*1)*2 = 0 and 1*(1*2) = 1: only the associativity test refutes it
    ti = frozen([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    tj = frozen(ti.copy())
    assert reference.law_failure(reference.assoc(ti.tolist()), 3) is not None
    assert reference.law_failure(reference.interchange(ti.tolist(), tj.tolist()), 3) is not None
    assert axioms._interchanges(ti, tj, UNBOUNDED) and not axioms._associative(ti, UNBOUNDED)
    op_i, op_j = (table_from_array(cyclic_group(3), t, name) for t, name in ((ti, "i"), (tj, "j")))
    report = axioms.check_interchange(op_i, op_j)
    assert not report.passed and report.witness == (1, 1, 2)


def test_work_cap_gives_up():
    # Z_8: 8 row and 8 column classes and generators 0 and 1 (every row is
    # onto, so the least come first), 2 * 8 * 8 cells; one covering test,
    # 8 * 8 cells
    t = frozen([[(x + y) % 8 for y in range(8)] for x in range(8)])
    assert optables._generators(t, UNBOUNDED).tolist() == [0, 1]
    assert axioms._associative(t, 128) and axioms._interchanges(t, t, 64)
    assert not axioms._associative(t, 127) and not axioms._interchanges(t, t, 63)


def _compiled(name):
    text = (GOLDEN / f"{name}.mg").read_text(encoding="utf-8")
    return compile_spec(parse_spec(SpecSource(text, f"{name}.mg")))


def test_whole_carrier_is_tested_when_that_is_cheaper(monkeypatch):
    # M = s M1 + t M2 has rank 1, so A*B = A M B has 25 row and 25 column
    # classes on matrices(2,5): every g costs 25 * 25 cells, n^2 in all, no
    # more than the search for generators reads
    compiled = compile_spec(parse_spec(SpecSource(
        "carrier matrices(2,5);\n"
        "op m = matrix_op(s=1, t=0, m1=[[0,3],[0,3]], m2=[[4,1],[3,3]]);\n", "rank1.mg")))
    t = compiled.ops["m"].table
    assert len(axioms._class_reps(t)) == len(axioms._class_reps(t.T)) == 25
    searches = []
    monkeypatch.setattr(axioms, "_generators", lambda t, limit: searches.append(limit))
    assert axioms._associative(t, 625**3 // 8) and axioms._associative(t, 625 * 625)
    assert searches == []
    # with a cap below 625 generators' worth of cells the search runs (and,
    # stubbed to find nothing, makes the proof give up)
    assert not axioms._associative(t, 625 * 625 - 1)
    assert searches == [624]


def test_light_test_stops_when_no_generator_fits(monkeypatch):
    # on symmetric(3) rows and columns are all distinct, so the cap 6^3 // 8
    # leaves room for 27 // 36 = 0 generators: the proof gives up before any
    # search, and the scan alone decides each law as naive loops do
    compiled = compile_spec(parse_spec(SpecSource(
        "carrier symmetric(3);\nop c = conj_quandle(m=1);\nop k = core_quandle();\n", "s3.mg")))
    carrier = compiled.carrier
    ops = [table_from_array(carrier, carrier.cayley, "cayley"), compiled.ops["c"],
           compiled.ops["k"]]
    searches = []
    monkeypatch.setattr(axioms, "_generators", lambda t, limit: searches.append(limit))
    for op in ops:
        assert not axioms._associative(op.table, len(carrier) ** 3 // 8)
        naive = reference.law_failure(reference.assoc(op.table.tolist()), len(carrier))
        assert axioms.check_associativity(op).passed == (naive is None)
    assert searches == []


def test_group_tables_are_not_hashed(monkeypatch):
    # sandwich groups on gl(2,5): every column is injective, so the class
    # representatives of rows and columns are every element
    compiled = compile_spec(parse_spec(SpecSource(
        "carrier gl(2,5);\n"
        "op g = gl_group_op(m=[[3,1],[3,4]]);\n"
        "op h = gl_group_op(m=[[4,3],[4,2]]);\n"
        "check group g;\n"
        "check interchange g h;\n", "groups.mg")))
    def no_keys(t):
        raise AssertionError("hashed rows")

    monkeypatch.setattr(axioms, "_row_keys", no_keys)
    for decl in compiled.checks:
        report = run_check(compiled, decl)
        assert report.passed, report


@pytest.mark.parametrize("m", [[[1, 0], [0, 1]], [[1, 2], [3, 4]]], ids=["cayley", "invertible"])
def test_monoid_tables_are_not_hashed(m, monkeypatch):
    # A*B = A M B on matrices(2,5) with M invertible: column 0 (the zero
    # matrix) is constant, but the unit M^-1 is a two-sided one, so its row
    # and column tell every element apart
    compiled = compile_spec(parse_spec(SpecSource(
        f"carrier matrices(2,5);\nop m = matrix_op(s=1, t=0, m1={m}, m2=[[0,0],[0,0]]);\n"
        "check assoc m;\n", "monoid.mg")))
    t = compiled.ops["m"].table
    assert np.bincount(t[:, 0]).max() == len(t)

    def no_keys(t):
        raise AssertionError("hashed rows")

    monkeypatch.setattr(axioms, "_row_keys", no_keys)
    assert axioms._class_reps(t).tolist() == axioms._class_reps(t.T).tolist() == list(range(625))
    [decl] = compiled.checks
    assert run_check(compiled, decl).passed


@pytest.mark.parametrize("spec, check", [
    ("decided_matrices", "assoc inv"),
    ("decided_matrices", "assoc sing"),
    ("decided_matrices", "dimonoid sing sing"),
    ("decided_gl", "group g"),
    ("decided_gl", "interchange g h"),
    ("decided_gl", "interchange h g"),
])
def test_passes_are_decided_without_a_scan(spec, check, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(optables, "scan_chunks", no_scan)
    monkeypatch.setattr(axioms, "scan_chunks", no_scan)
    compiled = _compiled(spec)
    [decl] = [c for c in compiled.checks if " ".join((c.name, *c.operand_names)) == check]
    report = run_check(compiled, decl)
    n = len(compiled.carrier)
    assert report.passed
    stages = {"dimonoid": 5 * n**3, "group": n**3 + n + n * n}
    assert report.checked == stages.get(decl.name, n**3)


def test_dimonoid_scans_only_axioms_2_and_4(monkeypatch):
    # axioms 1 and 5 are associativity and axiom 3 the interchange law of
    # (|-, -|); on 432 elements all three are proved within n^3/8, and
    # Light's test runs once on |-, for axioms 3 and 5 alike
    compiled = compile_spec(parse_spec(SpecSource(
        "carrier vectors(2,3) x gl(2,3);\n"
        "op d = action_dimonoid(part=dashv);\n"
        "op v = action_dimonoid(part=vdash);\n"
        "check dimonoid d v;\n")))
    d, v = compiled.ops["d"].table, compiled.ops["v"].table
    events = []

    def record(name, proof):
        def wrapper(*tables_and_cap):
            verdict = proof(*tables_and_cap)
            events.append((name, *(id(t) for t in tables_and_cap[:-1]), verdict))
            return verdict
        return wrapper

    def fake_scan(worker, n_rows, cells_per_row, jobs=1):
        events.append("scan")
        return None

    monkeypatch.setattr(axioms, "_associative", record("assoc", axioms._associative))
    monkeypatch.setattr(axioms, "_interchanges", record("interchange", axioms._interchanges))
    monkeypatch.setattr(axioms, "scan_chunks", fake_scan)
    report = run_check(compiled, compiled.checks[0])
    assert report.passed and report.checked == 5 * 432**3
    assert events == [
        ("assoc", id(d), True),                    # axiom 1
        "scan",                                    # axiom 2
        ("assoc", id(v), True),                    # axiom 3: its precondition
        ("interchange", id(v), id(d), True),
        "scan",                                    # axiom 4
    ]                                              # axiom 5: the verdict above


def _recording_decisions(monkeypatch):
    """Record, in order, each call of the proofs, the scan and find_inverses in axioms."""
    calls = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_associative", "_interchanges", "scan_chunks", "find_inverses"):
        monkeypatch.setattr(axioms, name, record(name, getattr(axioms, name)))
    return calls


def test_light_verdict_goes_with_the_table_and_its_relabellings(monkeypatch):
    # Light's verdict is kept on the OpTable, which a relabelling shares, so a
    # second check on either runs no second test; the memo is not in the repr
    calls = _recording_decisions(monkeypatch)
    carrier = cyclic_group(24)
    op = table_from_array(carrier, carrier.cayley, "plus")
    first = axioms.check_group(op)
    assert first.passed and calls.count("_associative") == 1
    assert axioms.check_group(op.relabel("again")) == first
    assert calls.count("_associative") == 1 and "scan_chunks" not in calls
    # a proof is chosen by grid identity: the interchange law of a table with
    # its relabelling is associativity, whose verdict is known already
    calls.clear()
    assert axioms.check_interchange(op, op.relabel("j")).passed and calls == []
    assert repr(op.relabel("again")) == repr(op).replace("'plus'", "'again'")
    assert "_memo" not in repr(op)


def test_a_failed_stage_runs_nothing_after_it(monkeypatch):
    # stages are made one at a time: building them all first gives the same
    # reports, but proves and scans the laws after the failing one
    calls = _recording_decisions(monkeypatch)
    s3 = symmetric_group(3)
    mul = table_from_array(s3, s3.cayley, "mul")
    opp = table_from_array(s3, s3.cayley.T.copy(), "opp")
    report = axioms.check_dimonoid(opp, mul)
    assert (report.passed, report.reason, report.checked) == (False, "axiom-2", 2 * 6**3)
    # Light's test gives up at its cap of 6^3/8 cells, so axioms 1 and 2 are both scanned
    assert calls == ["_associative", "scan_chunks", "scan_chunks"]

    calls.clear()
    z3 = cyclic_group(3)
    constant = table_from_array(z3, np.zeros((3, 3), dtype=np.int64), "zero")
    report = axioms.check_rack_quandle(constant, axioms.RIGHT, require_idempotent=False)
    assert not report.passed and report.reason.startswith("divisibility_right")
    assert calls == []

    calls.clear()
    left_zero = table_from_array(z3, np.repeat(np.arange(3)[:, None], 3, axis=1), "left-zero")
    report = axioms.check_group(left_zero)
    assert (report.passed, report.reason, report.checked) == (False, "no-unit", 27 + 3)
    assert calls == ["_associative", "scan_chunks"]      # the assoc stage, and no inverses


def _every_row(carrier, ops):
    return np.arange(len(carrier))


def _no_proof(shape, ops):
    return False


@pytest.mark.parametrize("cut", ["none", "proof", "orbit", "both"])
@pytest.mark.parametrize("spec", sorted(p.stem for p in GOLDEN.glob("*.mg")))
def test_cutting_the_ladder_keeps_the_pinned_reports(spec, cut, capsys, monkeypatch):
    # every rung is held to the plain scan: with the proofs cut (no shape has
    # one), the orbit step cut (every element is its own orbit) or both, each
    # golden spec gives its pinned bytes at one and two threads
    if cut in ("proof", "both"):
        monkeypatch.setattr(axioms, "_proved", _no_proof)
    if cut in ("orbit", "both"):
        monkeypatch.setattr(axioms, "_orbit_reps", _every_row)
    monkeypatch.chdir(GOLDEN)
    want = (GOLDEN / f"{spec}.json").read_text(encoding="utf-8")
    for jobs in ("1", "2"):
        main(["verify", f"{spec}.mg", "--no-timing", "--format", "json", "--jobs", jobs])
        assert capsys.readouterr().out == want


# The orbit step. `axioms._orbit_reps` keeps the carrier's candidate
# permutations that are automorphisms of every table a law reads and returns
# the least element of each orbit of the group they generate (every element
# when none survives); `axioms._decide` scans a law its shape's proof did
# not decide on those rows only, in ascending order, and reports the first hit
# as its witness. Both are held to naive loops: automorphisms by the
# definition, orbits by closure, laws over every triple.


def _group_maps(carrier):
    """Every element of the group the carrier's candidates generate, as index lists."""
    every = tuple(range(len(carrier)))
    group, frontier = {every}, [every]
    gens = [tuple(s.tolist()) for s in carrier.automorphism_candidates]
    while frontier:
        f = frontier.pop()
        for s in gens:
            g = tuple(s[i] for i in f)
            if g not in group:
                group.add(g)
                frontier.append(g)
    return sorted(group)


def _invariant(draw, carrier):
    """A table t with t[g x, g y] = g t[x, y] for every g the candidates generate.

    Each pair orbit takes a value fixed by the pair's stabilizer, spread over
    the orbit by the group.
    """
    n = len(carrier)
    group = _group_maps(carrier)
    t = np.full((n, n), -1, dtype=np.int64)
    for x in range(n):
        for y in range(n):
            if t[x, y] >= 0:
                continue
            stab = [g for g in group if g[x] == x and g[y] == y]
            v = draw(st.sampled_from([v for v in range(n) if all(g[v] == v for g in stab)]))
            for g in group:
                t[g[x], g[y]] = g[v]
    return t


@st.composite
def carrier_tables(draw):
    """A carrier and two tables on it, each invariant, linear, affine or perturbed."""
    kind = draw(st.sampled_from(["cyclic", "symmetric"]))
    if kind == "cyclic":
        carrier = cyclic_group(draw(st.integers(2, 12)))
    else:
        carrier = symmetric_group(draw(st.integers(3, 4)))
    n = len(carrier)

    def one():
        shape = draw(st.sampled_from(["invariant", "linear", "affine", "perturbed"]))
        if shape in ("linear", "affine") and kind == "cyclic":
            a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            c = draw(st.integers(0, n - 1)) if shape == "affine" else 0
            x, y = np.ogrid[:n, :n]
            return (a * x + b * y + c) % n
        t = _invariant(draw, carrier)
        if shape == "perturbed":  # one cell off: some candidate no longer preserves it
            x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            t[x, y] = draw(st.integers(0, n - 1))
        return t

    first = one()
    second = first.copy() if draw(st.booleans()) else one()
    return carrier, *(table_from_array(carrier, t, "t") for t in (first, second))


def _law_parts(shape, ops, carrier):
    """(shape, the OpTables it reads, cells per row) of the law shape in axioms, and its reference law."""
    ta, tb = ops
    n = len(carrier)
    a, b = ta.table.tolist(), tb.table.tolist()
    if shape == "bracket":
        return axioms._bracket, (ta, tb, tb, ta), None, reference.bracket(a, b, b, a)
    if shape == "bracket-mixed":
        return axioms._bracket, (ta, ta, ta, tb), None, reference.bracket(a, a, a, b)
    if shape == "mixed":
        return axioms._mixed_distrib, (ta, tb), None, reference.mixed_distrib(a, b)
    if shape == "left":
        return axioms._left_distrib, (ta,), None, reference.left_distrib(a)
    if shape == "brace":
        d = table_from_array(carrier, carrier.cayley, "d")
        return (axioms._brace_compatibility, (d, ta), None,
                reference.brace_compatibility(d.table.tolist(), a))
    return axioms._nvalued, (ta, tb), 4 * n * n, reference.multiset_assoc(a, b)


SHAPES = ["bracket", "bracket-mixed", "mixed", "left", "brace", "nvalued"]


@pytest.mark.parametrize("shape", SHAPES)
@given(carrier_tables(), st.sampled_from([(None, 1), (2_000, 2)]))
@settings(max_examples=40, deadline=None)
def test_orbit_step_equals_naive_triple_loops(shape, drawn, chunks):
    # chunks: real chunk sizes at one thread, or chunks of a few rows, and
    # proof steps and gather blocks of one row, at two threads
    carrier, ta, tb = drawn
    cells, jobs = chunks
    n = len(carrier)
    law, read, width, naive = _law_parts(shape, (ta, tb), carrier)
    sides = law(*(op.table for op in read))
    first = reference.law_failure(naive, n)
    perms = [s for s in carrier.automorphism_candidates
             if all(reference.endomorphism_failure(s.tolist(), op.table.tolist()) is None
                    for op in read)]
    with pytest.MonkeyPatch.context() as patch:
        if cells is not None:
            patch.setattr(optables, "CHUNK_CELLS", cells)
            patch.setattr(optables, "PROOF_CELLS", 1)
            patch.setattr(optables, "GATHER_CELLS", 1)
        reps = axioms._orbit_reps(carrier, read)
        report = axioms._decide("law", law, *read, jobs=jobs, width=width)
        on_reps = axioms._first_failure(sides, reps, width or n * n, jobs)
    assert reps.tolist() == reference.orbit_reps([s.tolist() for s in perms], n)
    assert on_reps == first
    assert report.passed == (first is None)
    if first is not None:
        assert report.witness == tuple(carrier.elements[i] for i in first)
    assert report.checked == n**3


def test_unit_candidates_generate_the_units():
    # Z_360: the greedy set 7, 11, 13, 17 generates all 96 units, and x -> u x
    # has 24 orbits, one per divisor of 360 (and 0)
    assert carriers._unit_generators(360) == [7, 11, 13, 17]
    units = {u for u in range(360) if np.gcd(u, 360) == 1}
    assert {int(np.prod(c)) % 360 for c in itertools.product(
        *[[u**k % 360 for k in range(12)] for u in (7, 11, 13, 17)])} == units
    carrier = cyclic_group(360)
    reps = axioms._orbit_reps(carrier, [table_from_array(carrier, carrier.cayley, "plus")])
    assert reps.tolist() == [0] + [d for d in range(1, 360) if 360 % d == 0]
    for n in (1, 2):
        assert cyclic_group(n).automorphism_candidates == ()


def test_candidates_drop_identity_maps_and_other_carriers():
    # the greedy generating set of S_3 starts with its identity, whose
    # conjugation is the identity map and is left out
    s3 = symmetric_group(3)
    assert optables._generators(s3.cayley, 6).tolist() == [0, 1, 2]
    every = np.arange(6)
    candidates = s3.automorphism_candidates
    assert len(candidates) == 2 and all((s != every).any() for s in candidates)
    assert direct_product(cyclic_group(2), cyclic_group(3)).automorphism_candidates == ()
    assert group_carrier("vectors(2,2) x gl(2,2)").automorphism_candidates == ()


def _recording_verifications(monkeypatch):
    """Record the id of the table of every candidate verification the checks make."""
    calls = []
    real = axioms._endomorphism_failure

    def verify(s, t):
        calls.append(id(t))
        return real(s, t)

    monkeypatch.setattr(axioms, "_endomorphism_failure", verify)
    return calls


def test_candidates_are_verified_once_per_table(monkeypatch):
    compiled = _compiled("orbit_cyclic")
    carrier, q = compiled.carrier, compiled.ops["q"]
    calls = _recording_verifications(monkeypatch)
    candidates = len(carrier.automorphism_candidates)
    first = axioms.check_self_distributivity(q, axioms.LEFT)
    assert 0 < len(calls) <= candidates and set(calls) == {id(q.table)}
    calls.clear()
    # a second check, and a second law of another check, on the same table
    assert axioms.check_self_distributivity(q, axioms.LEFT) == first
    axioms.check_self_distributivity(q, axioms.RIGHT)
    assert calls == []
    # a relabelling keeps the grid, and with it the verdicts
    assert axioms.check_self_distributivity(q.relabel("again"), axioms.LEFT) == first
    assert calls == []
    # an equal table that is another object is verified afresh
    twin = table_from_array(carrier, q.table.copy(), "twin")
    assert axioms.check_self_distributivity(twin, axioms.LEFT) == first
    assert len(calls) > 0 and set(calls) == {id(twin.table)}


def _recording_scans(monkeypatch):
    """Record (rows, cells per row) of every scan and the rows its chunks ran."""
    calls = []
    real = optables.scan_chunks

    def scan(worker, n_rows, cells_per_row, jobs=1):
        ran = []
        calls.append((n_rows, cells_per_row, ran))

        def counted(a0, a1):
            ran.append(a1 - a0)
            return worker(a0, a1)
        return real(counted, n_rows, cells_per_row, jobs)

    monkeypatch.setattr(optables, "scan_chunks", scan)
    monkeypatch.setattr(axioms, "scan_chunks", scan)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_passing_identity_is_decided_on_orbit_representatives(jobs, monkeypatch):
    calls = _recording_scans(monkeypatch)
    compiled = _compiled("orbit_cyclic")
    [decl] = [c for c in compiled.checks if c.name == "multiquandle"]
    report = run_check(compiled, decl, jobs=jobs)
    assert not report.passed and report.reason == "mixed-distrib-ji"
    assert report.witness == (0, 0, 1) and report.checked == 2 * 360**3
    # one scan over the 24 representatives per identity: the first runs every
    # row and passes, the second fails and reports its first hit
    (reps, width, ran), (reps2, _, _) = calls
    assert (reps, reps2, width) == (24, 24, 360 * 360)
    assert sum(ran) == 24


def test_no_scan_is_added_where_the_orbit_step_cannot_apply(monkeypatch):
    calls = _recording_scans(monkeypatch)
    # a pair carrier has no candidates
    pairs = group_carrier("vectors(2,2) x gl(2,2)")
    op = table_from_array(pairs, np.arange(len(pairs))[None, :].repeat(len(pairs), 0), "right")
    assert axioms.check_self_distributivity(op, axioms.LEFT).passed
    # x + y + 1 on Z_12: no x -> u x with u != 1 preserves it
    x, y = np.ogrid[:12, :12]
    op = table_from_array(cyclic_group(12), (x + y + 1) % 12, "t")
    assert axioms._orbit_reps(op.carrier, [op]).tolist() == list(range(12))
    assert not axioms.check_self_distributivity(op, axioms.RIGHT).passed
    assert [(n, width) for n, width, _ in calls] == [(len(pairs), len(pairs)**2), (12, 144)]


def _row_law_table(case):
    """A table on Z_24 preserved by every x -> u x, u a unit, whose assoc first fails late.

    "swaps": x y = 3x on the orbit {6, 18} and 5x on {8, 16}, x elsewhere, so
    assoc fails on rows 6, 8, 16 and 18. "last": 12 y = 12 + y and x y = x
    elsewhere, so assoc fails on row 12 only.
    """
    x, y = np.ogrid[:24, :24]
    t = np.broadcast_to(x, (24, 24)).copy()
    if case == "swaps":
        t[[6, 18]] = t[[18, 6]]
        t[[8, 16]] = t[[16, 8]]
    else:
        t[12] = (12 + y[0]) % 24
    return table_from_array(cyclic_group(24), t, case)


@pytest.mark.parametrize("case, witness", [("swaps", (6, 0, 0)), ("last", (12, 0, 1))])
def test_witness_is_the_representative_not_its_position(case, witness, monkeypatch):
    # the representatives of Z_24 are 0 and its divisors; 6 is the sixth and
    # 12 the eighth, so a hit at position 5 or 7 is reported as row 6 or 12
    op = _row_law_table(case)
    t = op.table.tolist()
    assert all(reference.endomorphism_failure(s.tolist(), t) is None
               for s in op.carrier.automorphism_candidates)
    reps = axioms._orbit_reps(op.carrier, [op]).tolist()
    assert reps == [0, 1, 2, 3, 4, 6, 8, 12]
    first = reference.law_failure(reference.assoc(t), 24)
    assert first == witness and reps.index(witness[0]) != witness[0]
    # all of Z_24's rows fit in one chunk, where every row is scanned; one
    # cell less keeps the orbit step
    monkeypatch.setattr(optables, "CHUNK_CELLS", 24**3 - 1)
    calls = _recording_scans(monkeypatch)
    report = axioms.check_associativity(op)
    assert not report.passed and report.witness == witness
    assert report.checked == 24**3
    assert [(rows, width) for rows, width, _ in calls] == [(len(reps), 24 * 24)]


@pytest.mark.parametrize("spec", ["orbit_gl", "orbit_symmetric"])
def test_pinned_alexander_quandle_drops_a_conjugation(spec):
    # orbit_*.mg pin a law decided after a candidate was dropped: conjugation
    # by some generator is not an automorphism of the inner(1) quandle
    compiled = _compiled(spec)
    carrier, op = compiled.carrier, compiled.ops["alex"]
    alex = op.table
    candidates = carrier.automorphism_candidates
    kept = [s for s in candidates if optables._endomorphism_failure(s, alex) is None]
    assert 0 < len(kept) < len(candidates)
    assert all(reference.endomorphism_failure(s.tolist(), alex.tolist()) is None for s in kept)
    assert axioms._orbit_reps(carrier, [op]).tolist() == reference.orbit_reps(
        [s.tolist() for s in kept], len(carrier))
