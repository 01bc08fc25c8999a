"""The proofs that decide passing associativity and interchange without a scan.

`axioms._associative` (Light's test) and `axioms._interchanges` (the
left-ideal cover) may only return True on a law that holds on every triple.
Given an unbounded work cap they are also complete, so on small tables their
verdicts must equal plain triple loops exactly. The tables come from random
magmas, relabelled transformation semigroups and their one-cell
perturbations, left-zero, right-zero and null bands, and tables with repeated
rows or columns.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multigroup import axioms, optables
from multigroup.carriers import cyclic_group
from multigroup.dsl import SpecSource, compile_spec, parse_spec, run_check
from multigroup.optables import table_from_array

GOLDEN = Path(__file__).parent / "golden"
UNBOUNDED = 1 << 62


def naive_interchange(ti, tj):
    n = len(ti)
    return all(
        tj[ti[x][y]][z] == ti[x][tj[y][z]] for x in range(n) for y in range(n) for z in range(n)
    )


def naive_assoc(t):
    return naive_interchange(t, t)


def naive_closure(t, gens):
    members = set(gens)
    while True:
        more = {t[a][b] for a in members for b in members} - members
        if not more:
            return members
        members |= more


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
        patch.setattr(axioms, "PROOF_CELLS", chunk)


@pytest.mark.parametrize("keys, chunk", VARIANTS)
@given(tables())
@settings(max_examples=60, deadline=None)
def test_light_test_equals_naive_assoc(keys, chunk, t):
    t = frozen(t)
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, keys, chunk)
        assert axioms._associative(t, UNBOUNDED) == naive_assoc(t.tolist())


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
    want = naive_assoc(ti.tolist()) and naive_interchange(ti.tolist(), tj.tolist())
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, keys, chunk)
        assert axioms._interchanges(ti, tj, UNBOUNDED) == want


@pytest.mark.parametrize("chunk", [None, 2])
@given(tables())
@settings(max_examples=60, deadline=None)
def test_generators_generate(chunk, t):
    t = frozen(t)
    with pytest.MonkeyPatch.context() as patch:
        _patch(patch, None, chunk)
        gens = axioms._generators(t, UNBOUNDED).tolist()
    assert naive_closure(t.tolist(), gens) == set(range(len(t)))
    products = {v for row in t.tolist() for v in row}
    assert {g for g in range(len(t)) if g not in products} <= set(gens)


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


def test_cover_needs_an_associative_inner_table():
    # 0 is a two-sided unit, so y = 0 passes and its column covers everything,
    # yet (1*1)*2 = 0 and 1*(1*2) = 1: only the associativity test refutes it
    ti = frozen([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    tj = frozen(ti.copy())
    assert not naive_assoc(ti.tolist())
    assert not naive_interchange(ti.tolist(), tj.tolist())
    assert not axioms._interchanges(ti, tj, UNBOUNDED)
    op_i, op_j = (table_from_array(cyclic_group(3), t, name) for t, name in ((ti, "i"), (tj, "j")))
    report = axioms.check_interchange(op_i, op_j)
    assert not report.passed and report.witness == (1, 1, 2)


def test_work_cap_gives_up():
    # Z_8: 8 row and 8 column classes, generators 0 and 1 (every row is onto,
    # so the least come first) and one covering test: 2 * 8 * 8 cells each
    t = frozen([[(x + y) % 8 for y in range(8)] for x in range(8)])
    assert axioms._generators(t, UNBOUNDED).tolist() == [0, 1]
    assert axioms._associative(t, 128) and axioms._interchanges(t, t, 128)
    assert not axioms._associative(t, 127) and not axioms._interchanges(t, t, 127)


def _compiled(name):
    text = (GOLDEN / f"{name}.mg").read_text(encoding="utf-8")
    return compile_spec(parse_spec(SpecSource(text, f"{name}.mg")))


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
    # (|-, -|); on 432 elements all three are proved within n^3/8
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
        ("assoc", id(v), True),                    # axiom 5
    ]
