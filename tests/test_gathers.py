"""Every construction's gather against its rule in plain tuple math.

The rules below are written here, from the carrier's kind, modulus and
element list only: permutation composition, matrix products mod p and each
construction's formula. They never call Carrier.mul, Carrier.inv or the
Cayley table, so build_op_table(carrier, rule) is an independent oracle for
the index-space tables. Construction-time errors must name the same first
failing pair or triple, with the same text, as the rule-by-rule build did.
"""

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

from multigroup import cli, optables
from multigroup.carriers import (
    CAYLEY_CHUNK_CELLS,
    Carrier,
    cyclic_group,
    direct_product,
    element_order,
    gl_group,
    group_carrier,
    group_exponent,
    group_power,
    integer_window,
    make_automorphism,
    matrix_set,
    matrix_subgroup,
    pair_carrier,
    symmetric_group,
)
from multigroup.constructions import (
    MatrixOpParams,
    action_dimonoid,
    alexander_quandle,
    brace_ops,
    conj_quandle,
    core_quandle,
    gl_group_op,
    matrix_op,
    pair_dimonoid,
    vxg_conj_op,
    vxg_phi_op,
    z_parity_brace,
)
from multigroup.demos import run_demo
from multigroup.dsl import SpecSource, compile_spec, parse_spec, run_check
from multigroup.errors import (
    NotAnActionError,
    NotBijectiveError,
    NotClosedError,
    NotHomomorphismError,
    NoUnitError,
)
from multigroup.field import PrimeField
from multigroup.matrix import Matrix
from multigroup.optables import build_op_table

GROUPS = (
    [f"cyclic({n})" for n in range(1, 9)]
    + [f"symmetric({n})" for n in range(1, 5)]
    + ["gl(2,2)", "gl(2,3)", "cyclic(2) x symmetric(3)"]
)
MATRIX_CARRIERS = ("matrices(2,2)", "gl(2,2)", "gl(2,3)")
MONOIDS = ("matrices(2,2)", "cyclic(3)", "symmetric(3)")
PAIRS = "vectors(2,2) x gl(2,2)"


# --- plain rules ------------------------------------------------------------------


def mat_mul_mod(p):
    def mul(a, b):
        n = len(a)
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n))
                     for i in range(n))
    return mul


def mat_vec_mod(a, v, p):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) % p for i in range(len(a)))


def plain_rules(carrier):
    """(mul, identity) on encodings for a monoid carrier, from its kind and parameters."""
    if carrier.kind == "cyclic-group":
        n = len(carrier.elements)
        return (lambda a, b: (a + b) % n), 0
    if carrier.kind == "symmetric-group":
        n = len(carrier.elements[0])
        return (lambda a, b: tuple(a[b[i]] for i in range(n))), tuple(range(n))
    if carrier.kind in ("matrix-set", "matrix-group"):
        n = len(carrier.elements[0])
        return mat_mul_mod(carrier.field.p), tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    (mul_a, e_a), (mul_b, e_b) = (plain_rules(f) for f in carrier.factors)
    return (lambda u, v: (mul_a(u[0], v[0]), mul_b(u[1], v[1]))), (e_a, e_b)


class Plain:
    """A group or monoid carrier's law in plain tuple math, memoized."""

    def __init__(self, carrier):
        self.elements = carrier.elements
        mul, self.e = plain_rules(carrier)
        self.mul = functools.cache(mul)

    @functools.cache
    def inv(self, a):
        return next(b for b in self.elements if self.mul(a, b) == self.e)

    @functools.cache
    def power(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        acc = self.e
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc


def same_table(op, rule):
    oracle = build_op_table(op.carrier, rule)
    assert op.table.dtype == oracle.table.dtype
    assert np.array_equal(op.table, oracle.table), op.label


# --- tables -----------------------------------------------------------------------


@pytest.mark.parametrize("spec", GROUPS + list(MONOIDS))
def test_cayley_table_and_unit(spec):
    carrier = group_carrier(spec)
    g = Plain(carrier)
    oracle = build_op_table(carrier, g.mul)
    assert np.array_equal(carrier.cayley, oracle.table)
    assert [[carrier.mul(a, b) for b in carrier] for a in carrier] == \
        [[carrier[k] for k in row] for row in oracle.table.tolist()]
    assert carrier.identity == g.e
    if carrier.is_group:
        assert [carrier.inv(a) for a in carrier] == [g.inv(a) for a in carrier]


def unitriangular(n, p):
    """The upper unitriangular n x n matrices mod p, as an explicit list."""
    spots = [(r, c) for r in range(n) for c in range(r + 1, n)]
    return [tuple(tuple(int(r == c) + dict(zip(spots, values)).get((r, c), 0) for c in range(n))
                  for r in range(n))
            for values in itertools.product(range(p), repeat=len(spots))]


# Carriers the table above leaves out: 1x1 and 3x3 matrices, degree 5, and a
# listed group of 27 elements whose rank space (3^9) exceeds n^2.
PRODUCT_CARRIERS = {
    "gl(1,5)": lambda: gl_group(1, 5),
    "matrices(1,3)": lambda: matrix_set(1, 3),
    "gl(3,2)": lambda: gl_group(3, 2),
    "symmetric(5)": lambda: symmetric_group(5),
    "unitriangular(3,3)": lambda: matrix_subgroup(unitriangular(3, 3), 3, 3),
}


@pytest.mark.parametrize("name", PRODUCT_CARRIERS)
def test_products_on_more_carriers(name):
    carrier = PRODUCT_CARRIERS[name]()
    g = Plain(carrier)
    want = build_op_table(carrier, g.mul).table
    assert np.array_equal(carrier.cayley, want)
    n = len(carrier)
    every = np.arange(n)
    picks = np.random.default_rng(12).integers(0, n, size=(2, 7))
    assert [int(carrier.product(i, j)) for i, j in picks.T] == [want[i, j] for i, j in picks.T]
    assert np.array_equal(carrier.product(picks[0, 0], every), want[picks[0, 0]])
    assert np.array_equal(carrier.product(every, picks[1, 0]), want[:, picks[1, 0]])
    assert np.array_equal(carrier.product(picks[0][:, None], picks[1][None, :]),
                          want[picks[0][:, None], picks[1][None, :]])
    assert [carrier.mul(a, b) for a, b in zip(carrier, carrier.elements[::-1])] == \
        [g.mul(a, b) for a, b in zip(carrier, carrier.elements[::-1])]


def test_direct_product_indices_past_int16():
    # The factors' products come in int16; their combined index does not fit it.
    carrier = direct_product(symmetric_group(5), cyclic_group(300))
    g = Plain(carrier)
    picks = np.random.default_rng(5).integers(0, len(carrier), size=(2, 9))
    picks[0, 0] = len(carrier) - 1
    want = [carrier.index[g.mul(carrier[i], carrier[j])] for i, j in picks.T]
    assert carrier.product(picks[0], picks[1]).tolist() == want
    assert [int(carrier.product(i, j)) for i, j in picks.T] == want


def test_lookup_path_follows_the_rank_space(monkeypatch):
    searches = []
    search = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *a, **k: searches.append(a) or search(*a, **k))
    for carrier in (gl_group(2, 5), symmetric_group(5), matrix_set(1, 3)):  # 625, 3125, 3 ranks
        carrier.cayley, carrier.lookup(carrier.array)
    assert searches == []
    listed = matrix_subgroup(unitriangular(3, 3), 3, 3)  # 3^9 ranks > 27^2
    assert searches
    assert listed.lookup(listed.array).tolist() == list(range(len(listed)))


def listed_matrices(elements, p):
    """A matrix set carrier on the given matrices, not checked for closure."""
    return Carrier("matrix-set", tuple(sorted(elements)), "listed", field=PrimeField(p),
                   dim=len(elements[0]))


# Matrix sets that are not closed. The first two have rank spaces of at most
# n^2 (5 <= 9, 16 <= 36), the last three larger ones (7 > 4, 81 > 25, 5 > 4).
# In the last, 3 * 3 = 9 escapes and is named by its residue 4.
OPEN_SETS = [
    ([((0,),), ((1,),), ((2,),)], 5),
    ([m for m in matrix_set(2, 2).elements if m[0][0] == 0][:6], 2),
    ([((1,),), ((2,),)], 7),
    (list(gl_group(2, 3).elements[:5]), 3),
    ([((1,),), ((3,),)], 5),
]


@pytest.mark.parametrize("elements, p", OPEN_SETS)
def test_an_absent_product_is_minus_one(elements, p):
    carrier = listed_matrices(elements, p)
    mul, index = mat_mul_mod(p), carrier.index
    want = [[index.get(mul(a, b), -1) for b in carrier] for a in carrier]
    assert -1 in np.array(want)
    every = np.arange(len(carrier))
    assert carrier.product(every[:, None], every[None, :]).tolist() == want
    absent = next(m for m in matrix_set(len(elements[0]), p).elements if m not in index)
    assert carrier.lookup(np.array(absent)) == -1
    assert carrier.lookup(np.array([carrier[-1], absent, carrier[0]])).tolist() == \
        [len(carrier) - 1, -1, 0]
    with pytest.raises(NotClosedError) as got:
        carrier.cayley
    with pytest.raises(NotClosedError) as oracle:
        build_op_table(carrier, mul)
    assert str(got.value) == str(oracle.value)


@pytest.mark.parametrize("spec", GROUPS)
def test_group_quandles(spec):
    group = group_carrier(spec)
    g = Plain(group)
    for m in (-1, 0, 1, 2, 7):
        same_table(conj_quandle(group, m),
                   lambda a, b: g.mul(g.mul(g.power(b, -m), a), g.power(b, m)))
    same_table(core_quandle(group), lambda a, b: g.mul(g.mul(b, g.inv(a)), b))
    for rule in ("identity", ("inner", group.elements[-1]), ("power", -1), ("power", 5)):
        try:
            phi = make_automorphism(group, rule)
        except (NotBijectiveError, NotHomomorphismError):  # a power that is no automorphism here
            continue
        same_table(alexander_quandle(group, phi),
                   lambda a, b: g.mul(phi.apply(g.mul(a, g.inv(b))), b))


@pytest.mark.parametrize("spec", GROUPS)
def test_automorphism_images_and_powers(spec):
    group = group_carrier(spec)
    g = Plain(group)
    for x in group.elements:
        phi = make_automorphism(group, ("inner", x))
        assert [phi.apply(a) for a in group] == [g.mul(g.mul(x, a), g.inv(x)) for a in group]
    orders = [next(k for k in range(1, len(group) + 1) if g.power(a, k) == g.e) for a in group]
    assert [element_order(group, a) for a in group] == orders
    assert group_exponent(group) == int(np.lcm.reduce(orders))
    for k in (-3, 0, 1, 4):
        assert [group_power(group, a, k) for a in group] == [g.power(a, k) for a in group]


@pytest.mark.parametrize("spec", GROUPS)
def test_braces(spec):
    group = group_carrier(spec)
    g = Plain(group)
    dot, trivial = brace_ops(group, "trivial")
    same_table(dot, g.mul)
    same_table(trivial, g.mul)
    same_table(brace_ops(group, "opposite")[1], lambda a, b: g.mul(b, a))


@pytest.mark.parametrize("m", [2, 4, 6, 8])
def test_parity_brace(m):
    plus, circ = z_parity_brace(cyclic_group(m))
    same_table(plus, lambda a, b: (a + b) % m)
    same_table(circ, lambda a, b: (a + b if a % 2 == 0 else a - b) % m)


MIXERS = (((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 0)), ((0, 0), (0, 0)))


@pytest.mark.parametrize("spec", MATRIX_CARRIERS)
def test_sandwich_products(spec):
    carrier = group_carrier(spec)
    p = carrier.field.p
    fld, mul = PrimeField(p), mat_mul_mod(p)
    for s, t, m1, m2 in [(1, 0, MIXERS[0], MIXERS[1]), (1, 1, MIXERS[1], MIXERS[2]),
                         (p - 1, 1, MIXERS[0], MIXERS[1]), (1, 1, MIXERS[2], MIXERS[0])]:
        def rule(a, b):
            left, right = mul(mul(a, m1), b), mul(mul(a, m2), b)
            return tuple(tuple((s * x + t * y) % p for x, y in zip(r1, r2)) for r1, r2 in zip(left, right))
        params = MatrixOpParams(s, t, Matrix(fld, m1), Matrix(fld, m2))
        try:
            want = build_op_table(carrier, rule)
        except NotClosedError as err:
            with pytest.raises(NotClosedError) as got:
                matrix_op(params, carrier)
            assert str(got.value) == str(err)
            continue
        assert np.array_equal(matrix_op(params, carrier).table, want.table)
    for m in MIXERS[:2]:
        same_table(gl_group_op(Matrix(fld, m), carrier), lambda a, b: mul(mul(a, m), b))


def test_pair_constructions():
    pairs = group_carrier(PAIRS)
    group = pairs.group
    g, p = Plain(group), pairs.field.p
    for rule in ("identity", ("inner", group.elements[2]), ("inner", group.elements[5])):
        phi = make_automorphism(group, rule)
        same_table(vxg_phi_op(pairs, phi), lambda x, y: (
            mat_vec_mod(x[1], y[0], p), g.mul(phi.apply(g.mul(x[1], g.inv(y[1]))), y[1])))
    for n in (-1, 0, 1, 2, 5):
        same_table(vxg_conj_op(pairs, n), lambda x, y: (
            mat_vec_mod(g.power(x[1], n), y[0], p),
            g.mul(g.mul(g.power(x[1], n), y[1]), g.power(x[1], -n))))
    dashv, vdash = action_dimonoid(pairs)
    same_table(dashv, lambda x, y: (x[0], g.mul(x[1], y[1])))
    same_table(vdash, lambda x, y: (mat_vec_mod(x[1], y[0], p), g.mul(x[1], y[1])))


@pytest.mark.parametrize("spec", MONOIDS)
def test_pair_dimonoid(spec):
    monoid = group_carrier(spec)
    mul = Plain(monoid).mul
    dashv, vdash = pair_dimonoid(monoid)
    same_table(dashv, lambda x, y: (x[0], mul(mul(x[1], y[0]), y[1])))
    same_table(vdash, lambda x, y: (mul(mul(x[0], x[1]), y[0]), y[1]))


# --- construction-time errors -------------------------------------------------------


def first_failure(pairs, bad):
    return next(((a, b) for a in pairs for b in pairs if bad(a, b)), None)


@pytest.mark.parametrize("spec", ["gl(2,2)", "gl(2,3)"])
def test_singular_sandwich_fails_at_the_first_pair(spec):
    carrier = group_carrier(spec)
    p = carrier.field.p
    mul = mat_mul_mod(p)
    for m in (MIXERS[2], MIXERS[3], ((1, 2), (2, 1)) if p == 3 else ((1, 1), (1, 1))):
        with pytest.raises(NotClosedError) as want:
            build_op_table(carrier, lambda a, b: mul(mul(a, m), b))
        with pytest.raises(NotClosedError) as got:
            matrix_op(MatrixOpParams(1, 0, Matrix(PrimeField(p), m), Matrix(PrimeField(p), m)), carrier)
        assert (got.value.x, got.value.y) == (carrier[0], carrier[0])
        assert str(got.value) == str(want.value)


def test_sandwich_outside_a_listed_group_names_the_product_mod_p():
    # A = B = 2 * swap is the first element; A M B is ((4, 0), (4, 4)) over the integers
    group = matrix_subgroup([((1, 0), (0, 1)), ((0, 2), (2, 0))], 2, 3)
    mul, m = mat_mul_mod(3), ((1, 1), (0, 1))
    with pytest.raises(NotClosedError) as want:
        build_op_table(group, lambda a, b: mul(mul(a, m), b))
    with pytest.raises(NotClosedError) as got:
        gl_group_op(Matrix(PrimeField(3), m), group)
    assert got.value.result == ((1, 0), (1, 1))
    assert str(got.value) == str(want.value)


def plain_subgroup_error(rows_list, n, p):
    """The first identity, inverse or product failure of a listed matrix set, as text."""
    mul = mat_mul_mod(p)
    elements = sorted({tuple(tuple(v % p for v in row) for row in rows) for rows in rows_list})
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    if ident not in elements:
        return f"matrix subgroup mod {p} must contain the identity"
    every = [tuple(flat[i * n:(i + 1) * n] for i in range(n))
             for flat in itertools.product(range(p), repeat=n * n)]
    for a in elements:
        inverse = next(b for b in every if mul(a, b) == ident)
        if inverse not in elements:
            return str(NotClosedError(a, a, inverse))
    hit = first_failure(elements, lambda a, b: mul(a, b) not in elements)
    return None if hit is None else str(NotClosedError(*hit, mul(*hit)))


SUBSETS = [
    ([((0, 1), (1, 0))], 2, 2),
    ([((1, 0), (0, 1)), ((1, 1), (0, 1))], 2, 3),
    ([((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1))], 2, 2),
    ([((1, 0), (0, 1)), ((2, 0), (0, 2)), ((0, 1), (1, 0)), ((0, 2), (2, 0)), ((1, 1), (0, 1))], 2, 3),
    ([((1, 0), (0, 1)), ((0, 1), (1, 0))], 2, 2),
]


@pytest.mark.parametrize("rows_list, n, p", SUBSETS)
def test_matrix_subgroup_checks_identity_then_inverses_then_products(rows_list, n, p):
    want = plain_subgroup_error(rows_list, n, p)
    if want is None:
        assert len(matrix_subgroup(rows_list, n, p)) == len(set(rows_list))
        return
    with pytest.raises((NoUnitError, NotClosedError)) as got:
        matrix_subgroup(rows_list, n, p)
    assert str(got.value) == want


@pytest.mark.parametrize("spec, images", [
    ("cyclic(4)", (0, 2, 1, 3)), ("cyclic(3)", (1, 0, 2)), ("symmetric(3)", (0, 2, 1, 3, 4, 5)),
    ("symmetric(3)", (5, 4, 3, 2, 1, 0)), ("cyclic(2) x symmetric(3)", tuple(range(11, -1, -1))),
])
def test_homomorphism_failure_names_the_first_pair(spec, images):
    group = group_carrier(spec)
    mul = Plain(group).mul
    phi = lambda x: group.elements[images[group.elements.index(x)]]
    a, b = first_failure(group.elements, lambda a, b: phi(mul(a, b)) != mul(phi(a), phi(b)))
    with pytest.raises(NotHomomorphismError) as got:
        make_automorphism(group, images)
    assert str(got.value) == f"explicit breaks the homomorphism law at ({a!r}, {b!r})"


def plain_action_error(pairs, action):
    group = Plain(pairs.group)
    vectors = sorted({v for v, _ in pairs.elements})
    for x in vectors:
        if action(group.e, x) != x:
            return f"identity must act trivially, moves {x!r}"
    for g in pairs.group:
        for h in pairs.group:
            for x in vectors:
                if action(group.mul(g, h), x) != action(g, action(h, x)):
                    return f"compatibility fails at g={g!r}, h={h!r}, x={x!r}"
    return None


@pytest.mark.parametrize("spec", [PAIRS, "vectors(2,3) x gl(2,3)"])
def test_action_failures_name_the_first_triple(spec):
    pairs = group_carrier(spec)
    p = pairs.field.p
    mul = mat_mul_mod(p)
    actions = [
        lambda g, x: (0,) * len(x),
        lambda g, x: mat_vec_mod(mul(g, g), x, p),
        lambda g, x: mat_vec_mod(tuple(zip(*g)), x, p),  # the transpose: a right action
        lambda g, x: tuple((v + 1) % p for v in x) if g[0][0] == 0 else x,
    ]
    for action in actions:
        want = plain_action_error(pairs, action)
        assert want is not None
        with pytest.raises(NotAnActionError) as got:
            action_dimonoid(pairs, action)
        assert str(got.value) == want
    dashv, vdash = action_dimonoid(pairs, lambda g, x: mat_vec_mod(g, x, p))
    assert np.array_equal(vdash.table, action_dimonoid(pairs)[1].table)


def test_monoid_errors_keep_their_text():
    with pytest.raises(NoUnitError, match="pair_dimonoid needs a carrier with a two-sided unit, got integer-window"):
        pair_dimonoid(integer_window(0, 3))
    with pytest.raises(NoUnitError, match="must contain the identity"):
        matrix_subgroup([((0, 1), (1, 0))], 2, 2)


# --- one lazy, write-protected table per carrier ----------------------------------------


def test_one_cayley_build_per_carrier(monkeypatch):
    calls = []
    product = Carrier.product

    def counting(self, i, j):
        calls.append(self.label)
        return product(self, i, j)

    monkeypatch.setattr(Carrier, "product", counting)
    claim = run_demo("S3-assoc")
    tables = {d["carrier"]: d["tables_checked"] for d in claim["details"] if "carrier" in d}
    assert tables == {"matrices(2,2)": 24, "matrices(2,3)": 54}
    assert calls.count("matrices(2,3)") == 1 and calls.count("matrices(2,2)") == 1


def test_cayley_table_is_lazy(monkeypatch, capsys):
    def refuse(self, i, j):
        raise AssertionError("product evaluated")

    monkeypatch.setattr(Carrier, "product", refuse)
    assert cli.main(["enumerate", "matrices(3,3)"]) == 0
    assert capsys.readouterr().out == "matrices(3,3): 19683 elements\n"
    carrier = matrix_set(3, 3)
    assert "cayley" not in vars(carrier)


def test_single_products_do_not_build_the_table():
    carrier = gl_group(3, 3)
    a, b = carrier.elements[5], carrier.elements[700]
    assert carrier.mul(a, b) == mat_mul_mod(3)(a, b)
    assert mat_mul_mod(3)(a, carrier.inv(a)) == carrier.identity
    assert "cayley" not in vars(carrier)


def test_one_product_builds_no_column_tables():
    # the column tables of gl(2,13) take 197.5 MB at their peak; one product
    # of two encodings needs a matrix product and a bisection
    carrier = gl_group(2, 13)
    a, b = carrier.elements[5], carrier.elements[20_000]
    assert traced_peak(lambda: carrier.mul(a, b)) < 2**20
    assert carrier.mul(a, b) == mat_mul_mod(13)(a, b)
    assert not {"_columns", "cayley", "index", "array"} & set(vars(carrier))
    with pytest.raises(KeyError):
        carrier.mul(a, ((0, 0), (0, 0)))


def traced_peak(build):
    """Peak bytes that tracemalloc sees while build() runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cayley_builds_in_chunks():
    # Four int64 temporaries per chunk cell at most; an int64 grid of every
    # product at once (1.8 MB on gl(2,5)) does not fit beside the table.
    carrier = gl_group(2, 5)
    carrier.array, carrier.index
    peak = traced_peak(lambda: carrier.cayley)
    assert peak <= carrier.cayley.nbytes + 4 * 8 * CAYLEY_CHUNK_CELLS


def test_products_in_a_small_listed_group_allocate_little():
    # Indexing every vector of F_101^3 would take megabytes per column.
    one = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    flip = ((100, 0, 0), (0, 1, 0), (0, 0, 1))
    carrier = matrix_subgroup([one, flip], 3, 101)
    assert traced_peak(lambda: carrier.mul(flip, flip)) < 2**20
    assert traced_peak(lambda: matrix_subgroup([one, flip], 3, 101).mul(flip, flip)) < 2**20


def test_cayley_table_is_write_protected():
    carrier = direct_product(symmetric_group(3), cyclic_group(2))
    table = carrier.cayley
    assert carrier.cayley is table and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    for arrays in (gl_group(2, 2).inverse, pair_carrier(2, 2, gl_group(2, 2)).action):
        assert not arrays.flags.writeable


def test_automorphism_check_allocates_within_the_proof_budget():
    # checked in row blocks: a whole-table check held three n x n temporaries,
    # 41.5 MB beside the 16.6 MB table of this 2880-element group
    group = group_carrier("symmetric(5) x symmetric(4)")
    group.cayley, group.inverse, group.index
    for rule in ("identity", ("inner", group.elements[-1]), ("power", 1)):
        peak = traced_peak(lambda: make_automorphism(group, rule))
        assert peak <= group.cayley.nbytes + 8 * optables.PROOF_CELLS


@pytest.mark.parametrize("text", [
    "carrier symmetric(4);\nop c = conj_quandle(m=5);\nop k = core_quandle();\n"
    "op a = alexander_quandle(power=13);\ncheck rack_left c;\ncheck quandle_right a;\n"
    "check distrib_left k;\n",
    "carrier vectors(2,2) x gl(2,2);\nop p = vxg_phi_op(power=7);\nop q = vxg_conj_op(n=2);\n"
    "check rack_left p;\ncheck rack_left q;\n",
], ids=["symmetric", "pairs"])
def test_constructions_and_checks_never_step_element_orders(text):
    # inverses are x^(n-1) and powers are reduced mod n, so only element_order
    # and group_exponent read the element orders
    compiled = compile_spec(parse_spec(SpecSource(text)))
    for decl in compiled.checks:
        run_check(compiled, decl)
    carrier = compiled.carrier
    for group in (carrier, carrier.group):
        assert group is None or "orders" not in vars(group)
