import itertools

import numpy as np
import pytest

from multigroup import constructions
from multigroup.axioms import (
    LEFT,
    RIGHT,
    check_dimonoid,
    check_idempotency,
    check_rack_quandle,
    check_self_distributivity,
    check_skew_brace,
    find_bar_units,
    find_units,
)
from multigroup.carriers import (
    cyclic_group,
    direct_product,
    gl_group,
    group_carrier,
    integer_window,
    make_automorphism,
    matrix_set,
    pair_carrier,
    symmetric_group,
)
from multigroup.constructions import (
    MatrixOpParams,
    ZParityWindow,
    action_dimonoid,
    alexander_quandle,
    brace_ops,
    conj_quandle,
    core_quandle,
    default_vector_action,
    gl_group_op,
    matrix_op,
    opposite_op,
    pair_dimonoid,
    pair_dimonoid_on,
    vxg_conj_op,
    vxg_phi_op,
    z_parity_brace,
    z_parity_window,
)
from multigroup.dsl import CONSTRUCTIONS, parse_spec
from multigroup.errors import (
    CarrierMismatchError,
    DimensionMismatchError,
    ModulusMismatchError,
    NotAnActionError,
    NotAnIntegerError,
    NoUnitError,
    OddModulusError,
    SingularMatrixError,
    UnsupportedCarrierError,
    WorkbenchError,
)
from multigroup.field import PrimeField
from multigroup.matrix import Matrix, mat_add_scaled, mat_det

F2 = PrimeField(2)
F3 = PrimeField(3)
I2 = Matrix.identity(2, F3)


def test_matrix_op_matches_scalar_rule():
    carrier = matrix_set(2, 3)
    m1 = Matrix.from_rows(((1, 1), (0, 1)), F3)
    m2 = Matrix.from_rows(((2, 0), (1, 1)), F3)
    op = matrix_op(MatrixOpParams(1, 2, m1, m2), carrier)
    for a_rows in carrier.elements[:9]:
        for b_rows in carrier.elements[:9]:
            a, b = Matrix(F3, a_rows), Matrix(F3, b_rows)
            want = mat_add_scaled(1, a * m1 * b, 2, a * m2 * b).rows
            assert op.apply(a_rows, b_rows) == want


def test_matrix_op_collapses_to_single_constant():
    carrier = matrix_set(2, 2)
    m1 = Matrix.from_rows(((1, 1), (0, 1)), F2)
    m2 = Matrix.from_rows(((0, 1), (1, 0)), F2)
    for s, t in itertools.product(range(2), repeat=2):
        op = matrix_op(MatrixOpParams(s, t, m1, m2), carrier)
        collapsed = mat_add_scaled(s, m1, t, m2)
        direct = matrix_op(MatrixOpParams(1, 0, collapsed, collapsed), carrier)
        assert np.array_equal(op.table, direct.table)


def test_gl_group_op_translation_isomorphism():
    glc = gl_group(2, 2)
    m = Matrix.from_rows(((1, 1), (0, 1)), F2)
    op = gl_group_op(m, glc)
    # phi(A) = M*A turns the twisted product into the plain one
    for a_rows in glc.elements:
        for b_rows in glc.elements:
            a, b = Matrix(F2, a_rows), Matrix(F2, b_rows)
            twisted = op.apply(a_rows, b_rows)
            assert (m * Matrix(F2, twisted)).rows == ((m * a) * (m * b)).rows


def test_gl_group_op_rejects_singular_constant():
    glc = gl_group(2, 3)
    singular = Matrix.from_rows(((1, 2), (2, 4)), F3)
    assert mat_det(singular) == 0
    with pytest.raises(SingularMatrixError):
        gl_group_op(singular, glc)


def test_matrix_op_params_validation():
    m2 = Matrix.from_rows(((1, 0), (0, 1)), F2)
    m3 = Matrix.from_rows(((1, 0), (0, 1)), F3)
    with pytest.raises(ModulusMismatchError):
        MatrixOpParams(1, 1, m2, m3)
    big = Matrix.identity(3, F2)
    with pytest.raises(DimensionMismatchError):
        MatrixOpParams(1, 1, m2, big)
    params = MatrixOpParams(5, -1, m3, m3)
    assert (params.s, params.t) == (2, 2)


def test_matrix_op_needs_matrix_carrier():
    m = Matrix.identity(2, F2)
    with pytest.raises(UnsupportedCarrierError):
        matrix_op(MatrixOpParams(1, 0, m, m), cyclic_group(4))
    glc3 = gl_group(2, 3)
    with pytest.raises(ModulusMismatchError):
        gl_group_op(m, glc3)


def test_conj_quandle_frozen_value():
    s3 = symmetric_group(3)
    op = conj_quandle(s3)
    assert op.apply((1, 0, 2), (2, 1, 0)) == (0, 2, 1)
    assert check_rack_quandle(op, RIGHT, require_idempotent=True).passed
    squared = conj_quandle(s3, 2)
    y = (1, 2, 0)
    y2 = s3.mul(y, y)
    want = s3.mul(s3.mul(s3.inv(y2), (1, 0, 2)), y2)
    assert squared.apply((1, 0, 2), y) == want


def test_core_quandle_values_and_laws():
    z4 = cyclic_group(4)
    op = core_quandle(z4)
    assert op.apply(1, 2) == 3
    assert check_idempotency(op).passed
    assert check_self_distributivity(op, RIGHT).passed
    s3 = symmetric_group(3)
    core = core_quandle(s3)
    x, y = (1, 2, 0), (1, 0, 2)
    assert core.apply(x, y) == s3.mul(s3.mul(y, s3.inv(x)), y)


def test_alexander_quandle_frozen_value():
    z5 = cyclic_group(5)
    phi = make_automorphism(z5, ("power", 2))
    op = alexander_quandle(z5, phi)
    assert op.apply(1, 3) == 4
    assert check_rack_quandle(op, RIGHT, require_idempotent=True).passed


def test_quandle_constructions_need_groups():
    ms = matrix_set(2, 2)
    for build in (conj_quandle, core_quandle):
        with pytest.raises(UnsupportedCarrierError):
            build(ms)


def test_vxg_phi_op_values():
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    phi = make_automorphism(pairs.group, "identity")
    op = vxg_phi_op(pairs, phi)
    a = ((0, 1), ((1, 1), (0, 1)))
    b = ((1, 0), ((0, 1), (1, 0)))
    # (a,A)*(b,B) = (A b, phi(A B^-1) B)
    amat = Matrix(F2, a[1])
    bmat = Matrix(F2, b[1])
    want_vec = amat.apply(b[0])
    want_mat = ((amat * bmat.inv()) * bmat).rows
    assert op.apply(a, b) == (want_vec, want_mat)


def test_vxg_phi_op_idempotent_iff_vectors_fixed():
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    phi = make_automorphism(pairs.group, "identity")
    op = vxg_phi_op(pairs, phi)
    for (v, rows) in pairs.elements:
        fixed = Matrix(F2, rows).apply(v) == v
        assert (op.apply((v, rows), (v, rows)) == (v, rows)) == fixed


def test_vxg_conj_op_values_and_laws():
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    for n in (-1, 0, 1, 2):
        op = vxg_conj_op(pairs, n)
        a = ((0, 1), ((1, 1), (0, 1)))
        b = ((1, 1), ((0, 1), (1, 0)))
        an = Matrix(F2, a[1])
        if n == 0:
            assert op.apply(a, b) == (b[0], b[1])
        if n == 1:
            want = (an.apply(b[0]), (an * Matrix(F2, b[1]) * an.inv()).rows)
            assert op.apply(a, b) == want
        assert check_rack_quandle(op, LEFT, require_idempotent=False).passed
        idem = check_idempotency(op)
        if n == 0:
            assert idem.passed
        else:
            assert not idem.passed


def test_opposite_is_transpose():
    op = core_quandle(cyclic_group(5))
    opp = opposite_op(op)
    assert np.array_equal(opp.table, op.table.T)
    assert check_rack_quandle(opp, LEFT, require_idempotent=True).passed


def test_pair_dimonoid_frozen_values():
    z4 = cyclic_group(4)
    dashv, vdash = pair_dimonoid(z4)
    assert dashv.apply((1, 2), (3, 0)) == (1, 1)
    assert vdash.apply((1, 2), (3, 0)) == (2, 0)
    assert check_dimonoid(dashv, vdash).passed
    assert find_bar_units(dashv, vdash) == [(0, 0), (1, 3), (2, 2), (3, 1)]


def test_pair_dimonoid_noncommutative_monoid():
    s3 = symmetric_group(3)
    dashv, vdash = pair_dimonoid(s3)
    assert check_dimonoid(dashv, vdash).passed
    bar = find_bar_units(dashv, vdash)
    assert bar == [(g, s3.inv(g)) for g in s3.elements]


def test_pair_dimonoid_on_validation():
    mixed = direct_product(cyclic_group(2), cyclic_group(3))
    with pytest.raises(UnsupportedCarrierError):
        pair_dimonoid_on(mixed)
    with pytest.raises(UnsupportedCarrierError):
        pair_dimonoid_on(cyclic_group(4))
    with pytest.raises(NoUnitError):
        pair_dimonoid(integer_window(0, 3))


def test_action_dimonoid_default_action():
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    dashv, vdash = action_dimonoid(pairs)
    a = ((0, 1), ((1, 1), (0, 1)))
    b = ((1, 0), ((0, 1), (1, 0)))
    prod = (Matrix(F2, a[1]) * Matrix(F2, b[1])).rows
    assert dashv.apply(a, b) == ((0, 1), prod)
    assert vdash.apply(a, b) == (Matrix(F2, a[1]).apply(b[0]), prod)
    assert check_dimonoid(dashv, vdash).passed


def test_action_dimonoid_default_action_is_not_scanned(monkeypatch):
    # the carrier's own action A.v is an action by construction; only a given
    # rule is verified, by a compatibility scan
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned")

    monkeypatch.setattr(constructions, "scan_chunks", no_scan)
    pairs = pair_carrier(2, 3, gl_group(2, 3))
    dashv, vdash = action_dimonoid(pairs)
    assert check_dimonoid(dashv, vdash).passed
    with pytest.raises(AssertionError, match="scanned"):
        action_dimonoid(pairs, action=lambda g, x: Matrix(pairs.field, g).apply(x))


def test_action_dimonoid_rejects_non_actions():
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    with pytest.raises(NotAnActionError):
        action_dimonoid(pairs, action=lambda g, x: (0, 0))
    p = 2

    def twice(g, x):
        m = Matrix(F2, g)
        return (m * m).apply(x)

    with pytest.raises(NotAnActionError):
        action_dimonoid(pairs, action=twice)


@pytest.mark.parametrize("image", [list, np.array], ids=["list", "ndarray"])
def test_action_dimonoid_refuses_an_unhashable_image_as_outside_the_vectors(image):
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    with pytest.raises(NotAnActionError) as got:
        action_dimonoid(pairs, action=lambda g, x: image(x))
    assert str(got.value) == "identity must act trivially, moves (0, 0)"
    e = pairs.group.identity
    for outside in (image, lambda x: (5, 5)):
        with pytest.raises(NotAnActionError) as got:
            action_dimonoid(pairs, action=lambda g, x: x if g == e else outside(x))
        assert str(got.value) == "g=((0, 1), (1, 0)) moves x=(0, 0) outside the vectors"


@pytest.mark.parametrize("build", [
    lambda: alexander_quandle(cyclic_group(5), make_automorphism(cyclic_group(7), "identity")),
    lambda: vxg_phi_op(pair_carrier(2, 2, gl_group(2, 2)), make_automorphism(cyclic_group(5), "identity")),
], ids=["alexander_quandle", "vxg_phi_op"])
def test_an_automorphism_of_another_group_is_refused(build):
    with pytest.raises(CarrierMismatchError) as got:
        build()
    assert str(got.value) == "automorphism is defined over a different group"


def test_brace_ops_variants():
    s3 = symmetric_group(3)
    dot, circ = brace_ops(s3, "trivial")
    assert np.array_equal(dot.table, circ.table)
    assert check_skew_brace(dot, circ).passed
    dot2, circ2 = brace_ops(s3, "opposite")
    assert np.array_equal(circ2.table, dot2.table.T)
    assert check_skew_brace(dot2, circ2).passed
    with pytest.raises(ValueError):
        brace_ops(s3, "mystery")
    with pytest.raises(UnsupportedCarrierError):
        brace_ops(matrix_set(2, 2), "trivial")


def test_parity_window_values():
    w = z_parity_window(-16, 16)
    assert w.circ(2, 3) == 5
    assert w.circ(3, 2) == 1
    assert w.plus(2, 3) == 5
    assert w.dashv(2, w.dashv(3, 4)) == 1
    assert w.dashv(2, w.vdash(3, 4)) == 9
    assert not w.contains(17)
    with pytest.raises(ValueError):
        w.circ(20, 0)
    with pytest.raises(ValueError):
        ZParityWindow(3, 1)


def test_parity_brace_tables_match_window():
    mod = cyclic_group(16)
    plus, circ = z_parity_brace(mod)
    for a in range(16):
        for b in range(16):
            assert plus.apply(a, b) == (a + b) % 16
            want = (a + b) % 16 if a % 2 == 0 else (a - b) % 16
            assert circ.apply(a, b) == want
    assert check_skew_brace(plus, circ).passed
    assert find_units(circ) == [0]


def test_parity_brace_rejects_bad_carriers():
    with pytest.raises(OddModulusError):
        z_parity_brace(cyclic_group(5))
    with pytest.raises(UnsupportedCarrierError):
        z_parity_brace(symmetric_group(3))


@pytest.mark.parametrize("spec", ["vectors(2,2) x gl(2,2)", "vectors(1,3) x gl(1,3)", "vectors(2,3) x gl(2,3)"])
def test_default_vector_action_gives_the_carriers_own_tables(spec):
    pairs = group_carrier(spec)
    given = action_dimonoid(pairs, default_vector_action(pairs))
    for table, want in zip(given, action_dimonoid(pairs)):
        assert np.array_equal(table.table, want.table)


_POWER_BUILDS = {
    "conj_quandle": lambda k: conj_quandle(symmetric_group(3), k),
    "vxg_conj_op": lambda k: vxg_conj_op(pair_carrier(2, 2, gl_group(2, 2)), k),
}


@pytest.mark.parametrize("k", [1.5, "2", np.float64(2.0)], ids=repr)
@pytest.mark.parametrize("ctor", sorted(_POWER_BUILDS))
def test_exponents_that_are_not_integers_are_refused(ctor, k):
    with pytest.raises(NotAnIntegerError) as got:
        _POWER_BUILDS[ctor](k)
    assert str(got.value) == f"exponent {k!r} is not an integer"


@pytest.mark.parametrize("ctor", sorted(_POWER_BUILDS))
def test_bool_and_numpy_integer_exponents_are_accepted(ctor):
    build = _POWER_BUILDS[ctor]
    assert np.array_equal(build(True).table, build(1).table)
    assert np.array_equal(build(np.int64(-2)).table, build(-2).table)


# One library call per construction; each checks its carrier before it looks
# at any other argument, so one matrix and one phi serve every carrier.
_M2 = Matrix.identity(2, F2)
_PHI = make_automorphism(cyclic_group(2), "identity")
_LIBRARY_BUILDS = {
    "matrix_op": lambda carrier: matrix_op(MatrixOpParams(1, 0, _M2, _M2), carrier),
    "gl_group_op": lambda carrier: gl_group_op(_M2, carrier),
    "conj_quandle": conj_quandle,
    "core_quandle": core_quandle,
    "alexander_quandle": lambda carrier: alexander_quandle(carrier, _PHI),
    "vxg_phi_op": lambda carrier: vxg_phi_op(carrier, _PHI),
    "vxg_conj_op": lambda carrier: vxg_conj_op(carrier, 1),
    "pair_dimonoid": pair_dimonoid_on,
    "action_dimonoid": action_dimonoid,
    "brace_trivial": lambda carrier: brace_ops(carrier, "trivial"),
    "brace_opposite": lambda carrier: brace_ops(carrier, "opposite"),
    "z_parity_brace": z_parity_brace,
}
_REFUSED = [
    (ctor, spec)
    for spec in ("cyclic(5)", "symmetric(3)", "matrices(2,2)", "cyclic(2) x cyclic(3)", "window(0,3)",
                 "vectors(2,2) x gl(2,2)")
    for ctor in sorted(_LIBRARY_BUILDS)
    if not CONSTRUCTIONS[ctor].need.holds(group_carrier(spec))
]


def test_every_construction_with_a_need_has_a_library_build():
    assert sorted(_LIBRARY_BUILDS) == sorted(n for n, c in CONSTRUCTIONS.items() if c.need is not None)


@pytest.mark.parametrize("ctor, spec", _REFUSED)
def test_library_refuses_a_carrier_with_the_specs_text(ctor, spec):
    draft = parse_spec(f"carrier {spec};\nop o = {ctor}();\ncheck assoc o;\n")
    [want] = [d.message for d in draft.errors if (d.line, d.column) == (2, 8)]
    expected = OddModulusError if (ctor, spec) == ("z_parity_brace", "cyclic(5)") else UnsupportedCarrierError
    with pytest.raises(expected) as got:
        _LIBRARY_BUILDS[ctor](group_carrier(spec))
    assert str(got.value) == want


# Each case is a constant the carrier refuses, as rows over the carrier's field.
_CONSTANT_BUILDS = {
    "gl_group_op": lambda m, carrier: gl_group_op(m, carrier),
    "matrix_op": lambda m, carrier: matrix_op(MatrixOpParams(1, 0, m, m), carrier),
}
_REFUSED_CONSTANTS = [
    ("gl_group_op", "gl(2,3)", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), DimensionMismatchError),
    ("matrix_op", "gl(2,3)", ((1, 0, 0), (0, 1, 0), (0, 0, 1)), DimensionMismatchError),
    ("gl_group_op", "matrices(2,2)", ((1, 1), (1, 1)), SingularMatrixError),
]


@pytest.mark.parametrize("ctor, spec, rows, error", _REFUSED_CONSTANTS,
                         ids=["gl_group_op-size", "matrix_op-size", "gl_group_op-singular"])
def test_library_refuses_a_matrix_constant_with_the_specs_text(ctor, spec, rows, error):
    literal = "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"
    args = f"m={literal}" if ctor == "gl_group_op" else f"s=1,t=0,m1={literal},m2={literal}"
    draft = parse_spec(f"carrier {spec};\nop o = {ctor}({args});\ncheck assoc o;\n")
    [want] = {d.message for d in draft.errors}
    carrier = group_carrier(spec)
    with pytest.raises(error) as got:
        _CONSTANT_BUILDS[ctor](Matrix.from_rows(rows, carrier.field), carrier)
    assert str(got.value) == want


@pytest.mark.parametrize("value", [1.5, "1", np.float64(2.0)], ids=repr)
def test_matrix_values_that_are_not_integers_are_refused(value):
    with pytest.raises(WorkbenchError) as got:
        Matrix.from_rows(((1, 0), (0, value)), F3)
    assert str(got.value) == f"matrix entry {value!r} is not an integer"
    for s, t in ((value, 0), (0, value)):
        with pytest.raises(WorkbenchError) as got:
            MatrixOpParams(s, t, I2, I2)
        assert str(got.value) == f"scalar {value!r} is not an integer"


def test_bool_and_numpy_integer_matrix_values_are_accepted():
    m = Matrix.from_rows(((True, 0), (0, np.int64(5))), F3)
    assert m.rows == ((1, 0), (0, 2)) and all(type(v) is int for row in m.rows for v in row)
    params = MatrixOpParams(np.int64(4), True, I2, I2)
    assert (params.s, params.t) == (1, 1)
    assert np.array_equal(matrix_op(params, matrix_set(2, 3)).table,
                          matrix_op(MatrixOpParams(1, 1, I2, I2), matrix_set(2, 3)).table)
