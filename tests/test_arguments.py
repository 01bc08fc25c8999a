"""The library's argument boundary: one integer rule, and domain errors for bad values.

A value is an integer when `errors.as_integer` reads it (operator.index):
bools and numpy integers pass, floats, numpy floats and strings are refused
with NotAnIntegerError, a WorkbenchError that is also a TypeError. An
unknown choice, an empty input or an argument out of its range raises
ChoiceError, a WorkbenchError that is also a ValueError. The property at the
end calls every public callable with such values: each call returns or
raises a WorkbenchError.
"""

import os
import re
from inspect import isfunction, signature
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import multigroup
from multigroup import optables
from multigroup.axioms import (
    check_divisibility,
    check_nvalued_associativity,
    check_rack_quandle,
    check_self_distributivity,
    nvalued_product,
)
from multigroup.carriers import (
    KINDS,
    cyclic_group,
    direct_product,
    gl_group,
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
    ZParityWindow,
    brace_ops,
    conj_quandle,
    core_quandle,
    default_vector_action,
    parity_circ,
    z_parity_window,
)
from multigroup.dsl import SpecSource, compile_spec, parse_spec
from multigroup.errors import (
    ChoiceError,
    NoUnitError,
    NotAnElementError,
    NotAnIntegerError,
    UnsupportedCarrierError,
    WorkbenchError,
)
from multigroup.field import PrimeField
from multigroup.matrix import Matrix
from multigroup.optables import AxiomReport, Multiset, OpTable, build_op_table

F2, F3 = PrimeField(2), PrimeField(3)

# each call, and the parameter and value it must name
NOT_INTEGERS = [
    (lambda: cyclic_group(2.5), "order 2.5"),
    (lambda: symmetric_group(2.0), "degree 2.0"),
    (lambda: integer_window(0.5, 2), "window bound 0.5"),
    (lambda: integer_window(0, "2"), "window bound '2'"),
    (lambda: pair_carrier(2.0, 2, gl_group(2, 2)), "dimension 2.0"),
    (lambda: pair_carrier(2, np.float64(2.0), gl_group(2, 2)), "modulus np.float64(2.0)"),
    (lambda: gl_group(2, 3.0), "modulus 3.0"),
    (lambda: gl_group(None, 3), "dimension None"),
    (lambda: matrix_set(1.0, 2), "dimension 1.0"),
    (lambda: matrix_subgroup([((1,),)], 1.5, 2), "dimension 1.5"),
    (lambda: matrix_subgroup([((1,),)], 1, 2.0), "modulus 2.0"),
    (lambda: Matrix.identity(2.0, F2), "dimension 2.0"),
    (lambda: Matrix.zero("2", F2), "dimension '2'"),
    (lambda: PrimeField(2.0), "modulus 2.0"),
    (lambda: group_power(cyclic_group(5), 1, 1.5), "exponent 1.5"),
    (lambda: z_parity_window(0.5, 3), "window bound 0.5"),
    (lambda: ZParityWindow(0, np.float64(3)), "window bound np.float64(3.0)"),
    (lambda: z_parity_window(0, 3).plus(0.5, 1), "argument 0.5"),
    (lambda: z_parity_window(0, 3).circ(1, "1"), "argument '1'"),
    (lambda: z_parity_window(0, 3).contains(None), "argument None"),
    (lambda: parity_circ(1, 2.0), "argument 2.0"),
    (lambda: Multiset.from_indices([1.5]), "multiset index 1.5"),
    (lambda: Multiset.from_entries([(1, 0.5)]), "multiplicity 0.5"),
]


@pytest.mark.parametrize("call, named", NOT_INTEGERS, ids=[n for _, n in NOT_INTEGERS])
def test_parameters_that_are_not_integers_raise_the_readers_error(call, named):
    with pytest.raises(NotAnIntegerError) as got:
        call()
    assert str(got.value) == f"{named} is not an integer"
    assert isinstance(got.value, WorkbenchError) and isinstance(got.value, TypeError)


def test_bools_and_numpy_integers_are_read_as_the_integers_they_are():
    one, four, two = True, np.int64(4), np.int32(2)
    assert cyclic_group(four).elements == cyclic_group(4).elements
    assert symmetric_group(np.int8(3)).elements == symmetric_group(3).elements
    assert gl_group(one, np.int64(3)).elements == gl_group(1, 3).elements
    assert matrix_set(two, two).elements == matrix_set(2, 2).elements
    assert integer_window(False, two).elements == (0, 1, 2)
    assert pair_carrier(two, two, gl_group(2, 2)).elements == pair_carrier(2, 2, gl_group(2, 2)).elements
    assert PrimeField(np.int64(5)) == PrimeField(5) and type(PrimeField(np.int64(5)).p) is int
    assert Matrix.identity(two, F3) == Matrix.identity(2, F3)
    assert group_power(cyclic_group(5), 1, np.int64(3)) == 3 == group_power(cyclic_group(5), 3, one)
    assert z_parity_window(np.int64(-1), two).circ(one, np.int64(2)) == -1
    assert Multiset.from_indices(np.array([1, 1, 0])) == Multiset(((0, 1), (1, 2)))


def test_carriers_without_a_unit_say_so():
    for carrier in (integer_window(0, 3), pair_carrier(1, 2, gl_group(1, 2))):
        with pytest.raises(NoUnitError) as got:
            carrier.identity_index
        assert str(got.value) == f"{carrier.label} has no unit"


z3 = cyclic_group(3)
Z3 = OpTable(z3, z3.cayley)
CHOICES = [
    (lambda: check_divisibility(Z3, "up"), "side must be 'left' or 'right', got 'up'"),
    (lambda: check_self_distributivity(Z3, None), "side must be 'left' or 'right', got None"),
    (lambda: check_rack_quandle(Z3, "LEFT", False), "side must be 'left' or 'right', got 'LEFT'"),
    (lambda: brace_ops(symmetric_group(3), "x"), "unknown brace variant 'x'"),
    (lambda: check_nvalued_associativity([]), "need at least one operation"),
    (lambda: nvalued_product([]), "need at least one operation"),
    (lambda: z_parity_window(3, 1), "empty window (3, 1)"),
    (lambda: z_parity_window(0, 3).plus(4, 1), "4 is outside the window [0, 3]"),
    (lambda: z_parity_window(0, 3).dashv(1, -1), "-1 is outside the window [0, 3]"),
    (lambda: Multiset(((0, 1),)).scaled(-1), "multiplicities must be non-negative"),
]


@pytest.mark.parametrize("call, message", CHOICES, ids=[m for _, m in CHOICES])
def test_bad_choices_and_empty_inputs_raise_a_domain_error_that_is_a_value_error(call, message):
    with pytest.raises(ChoiceError) as got:
        call()
    assert str(got.value) == message
    assert isinstance(got.value, WorkbenchError) and isinstance(got.value, ValueError)


# Python refuses to convert an int of more than 4300 digits to decimal text;
# every label and message names such an integer by its digit count instead
H = 10**5000
TOO_LONG = "<5001-digit integer>"
GUARD = "needs more than 2^64 candidates, above the guard of 1000000"
PAST_THE_TEXT_LIMIT = [
    (lambda: cyclic_group(H), f"cyclic({TOO_LONG}) {GUARD}"),
    (lambda: integer_window(0, H), f"window(0,{TOO_LONG}) {GUARD}"),
    (lambda: integer_window(-H, 0), f"window(-{TOO_LONG},0) {GUARD}"),
    (lambda: gl_group(1, H), f"enumerating 1x1 matrices mod {TOO_LONG} {GUARD}"),
    (lambda: gl_group(H, 2), f"enumerating {TOO_LONG}x{TOO_LONG} matrices mod 2 {GUARD}"),
    (lambda: matrix_set(2, -H), f"enumerating 2x2 matrices mod -{TOO_LONG} {GUARD}"),
    (lambda: PrimeField(-H), f"modulus -{TOO_LONG} is not prime"),
    (lambda: ZParityWindow(H, 0), f"empty window ({TOO_LONG}, 0)"),
    (lambda: ZParityWindow(0, 3).plus(H, 1), f"{TOO_LONG} is outside the window [0, 3]"),
    (lambda: cyclic_group(3).index_of(H), f"{TOO_LONG} is not an element of cyclic(3)"),
    # H = 0 mod 5, so x -> x^H sends every element to 0
    (lambda: make_automorphism(cyclic_group(5), ("power", H)),
     f"power({TOO_LONG}) is not a bijection on cyclic(5)"),
]


@pytest.mark.parametrize("call, message", PAST_THE_TEXT_LIMIT, ids=[m for _, m in PAST_THE_TEXT_LIMIT])
def test_integers_past_the_text_limit_are_named_by_their_digit_count(call, message):
    with pytest.raises(WorkbenchError) as got:
        with mock.patch.dict(os.environ, {"MULTIGROUP_GUARD": "1000000"}):
            call()
    assert str(got.value) == message


# a non-element that is a tuple is written item by item, each huge int by its digit count
TUPLES_PAST_THE_TEXT_LIMIT = [
    (lambda: cyclic_group(3).index_of((H,)), NotAnElementError,
     f"({TOO_LONG},) is not an element of cyclic(3)"),
    (lambda: make_automorphism(symmetric_group(3), ("inner", (H, 0, 1))), UnsupportedCarrierError,
     f"inner(({TOO_LONG}, 0, 1)): element not in symmetric(3)"),
]


@pytest.mark.parametrize("call, error, message", TUPLES_PAST_THE_TEXT_LIMIT,
                         ids=[m for _, _, m in TUPLES_PAST_THE_TEXT_LIMIT])
def test_tuples_holding_integers_past_the_text_limit_name_them_by_their_digit_count(
        call, error, message):
    with pytest.raises(WorkbenchError) as got:
        call()
    assert type(got.value) is error
    assert str(got.value) == message


def test_exponents_past_the_text_limit_are_reduced_and_labelled():
    from multigroup.errors import integer_text

    z5 = cyclic_group(5)
    assert conj_quandle(z5, H).label == f"conj_quandle(m={TOO_LONG})"
    assert np.array_equal(conj_quandle(z5, H).table, conj_quandle(z5, 0).table)
    phi = make_automorphism(z5, ("power", H + 2))  # H + 2 = 2 mod 5
    assert (phi.label, phi.images) == (f"power({TOO_LONG})", (0, 2, 4, 1, 3))
    assert [integer_text(v) for v in (10**4300 - 1, 10**4300, -(10**4300 + 1))] == \
        [str(10**4300 - 1), "<4301-digit integer>", "-<4301-digit integer>"]
    assert integer_text(((H, "a"), (), -H), repr) == f"(({TOO_LONG}, 'a'), (), -{TOO_LONG})"


def test_no_module_but_errors_states_the_integer_rule():
    # the rule is written once, in errors.py; every other module reads integers by as_integer
    src = Path(multigroup.__file__).parent
    spelled = {path.name for path in src.glob("*.py")
               if re.search(r"operator\.index|__index__|numbers\.Integral", path.read_text())}
    assert spelled == {"errors.py"}


# --- every public callable against bad values ---------------------------------

# Integers far out of any range, and values the integer rule refuses. bool and
# numpy integers are integers; huge ones test the guards and the prime test,
# and those past 4300 digits every label and message that formats them.
HUGE = st.sampled_from([10**30, -(10**30), 2**64, 2**61 - 1, 318_665_857_834_031_151_167_461,
                        10**5000, -(10**5000)])
BAD = st.one_of(
    st.floats(), st.floats().map(np.float64), st.text(max_size=3), st.booleans(), st.none(),
    st.integers(-(2**70), -1), HUGE,
)


def ints(*valid):
    """valid integers, plain or numpy, mixed with BAD."""
    good = st.sampled_from(valid)
    return st.one_of(good, good.map(np.int64), BAD)


def choices(*valid):
    return st.one_of(st.sampled_from(valid), BAD)


# jobs stays small here: a huge count is tested below, on a patched CPU count
JOBS = st.one_of(st.integers(-2, 3), st.floats(), st.floats().map(np.float64), st.text(max_size=2),
                 st.booleans(), st.none())
LABELS = st.one_of(st.none(), st.text(max_size=4))


# tiny carriers of every kind, so that no draw builds much
z2, z4, s3 = cyclic_group(2), cyclic_group(4), symmetric_group(3)
gl22, window = gl_group(2, 2), integer_window(0, 2)
CARRIERS = [cyclic_group(1), z2, z3, z4, s3, gl_group(1, 3), gl22, matrix_set(1, 3), window,
            pair_carrier(1, 3, gl_group(1, 3)), pair_carrier(2, 2, gl22), direct_product(z2, z2),
            direct_product(z2, z3)]
GROUPS = [c for c in CARRIERS if c.is_group]
CARRIER = st.sampled_from(CARRIERS)
ELEMENTS = st.one_of(st.sampled_from([e for c in CARRIERS for e in c.elements]), BAD)

S3, CONJ = OpTable(s3, s3.cayley), conj_quandle(s3, 2)
DASHV, VDASH = multigroup.pair_dimonoid(z2)
DOT, CIRC = multigroup.brace_opposite(s3)
OPS = st.sampled_from([Z3, S3, CONJ, core_quandle(z4), OpTable(gl22, gl22.cayley),
                       build_op_table(window, max), DASHV, VDASH, DOT, CIRC])
PHIS = st.sampled_from([make_automorphism(g, "identity") for g in GROUPS]
                       + [make_automorphism(s3, ("inner", (1, 0, 2)))])
FIELDS = st.sampled_from([F2, F3, PrimeField(5)])
ROWS = st.lists(st.lists(ints(0, 1, 2, -1), min_size=1, max_size=3).map(tuple), max_size=3).map(tuple)
MATRIX_LIST = [Matrix.identity(2, F2), Matrix.zero(2, F2), Matrix(F2, ((0, 1), (1, 0))),
               Matrix.identity(1, F3), Matrix(F3, ((2, 1), (1, 1)))]
MATRICES = st.sampled_from(MATRIX_LIST)
RULES = st.one_of(
    st.sampled_from(["identity", "inverse", 5]),
    st.tuples(st.just("inner"), ELEMENTS), st.tuples(st.just("power"), ints(0, 1, 2, -1)),
    st.lists(ints(0, 1, 2, 3), max_size=6),
)
SPECS = st.one_of(st.sampled_from([
    "carrier symmetric(3);\nop q = conj_quandle(m=1);\ncheck quandle_right q;\n",
    "carrier cyclic(4);\nop c = core_quandle();\ncheck rack_left c;\ncheck assoc c;\n",
    "carrier gl(2,2);\nop g = gl_group_op(m=[[1,1],[1,1]]);\ncheck assoc g;\n",
    "carrier cyclic(9999999999999999999999);\n", "op q = core_quandle();\n", "carrier cyclic(3",
]), st.text(max_size=12))
DRAFTS = SPECS.map(parse_spec)
COMPILED = [compile_spec(parse_spec(text)) for text in (
    "carrier symmetric(3);\nop q = conj_quandle(m=1);\ncheck quandle_right q;\ncheck assoc q;\n",
    "carrier cyclic(2);\nop dot = z_parity_brace(part=plus);\nop circ = z_parity_brace(part=circ);\n"
    "check skew_brace dot circ;\ncheck skew_brace circ dot;\n",
)]
ACTIONS = st.sampled_from([None, lambda g, x: x, lambda g, x: 0.5, lambda g, x: None,
                           *(default_vector_action(c) for c in CARRIERS if c.group is not None)])
OP_RULES = st.sampled_from([max, lambda x, y: x, lambda x, y: 1.5, lambda x, y: "a", lambda x, y: None])
GRIDS = st.sampled_from([c.cayley for c in GROUPS[:4]] + [np.zeros((3, 2), dtype=np.int16)])

args = st.fixed_dictionaries

# every public callable, with a strategy for each parameter it is given
CALLS = {
    # axioms
    "check_associativity": args({"op": OPS, "jobs": JOBS}),
    "check_dimonoid": args({"dashv": OPS, "vdash": OPS, "jobs": JOBS}),
    "check_divisibility": args({"op": OPS, "side": choices("left", "right"), "unique": st.booleans()}),
    "check_group": args({"op": OPS, "jobs": JOBS}),
    "check_idempotency": args({"op": OPS}),
    "check_interchange": args({"op_i": OPS, "op_j": OPS, "jobs": JOBS}),
    "check_multiquandle_pair": args({"op_i": OPS, "op_j": OPS, "jobs": JOBS}),
    "check_nvalued_associativity": args({"ops": st.lists(OPS, max_size=3), "jobs": JOBS}),
    "check_rack_quandle": args({"op": OPS, "side": choices("left", "right"),
                                "require_idempotent": st.booleans(), "jobs": JOBS}),
    "check_self_distributivity": args({"op": OPS, "side": choices("left", "right"), "jobs": JOBS}),
    "check_skew_brace": args({"dot": OPS, "circ": OPS, "jobs": JOBS}),
    "find_bar_units": args({"dashv": OPS, "vdash": OPS}),
    "find_inverses": args({"op": OPS, "unit": ELEMENTS}),
    "find_units": args({"op": OPS}),
    "nvalued_product": args({"ops": st.lists(OPS, max_size=3)}),
    "op_product": args({"op_i": OPS, "op_j": OPS, "label": LABELS}),
    # carriers
    "Carrier": args({"kind": choices(*KINDS), "elements": st.just((0, 1)), "label": st.text(max_size=3)}),
    "GroupAutomorphism": args({"carrier": CARRIER, "images": st.lists(ints(0, 1)).map(tuple),
                               "label": st.text(max_size=3)}),
    "cyclic_group": args({"n": ints(1, 2, 6, 64, 65, 0)}),
    "direct_product": args({"a": CARRIER, "b": CARRIER}),
    "gl_group": args({"n": ints(1, 2, 3), "p": ints(2, 3, 4, 0)}),
    "group_carrier": args({"spec": SPECS}),
    "integer_window": args({"lo": ints(-3, 0, 2), "hi": ints(-3, 0, 2, 70)}),
    "make_automorphism": args({"group": CARRIER, "rule": RULES}),
    "matrix_set": args({"n": ints(1, 2, 3), "p": ints(2, 3, 4, 0)}),
    "matrix_subgroup": args({"rows_list": st.lists(ROWS, max_size=3), "n": ints(1, 2, 0),
                             "p": ints(2, 3, 4), "label": LABELS}),
    "pair_carrier": args({"vdim": ints(1, 2), "p": ints(2, 3), "group": CARRIER}),
    "symmetric_group": args({"n": ints(1, 3, 5, 6, 0)}),
    # constructions
    "MatrixOpParams": args({"s": ints(0, 1, -1), "t": ints(0, 1, 5), "m1": MATRICES, "m2": MATRICES}),
    "ZParityWindow": args({"lo": ints(-2, 0, 3), "hi": ints(-2, 0, 3)}),
    "action_dimonoid": args({"pairs": CARRIER, "action": ACTIONS}),
    "alexander_quandle": args({"group": CARRIER, "phi": PHIS, "label": LABELS}),
    "brace_opposite": args({"group": CARRIER}),
    "brace_ops": args({"group": CARRIER, "variant": choices("trivial", "opposite")}),
    "brace_trivial": args({"group": CARRIER}),
    "conj_quandle": args({"group": CARRIER, "m": ints(0, 1, -1, 2), "label": LABELS}),
    "core_quandle": args({"group": CARRIER, "label": LABELS}),
    "default_vector_action": args({"pairs": CARRIER}),
    "gl_group_op": args({"m": MATRICES, "carrier": CARRIER, "label": LABELS}),
    "matrix_op": args({"params": st.sampled_from([MatrixOpParams(1, 1, m, Matrix.identity(m.n, m.field))
                                                  for m in MATRIX_LIST]),
                       "carrier": CARRIER, "label": LABELS}),
    "opposite_op": args({"op": OPS, "label": LABELS}),
    "pair_dimonoid": args({"monoid": CARRIER}),
    "pair_dimonoid_on": args({"product": CARRIER}),
    "parity_circ": args({"a": ints(0, 1, -3), "b": ints(0, 2)}),
    "vxg_conj_op": args({"pairs": CARRIER, "n": ints(0, 1, -1), "label": LABELS}),
    "vxg_phi_op": args({"pairs": CARRIER, "phi": PHIS, "label": LABELS}),
    "z_parity_brace": args({"carrier": CARRIER}),
    "z_parity_window": args({"lo": ints(-2, 0, 3), "hi": ints(-2, 0, 3)}),
    # dsl
    "CompiledSpec": args({"source": st.builds(SpecSource, st.text(max_size=3)), "carrier": CARRIER,
                          "ops": st.just({}), "checks": st.just(())}),
    "SpecSource": args({"text": st.text(max_size=8), "origin": st.text(max_size=3)}),
    "compile_spec": args({"draft": DRAFTS}),
    "format_spec": args({"draft": DRAFTS}),
    "parse_spec": args({"source": st.one_of(SPECS, SPECS.map(SpecSource))}),
    "run_check": st.sampled_from(COMPILED).flatmap(lambda compiled: args({
        "compiled": st.just(compiled), "check": st.sampled_from(compiled.checks), "jobs": JOBS})),
    # errors, field, matrix, optables
    "WorkbenchError": args({}),
    "PrimeField": args({"p": ints(2, 3, 4, 1, 0, -7, 3215031751)}),
    "Matrix": args({"field": FIELDS, "rows": ROWS}),
    "mat_add_scaled": args({"s": ints(0, 1, -2), "a": MATRICES, "t": ints(0, 1), "b": MATRICES}),
    "mat_det": args({"a": MATRICES}),
    "mat_inv": args({"a": MATRICES}),
    "mat_mul": args({"a": MATRICES, "b": MATRICES}),
    "mat_pow": args({"a": MATRICES, "k": ints(0, 1, -1, 5)}),
    "AxiomReport": args({"axiom": st.text(max_size=3), "verdict": st.sampled_from(["pass", "fail"]),
                         "witness": st.none(), "checked": ints(0, 27), "reason": LABELS}),
    "Multiset": args({"entries": st.just(((0, 1),))}),
    "OpTable": args({"carrier": CARRIER, "table": GRIDS, "label": st.text(max_size=3)}),
    "build_op_table": args({"carrier": CARRIER, "rule": OP_RULES, "label": st.text(max_size=3)}),
}


def test_every_public_callable_has_an_entry_in_the_table():
    public = {name for name in multigroup.__all__ if callable(getattr(multigroup, name))}
    assert set(CALLS) == public


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_public_callables_return_or_raise_a_workbench_error(name, data):
    kwargs = data.draw(CALLS[name], label="arguments")
    with mock.patch.dict(os.environ, {"MULTIGROUP_GUARD": "64"}):
        try:
            getattr(multigroup, name)(**kwargs)
        except WorkbenchError:
            pass


# each public callable that takes jobs, on tables whose scans run many chunks
JOBS_CALLS = {
    "check_associativity": lambda jobs: multigroup.check_associativity(CONJ, jobs),
    "check_dimonoid": lambda jobs: multigroup.check_dimonoid(DASHV, VDASH, jobs),
    "check_group": lambda jobs: multigroup.check_group(S3, jobs),
    "check_interchange": lambda jobs: multigroup.check_interchange(CONJ, S3, jobs),
    "check_multiquandle_pair": lambda jobs: multigroup.check_multiquandle_pair(CONJ, S3, jobs),
    "check_nvalued_associativity": lambda jobs: multigroup.check_nvalued_associativity([S3, CONJ], jobs),
    "check_rack_quandle": lambda jobs: multigroup.check_rack_quandle(CONJ, "right", True, jobs),
    "check_self_distributivity": lambda jobs: multigroup.check_self_distributivity(CONJ, "left", jobs),
    "check_skew_brace": lambda jobs: multigroup.check_skew_brace(DOT, CIRC, jobs),
    "run_check": lambda jobs: multigroup.run_check(COMPILED[0], COMPILED[0].checks[1], jobs),
}


def test_every_public_callable_that_takes_jobs_has_a_huge_jobs_call():
    functions = [getattr(multigroup, name) for name in CALLS if isfunction(getattr(multigroup, name))]
    assert set(JOBS_CALLS) == {f.__name__ for f in functions if "jobs" in signature(f).parameters}


@pytest.mark.parametrize("name", sorted(JOBS_CALLS))
def test_a_huge_jobs_is_capped_at_the_cpu_count(monkeypatch, name):
    # the CPU count is patched to two, so however many CPUs run the test, one
    # helper thread at most starts, and the reports never depend on jobs
    monkeypatch.setattr(optables.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(optables, "CHUNK_CELLS", 4)
    assert JOBS_CALLS[name](10**30) == JOBS_CALLS[name](1)
