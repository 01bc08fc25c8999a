"""Scripted demonstrations over small fixed carriers.

Each claim id names one headline behaviour of the constructions: a family of
products that is associative, a claimed unit that does not exist, a pair of
group operations that fails the dimonoid axioms, and so on. `DEMOS` is the
one claim table: it maps each claim id to its title and its runner, and
`run_demo` wraps a runner's (verdict, details) into the claim's report.
Claims of one family share a runner: both rack claims run `_rack_demo`, both
brace claims `_brace_demo`, and the two twisted-matrix claims draw their
tables from `_twisted_ops`. Runners are deterministic: fixed seeds, fixed
carriers, no wall-clock dependence, so the JSON rendering of a run is
reproducible byte for byte.

Verdicts: PASS means the demonstrated behaviour held, FAIL means it did not,
REFUTED-AS-STATED means the exhaustive check disproved the claim in the form
the demo states it, with the refuting instance recorded in the details.
"""

import random

import numpy as np

from . import axioms
from .carriers import (
    cyclic_group,
    gl_group,
    make_automorphism,
    matrix_set,
    matrix_subgroup,
    pair_carrier,
    symmetric_group,
)
from .constructions import (
    MatrixOpParams,
    brace_ops,
    conj_quandle,
    core_quandle,
    alexander_quandle,
    gl_group_op,
    matrix_op,
    opposite_op,
    vxg_conj_op,
    vxg_phi_op,
    z_parity_brace,
    z_parity_window,
)
from .errors import UnknownClaimError, integer_text
from .field import PrimeField
from .matrix import Matrix, mat_add_scaled
from .optables import encode_element, first_true, inverse_indices, job_count, table_from_array

PASS = "PASS"
FAIL = "FAIL"
REFUTED = "REFUTED-AS-STATED"


def _verdict(ok: bool) -> str:
    return PASS if ok else FAIL


def _all_pass(key, reports):
    """PASS when every report passed, with one {key: value, report} detail each."""
    details = [{key: value, "report": report.to_json_dict()} for value, report in reports]
    return _verdict(all(report.passed for _, report in reports)), details


# --- matrix product family ----------------------------------------------------


def _twisted_ops(p, seed, randoms):
    """Yield (s, t, m1, m2, total, op) for the twisted products on matrices(2,p).

    (m1, m2) runs over the identity pair, then `randoms` pairs drawn from
    random.Random(seed), m1 before m2; (s, t) over every pair of scalars.
    A product depends only on the sum s*m1 + t*m2, whose rows are total, so
    the sweep builds one op per distinct total and hands it out again for
    every later pair with that sum (its label names the first pair): a check
    that keeps its verdict in the op's memo then decides the sum once. The
    ops live as long as the sweep, not the carrier.
    """
    carrier = matrix_set(2, p)
    fld = PrimeField(p)
    rng = random.Random(seed)

    def draw():
        return Matrix.from_rows(
            tuple(tuple(rng.randrange(p) for _ in range(2)) for _ in range(2)), fld)

    ident = Matrix.identity(2, fld)
    pairs = [(ident, ident)] + [(draw(), draw()) for _ in range(randoms)]
    ops = {}
    for m1, m2 in pairs:
        for s in range(p):
            for t in range(p):
                total = mat_add_scaled(s, m1, t, m2).rows
                if total not in ops:
                    ops[total] = matrix_op(MatrixOpParams(s, t, m1, m2), carrier)
                yield s, t, m1, m2, total, ops[total]


def _demo_s3_assoc(jobs):
    details = []
    verdict = PASS
    for p in (2, 3):
        tables = 0
        for s, t, m1, m2, _, op in _twisted_ops(p, 100 + p, 5):
            report = axioms.check_associativity(op, jobs=jobs)
            tables += 1
            if not report.passed:
                verdict = FAIL
                details.append({"modulus": p, "s": s, "t": t, "m1": encode_element(m1.rows),
                                "m2": encode_element(m2.rows), "report": report.to_json_dict()})
        details.append({"modulus": p, "carrier": op.carrier.label,
                        "tables_checked": tables, "all_associative": verdict == PASS})
    return verdict, details


def _demo_s3_multisemigroup(jobs):
    carrier = matrix_set(2, 2)
    fld = PrimeField(2)
    e = Matrix.identity(2, fld)
    x = Matrix.from_rows(((1, 1), (0, 1)), fld)
    y = Matrix.from_rows(((0, 1), (1, 0)), fld)
    params = [
        MatrixOpParams(1, 0, e, e),
        MatrixOpParams(0, 1, e, e),
        MatrixOpParams(1, 1, e, x),
        MatrixOpParams(1, 1, y, e),
        MatrixOpParams(1, 1, x, y),
    ]
    ops = [matrix_op(q, carrier, label=f"star{i}") for i, q in enumerate(params)]
    details = []
    for a in ops:
        for b in ops:
            report = axioms.check_interchange(a, b, jobs=jobs)
            if not report.passed:
                details.append({"pair": [a.label, b.label], "report": report.to_json_dict()})
    ok = not details
    details.append({"carrier": carrier.label, "operations": len(ops),
                    "ordered_pairs_checked": len(ops) ** 2, "all_interchange": ok})
    return _verdict(ok), details


def _demo_s3_unit(jobs):
    details = []
    for p in (2, 3):
        glc = gl_group(2, p)
        # one gather over the carrier: an inv call per op is a binary power each
        inverse = dict(zip(glc.elements, (glc.elements[i] for i in glc.inverse.tolist())))
        for s, t, _, _, total, op in _twisted_ops(p, 300 + p, 3):
            units = axioms.find_units(op)
            expected = [inverse[total]] if total in inverse else []
            if units != expected:
                details.append({"modulus": p, "s": s, "t": t,
                                "units": [encode_element(u) for u in units],
                                "expected": [encode_element(u) for u in expected]})
    formula_ok = not details
    details.append({"unit_formula": "inverse of s*m1 + t*m2 when that sum is invertible",
                    "formula_confirmed": formula_ok})

    # the doubled identity sum: not the plain product, yet it has a unit
    ident3 = Matrix.identity(2, PrimeField(3))
    doubled = matrix_op(MatrixOpParams(1, 1, ident3, ident3), matrix_set(2, 3))
    units = axioms.find_units(doubled)
    details.append({"claimed": "a twisted product has a unit only in the plain case",
                    "refuting_instance": {"modulus": 3, "s": 1, "t": 1,
                                          "m1": [[1, 0], [0, 1]],
                                          "m2": [[1, 0], [0, 1]],
                                          "unit": [encode_element(u) for u in units]}})
    return (REFUTED if formula_ok and units == [((2, 0), (0, 2))] else FAIL), details


def _demo_s3_group(jobs):
    details = []  # every failure detail names its "constant"

    def groups(glc, constants):
        """Yield (m, op) for each constant index m whose product is a group."""
        for m in constants:
            op = gl_group_op(Matrix.from_rows(glc[m], glc.field), glc)
            report = axioms.check_group(op, jobs=jobs)
            if report.passed:
                yield m, op
            else:
                details.append({"constant": encode_element(glc[m]),
                                "report": report.to_json_dict()})

    glc = gl_group(2, 2)
    for m, op in groups(glc, range(len(glc))):
        units = axioms.find_units(op)
        if units != [glc[glc.inverse[m]]]:
            details.append({"constant": encode_element(glc[m]),
                            "units": [encode_element(u) for u in units]})
    details.append({"carrier": glc.label, "constants_checked": len(glc)})

    glc3 = gl_group(2, 3)
    c, inverse = glc3.cayley, glc3.inverse
    sampled = sorted(random.Random(33).sample(range(len(glc3)), 10))
    for m, op in groups(glc3, sampled):
        minv = inverse[m]  # the unit; the inverse of a is minv a^-1 minv
        bad = first_true(inverse_indices(op.table, minv) != c[c[minv, inverse], minv])
        if bad is not None:
            details.append({"constant": encode_element(glc3[m]),
                            "element": encode_element(glc3[bad[0]])})
    ok = not any("constant" in detail for detail in details)
    details.append({"carrier": glc3.label, "constants_sampled": len(sampled),
                    "inverse_formula": "minv * ainv * minv", "all_groups": ok})
    return _verdict(ok), details


# --- pair carriers over a matrix group ----------------------------------------


def _identity_twist(group=None):
    """The pairs over `group` (default gl(2,2)) and their identity-twisted product."""
    pairs = pair_carrier(2, 2, group or gl_group(2, 2))
    return pairs, vxg_phi_op(pairs, make_automorphism(pairs.group, "identity"))


def _demo_s4_phi_idempotency(jobs):
    pairs, op = _identity_twist()
    report = axioms.check_idempotency(op)
    details = [{"carrier": pairs.label, "report": report.to_json_dict()}]
    if not report.passed:
        vec, mat = report.witness[0]
        p = pairs.field.p
        moved = tuple(sum(mat[i][j] * vec[j] for j in range(2)) % p for i in range(2))
        details.append({"witness_moves_vector": list(moved) != list(vec)})

    trivial, op0 = _identity_twist(
        matrix_subgroup([((1, 0), (0, 1))], 2, 2, label="gl-trivial(2,2)"))
    report0 = axioms.check_idempotency(op0)
    details.append({"carrier": trivial.label, "report": report0.to_json_dict()})
    return _verdict(not report.passed and report0.passed), details


def _demo_s4_phi_nonunique(jobs):
    pairs, op = _identity_twist()
    report = axioms.check_divisibility(op, axioms.RIGHT, unique=True)
    details = [{"carrier": pairs.label, "report": report.to_json_dict()}]
    ok = not report.passed and report.reason == "exists-not-unique"
    if ok:
        xi, yi = map(pairs.index_of, report.witness)
        details.append({"solutions_at_witness": int((op.table[:, yi] == xi).sum()),
                        "vector_count": pairs.field.p ** 2})
    return _verdict(ok), details


def _rack_demo(jobs, opposite):
    """Left racks twisted by matrix powers, or their transposes as right racks."""
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    side = axioms.RIGHT if opposite else axioms.LEFT
    reports = []
    for n in (-1, 0, 1, 2):
        op = vxg_conj_op(pairs, n)
        op = opposite_op(op) if opposite else op
        reports.append((n, axioms.check_rack_quandle(op, side, require_idempotent=False,
                                                     jobs=jobs)))
    return _all_pass("power", reports)


# --- skew braces and dimonoid failures -----------------------------------------


def _brace_demo(jobs, variant):
    groups = (symmetric_group(3), cyclic_group(6))
    return _all_pass("group", [
        (group.label, axioms.check_skew_brace(*brace_ops(group, variant), jobs=jobs))
        for group in groups
    ])


def _demo_s5_nonabelian_not_dimonoid(jobs):
    s3, z6 = symmetric_group(3), cyclic_group(6)
    reports = []
    for group in (s3, z6):
        vdash = table_from_array(group, group.cayley, "mul")
        dashv = opposite_op(vdash, label="opposite-mul")
        reports.append((group.label, axioms.check_dimonoid(dashv, vdash, jobs=jobs)))
    _, details = _all_pass("group", reports)
    (_, report), (_, report_a) = reports
    ok = not report.passed and report.reason == "axiom-2"
    if ok:
        _, y, z = report.witness
        ok = s3.mul(y, z) != s3.mul(z, y)
        details.insert(1, {"witness_pair_commutes": not ok})
    return _verdict(ok and report_a.passed), details


def _demo_s5_zbrace_counterexample(jobs):
    window = z_parity_window(-64, 64)
    a, b, c = 2, 3, 4
    left = window.dashv(a, window.dashv(b, c))
    right = window.dashv(a, window.vdash(b, c))
    details = [{"inputs": [a, b, c], "a_dashv_b_dashv_c": left,
                "a_dashv_b_vdash_c": right, "values_differ": left != right}]

    mod = cyclic_group(16)
    plus, circ = z_parity_brace(mod)
    brace_report = axioms.check_skew_brace(plus, circ, jobs=jobs)
    dim_report = axioms.check_dimonoid(circ, plus, jobs=jobs)
    details += [{"carrier": mod.label, "report": r.to_json_dict()}
                for r in (brace_report, dim_report)]
    return _verdict(left == 1 and right == 9 and brace_report.passed
                    and not dim_report.passed), details


# --- multi-operation degeneracies ----------------------------------------------


def _demo_e1_multiquandle_degenerate(jobs):
    details = []
    ok = True
    z5 = cyclic_group(5)
    quandles = [
        conj_quandle(symmetric_group(3), 1, label="conj-s3"),
        conj_quandle(symmetric_group(3), 2, label="conj-s3-sq"),
        core_quandle(cyclic_group(5), label="core-z5"),
        core_quandle(cyclic_group(4), label="core-z4"),
        alexander_quandle(z5, make_automorphism(z5, ("power", 2)), label="alex-z5"),
    ]
    for op in quandles:
        mixed = axioms.check_multiquandle_pair(op, op, jobs=jobs)
        single = axioms.check_self_distributivity(op, axioms.RIGHT, jobs=jobs)
        agrees = mixed.verdict == single.verdict and mixed.witness == single.witness
        ok = ok and agrees
        details.append({"op": op.label, "mixed": mixed.to_json_dict(),
                        "single": single.to_json_dict(), "degenerates": agrees})

    projections = []
    for n in range(2, 13):
        q = core_quandle(cyclic_group(n))
        prod = axioms.op_product(q, q)
        is_projection = bool((prod.table == np.arange(n)[:, None]).all())
        ok = ok and is_projection
        projections.append({"order": n, "first_projection": is_projection})
    details.append({"core_products": projections})
    return _verdict(ok), details


# claim id -> (title, runner); a runner takes jobs and returns (verdict, details)
DEMOS = {
    "S3-assoc": ("two-sided twisted matrix products are always associative",
                 _demo_s3_assoc),
    "S3-multisemigroup": ("five twisted matrix products satisfy pairwise interchange",
                          _demo_s3_multisemigroup),
    "S3-unit": ("units of twisted matrix products exist beyond the plain product",
                _demo_s3_unit),
    "S3-group": ("conjugated matrix products on invertible matrices form groups",
                 _demo_s3_group),
    "S4-phi-idempotency": ("the twisted pair product is idempotent only over the trivial group",
                           _demo_s4_phi_idempotency),
    "S4-phi-nonunique": ("right division in the twisted pair product exists but is not unique",
                         _demo_s4_phi_nonunique),
    "S4-conj-rack": ("pair products twisted by matrix powers are left racks",
                     lambda jobs: _rack_demo(jobs, opposite=False)),
    "S4-opposite-rack": ("transposing a left rack yields a right rack",
                         lambda jobs: _rack_demo(jobs, opposite=True)),
    "S5-brace-trivial": ("a group with both operations equal is a skew brace",
                         lambda jobs: _brace_demo(jobs, "trivial")),
    "S5-brace-opposite": ("a group paired with its opposite operation is a skew brace",
                          lambda jobs: _brace_demo(jobs, "opposite")),
    "S5-nonabelian-not-dimonoid": (
        "opposite and plain products form a dimonoid only when the group commutes",
        _demo_s5_nonabelian_not_dimonoid),
    "S5-zbrace-counterexample": (
        "the parity brace on the integers is a skew brace but not a dimonoid",
        _demo_s5_zbrace_counterexample),
    "E1-multiquandle-degenerate": (
        "a repeated operation degenerates the mixed checks to one-operation ones",
        _demo_e1_multiquandle_degenerate),
}

CLAIM_IDS = tuple(DEMOS)


def run_demo(claim_id: str, jobs: int = 1) -> dict:
    if claim_id not in DEMOS:
        raise UnknownClaimError(
            f"unknown claim {integer_text(claim_id, repr)}; known claims: {', '.join(CLAIM_IDS)}"
        )
    title, runner = DEMOS[claim_id]
    verdict, details = runner(job_count(jobs))
    return {"claim": claim_id, "title": title, "verdict": verdict, "details": details}
