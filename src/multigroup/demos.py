"""Scripted demonstrations over small fixed carriers.

Each claim id names one headline behaviour of the constructions: a family of
products that is associative, a claimed unit that does not exist, a pair of
group operations that fails the dimonoid axioms, and so on. Runners are
deterministic: fixed seeds, fixed carriers, no wall-clock dependence, so the
JSON rendering of a run is reproducible byte for byte.

Verdicts: PASS means the demonstrated behaviour held, FAIL means it did not,
REFUTED-AS-STATED means the exhaustive check disproved the claim in the form
the demo states it, with the refuting instance recorded in the details.
"""

import random

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
from .errors import UnknownClaimError
from .field import PrimeField
from .matrix import Matrix, mat_add_scaled, mat_det, mat_inv
from .optables import encode_element, table_from_array

PASS = "PASS"
FAIL = "FAIL"
REFUTED = "REFUTED-AS-STATED"


def _rand_rows(rng, n, p):
    return tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))


def _report_dict(report):
    return report.to_json_dict()


def _claim(claim_id, title, verdict, details):
    return {"claim": claim_id, "title": title, "verdict": verdict, "details": details}


# --- matrix product family ----------------------------------------------------


def _demo_s3_assoc(jobs):
    details = []
    verdict = PASS
    for p in (2, 3):
        carrier = matrix_set(2, p)
        fld = PrimeField(p)
        rng = random.Random(100 + p)
        ident = Matrix.identity(2, fld)
        pairs = [(ident, ident)]
        for _ in range(5):
            pairs.append((
                Matrix.from_rows(_rand_rows(rng, 2, p), fld),
                Matrix.from_rows(_rand_rows(rng, 2, p), fld),
            ))
        tables = 0
        for m1, m2 in pairs:
            for s in range(p):
                for t in range(p):
                    op = matrix_op(MatrixOpParams(s, t, m1, m2), carrier)
                    report = axioms.check_associativity(op, jobs=jobs)
                    tables += 1
                    if not report.passed:
                        verdict = FAIL
                        details.append({"modulus": p, "s": s, "t": t,
                                        "m1": list(map(list, m1.rows)),
                                        "m2": list(map(list, m2.rows)),
                                        "report": _report_dict(report)})
        details.append({"modulus": p, "carrier": carrier.label,
                        "tables_checked": tables, "all_associative": verdict == PASS})
    return _claim(
        "S3-assoc",
        "two-sided twisted matrix products are always associative",
        verdict,
        details,
    )


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
    verdict = PASS
    details = []
    pairs = 0
    for a in ops:
        for b in ops:
            report = axioms.check_interchange(a, b, jobs=jobs)
            pairs += 1
            if not report.passed:
                verdict = FAIL
                details.append({"pair": [a.label, b.label], "report": _report_dict(report)})
    details.append({"carrier": carrier.label, "operations": len(ops),
                    "ordered_pairs_checked": pairs, "all_interchange": verdict == PASS})
    return _claim(
        "S3-multisemigroup",
        "five twisted matrix products satisfy pairwise interchange",
        verdict,
        details,
    )


def _demo_s3_unit(jobs):
    details = []
    formula_ok = True
    for p in (2, 3):
        carrier = matrix_set(2, p)
        fld = PrimeField(p)
        ident = Matrix.identity(2, fld)
        rng = random.Random(300 + p)
        mats = [(ident, ident)]
        for _ in range(3):
            mats.append((
                Matrix.from_rows(_rand_rows(rng, 2, p), fld),
                Matrix.from_rows(_rand_rows(rng, 2, p), fld),
            ))
        for m1, m2 in mats:
            for s in range(p):
                for t in range(p):
                    op = matrix_op(MatrixOpParams(s, t, m1, m2), carrier)
                    units = axioms.find_units(op)
                    collapsed = mat_add_scaled(s, m1, t, m2)
                    expected = [mat_inv(collapsed).rows] if mat_det(collapsed) != 0 else []
                    if units != expected:
                        formula_ok = False
                        details.append({"modulus": p, "s": s, "t": t,
                                        "units": [encode_element(u) for u in units],
                                        "expected": [encode_element(u) for u in expected]})
    details.append({"unit_formula": "inverse of s*m1 + t*m2 when that sum is invertible",
                    "formula_confirmed": formula_ok})

    # the doubled identity sum: not the plain product, yet it has a unit
    fld3 = PrimeField(3)
    ident3 = Matrix.identity(2, fld3)
    doubled = matrix_op(MatrixOpParams(1, 1, ident3, ident3), matrix_set(2, 3))
    units = axioms.find_units(doubled)
    canonical_ok = units == [((2, 0), (0, 2))]
    details.append({"claimed": "a twisted product has a unit only in the plain case",
                    "refuting_instance": {"modulus": 3, "s": 1, "t": 1,
                                          "m1": [[1, 0], [0, 1]],
                                          "m2": [[1, 0], [0, 1]],
                                          "unit": [encode_element(u) for u in units]}})
    verdict = REFUTED if (formula_ok and canonical_ok) else FAIL
    return _claim(
        "S3-unit",
        "units of twisted matrix products exist beyond the plain product",
        verdict,
        details,
    )


def _demo_s3_group(jobs):
    details = []
    verdict = PASS
    fld2 = PrimeField(2)
    glc = gl_group(2, 2)
    constants = [Matrix.from_rows(rows, fld2) for rows in glc.elements]
    for m in constants:
        op = gl_group_op(m, glc)
        report = axioms.check_group(op, jobs=jobs)
        if not report.passed:
            verdict = FAIL
            details.append({"constant": list(map(list, m.rows)), "report": _report_dict(report)})
            continue
        units = axioms.find_units(op)
        minv = mat_inv(m).rows
        if units != [minv]:
            verdict = FAIL
            details.append({"constant": list(map(list, m.rows)),
                            "units": [encode_element(u) for u in units]})
    details.append({"carrier": glc.label, "constants_checked": len(constants)})

    glc3 = gl_group(2, 3)
    rng = random.Random(33)
    sampled = sorted(rng.sample(range(len(glc3)), 10))
    fld3 = PrimeField(3)
    for idx in sampled:
        m = Matrix.from_rows(glc3.elements[idx], fld3)
        op = gl_group_op(m, glc3)
        report = axioms.check_group(op, jobs=jobs)
        if not report.passed:
            verdict = FAIL
            details.append({"constant": list(map(list, m.rows)), "report": _report_dict(report)})
            continue
        minv = mat_inv(m)
        _, inverses = axioms.find_inverses(op, minv.rows)
        for a_rows, got in inverses.items():
            a = Matrix.from_rows(a_rows, fld3)
            want = (minv * mat_inv(a) * minv).rows
            if got != want:
                verdict = FAIL
                details.append({"constant": list(map(list, m.rows)),
                                "element": encode_element(a_rows)})
                break
    details.append({"carrier": glc3.label, "constants_sampled": len(sampled),
                    "inverse_formula": "minv * ainv * minv", "all_groups": verdict == PASS})
    return _claim(
        "S3-group",
        "conjugated matrix products on invertible matrices form groups",
        verdict,
        details,
    )


# --- pair carriers over a matrix group ----------------------------------------


def _phi_pairs(trivial=False):
    if trivial:
        ident = ((1, 0), (0, 1))
        group = matrix_subgroup([ident], 2, 2, label="gl-trivial(2,2)")
    else:
        group = gl_group(2, 2)
    return pair_carrier(2, 2, group)


def _demo_s4_phi_idempotency(jobs):
    details = []
    pairs = _phi_pairs()
    phi = make_automorphism(pairs.group, "identity")
    op = vxg_phi_op(pairs, phi)
    report = axioms.check_idempotency(op)
    nontrivial_ok = not report.passed
    details.append({"carrier": pairs.label, "report": _report_dict(report)})
    if nontrivial_ok:
        vec, mat = report.witness[0]
        p = pairs.field.p
        moved = tuple(sum(mat[i][j] * vec[j] for j in range(2)) % p for i in range(2))
        details.append({"witness_moves_vector": list(moved) != list(vec)})

    trivial = _phi_pairs(trivial=True)
    phi0 = make_automorphism(trivial.group, "identity")
    op0 = vxg_phi_op(trivial, phi0)
    report0 = axioms.check_idempotency(op0)
    details.append({"carrier": trivial.label, "report": _report_dict(report0)})
    verdict = PASS if (nontrivial_ok and report0.passed) else FAIL
    return _claim(
        "S4-phi-idempotency",
        "the twisted pair product is idempotent only over the trivial group",
        verdict,
        details,
    )


def _demo_s4_phi_nonunique(jobs):
    details = []
    pairs = _phi_pairs()
    phi = make_automorphism(pairs.group, "identity")
    op = vxg_phi_op(pairs, phi)
    report = axioms.check_divisibility(op, axioms.RIGHT, unique=True)
    details.append({"carrier": pairs.label, "report": _report_dict(report)})
    ok = (not report.passed) and report.reason == "exists-not-unique"
    if ok:
        x, y = report.witness
        xi, yi = pairs.index_of(x), pairs.index_of(y)
        count = int((op.table[:, yi] == xi).sum())
        details.append({"solutions_at_witness": count, "vector_count": pairs.field.p ** 2})
    verdict = PASS if ok else FAIL
    return _claim(
        "S4-phi-nonunique",
        "right division in the twisted pair product exists but is not unique",
        verdict,
        details,
    )


def _demo_s4_conj_rack(jobs):
    details = []
    verdict = PASS
    pairs = _phi_pairs()
    for n in (-1, 0, 1, 2):
        op = vxg_conj_op(pairs, n)
        report = axioms.check_rack_quandle(op, axioms.LEFT, require_idempotent=False, jobs=jobs)
        if not report.passed:
            verdict = FAIL
        details.append({"power": n, "report": _report_dict(report)})
    return _claim(
        "S4-conj-rack",
        "pair products twisted by matrix powers are left racks",
        verdict,
        details,
    )


def _demo_s4_opposite_rack(jobs):
    details = []
    verdict = PASS
    pairs = _phi_pairs()
    for n in (-1, 0, 1, 2):
        op = opposite_op(vxg_conj_op(pairs, n))
        report = axioms.check_rack_quandle(op, axioms.RIGHT, require_idempotent=False, jobs=jobs)
        if not report.passed:
            verdict = FAIL
        details.append({"power": n, "report": _report_dict(report)})
    return _claim(
        "S4-opposite-rack",
        "transposing a left rack yields a right rack",
        verdict,
        details,
    )


# --- skew braces and dimonoid failures -----------------------------------------


def _demo_s5_brace_trivial(jobs):
    details = []
    verdict = PASS
    for group in (symmetric_group(3), cyclic_group(6)):
        dot, circ = brace_ops(group, "trivial")
        report = axioms.check_skew_brace(dot, circ, jobs=jobs)
        if not report.passed:
            verdict = FAIL
        details.append({"group": group.label, "report": _report_dict(report)})
    return _claim(
        "S5-brace-trivial",
        "a group with both operations equal is a skew brace",
        verdict,
        details,
    )


def _demo_s5_brace_opposite(jobs):
    details = []
    verdict = PASS
    for group in (symmetric_group(3), cyclic_group(6)):
        dot, circ = brace_ops(group, "opposite")
        report = axioms.check_skew_brace(dot, circ, jobs=jobs)
        if not report.passed:
            verdict = FAIL
        details.append({"group": group.label, "report": _report_dict(report)})
    return _claim(
        "S5-brace-opposite",
        "a group paired with its opposite operation is a skew brace",
        verdict,
        details,
    )


def _demo_s5_nonabelian_not_dimonoid(jobs):
    details = []
    group = symmetric_group(3)
    vdash = table_from_array(group, group.cayley, "mul")
    dashv = opposite_op(vdash, label="opposite-mul")
    report = axioms.check_dimonoid(dashv, vdash, jobs=jobs)
    details.append({"group": group.label, "report": _report_dict(report)})
    ok = (not report.passed) and report.reason == "axiom-2"
    if ok:
        _, y, z = report.witness
        ok = group.mul(y, z) != group.mul(z, y)
        details.append({"witness_pair_commutes": not ok})

    abelian = cyclic_group(6)
    vdash_a = table_from_array(abelian, abelian.cayley, "mul")
    dashv_a = opposite_op(vdash_a, label="opposite-mul")
    report_a = axioms.check_dimonoid(dashv_a, vdash_a, jobs=jobs)
    details.append({"group": abelian.label, "report": _report_dict(report_a)})
    verdict = PASS if (ok and report_a.passed) else FAIL
    return _claim(
        "S5-nonabelian-not-dimonoid",
        "opposite and plain products form a dimonoid only when the group commutes",
        verdict,
        details,
    )


def _demo_s5_zbrace_counterexample(jobs):
    details = []
    window = z_parity_window(-64, 64)
    a, b, c = 2, 3, 4
    left = window.dashv(a, window.dashv(b, c))
    right = window.dashv(a, window.vdash(b, c))
    details.append({"inputs": [a, b, c],
                    "a_dashv_b_dashv_c": left,
                    "a_dashv_b_vdash_c": right,
                    "values_differ": left != right})

    mod = cyclic_group(16)
    plus, circ = z_parity_brace(mod)
    brace_report = axioms.check_skew_brace(plus, circ, jobs=jobs)
    details.append({"carrier": mod.label, "report": _report_dict(brace_report)})
    dim_report = axioms.check_dimonoid(circ, plus, jobs=jobs)
    details.append({"carrier": mod.label, "report": _report_dict(dim_report)})
    verdict = PASS if (left == 1 and right == 9 and brace_report.passed
                       and not dim_report.passed) else FAIL
    return _claim(
        "S5-zbrace-counterexample",
        "the parity brace on the integers is a skew brace but not a dimonoid",
        verdict,
        details,
    )


# --- multi-operation degeneracies ----------------------------------------------


def _demo_e1_multiquandle_degenerate(jobs):
    details = []
    verdict = PASS
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
        if not agrees:
            verdict = FAIL
        details.append({"op": op.label, "mixed": _report_dict(mixed),
                        "single": _report_dict(single), "degenerates": agrees})

    projections = []
    for n in range(2, 13):
        q = core_quandle(cyclic_group(n))
        prod = axioms.op_product(q, q)
        is_projection = all(
            prod.table[x, y] == x for x in range(n) for y in range(n)
        )
        if not is_projection:
            verdict = FAIL
        projections.append({"order": n, "first_projection": bool(is_projection)})
    details.append({"core_products": projections})
    return _claim(
        "E1-multiquandle-degenerate",
        "a repeated operation degenerates the mixed checks to one-operation ones",
        verdict,
        details,
    )


DEMOS = {
    "S3-assoc": _demo_s3_assoc,
    "S3-multisemigroup": _demo_s3_multisemigroup,
    "S3-unit": _demo_s3_unit,
    "S3-group": _demo_s3_group,
    "S4-phi-idempotency": _demo_s4_phi_idempotency,
    "S4-phi-nonunique": _demo_s4_phi_nonunique,
    "S4-conj-rack": _demo_s4_conj_rack,
    "S4-opposite-rack": _demo_s4_opposite_rack,
    "S5-brace-trivial": _demo_s5_brace_trivial,
    "S5-brace-opposite": _demo_s5_brace_opposite,
    "S5-nonabelian-not-dimonoid": _demo_s5_nonabelian_not_dimonoid,
    "S5-zbrace-counterexample": _demo_s5_zbrace_counterexample,
    "E1-multiquandle-degenerate": _demo_e1_multiquandle_degenerate,
}

CLAIM_IDS = tuple(DEMOS)


def run_demo(claim_id: str, jobs: int = 1) -> dict:
    runner = DEMOS.get(claim_id)
    if runner is None:
        raise UnknownClaimError(
            f"unknown claim {claim_id!r}; known claims: {', '.join(CLAIM_IDS)}"
        )
    return runner(jobs)
