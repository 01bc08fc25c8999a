"""The failure branches of the matrix demo claims, and the twisted sweeps' sharing.

The shipped constructions make every matrix claim hold, so these tests patch
what a claim reads (a check, the unit search or the sandwich construction)
and assert that the claim reports FAIL with the detail that names the fault.
The twisted sweeps build one table per distinct s*m1 + t*m2; the last tests
count the builds and proofs, and hold every shared table to a fresh build.
"""

import types

import numpy as np
import pytest

from multigroup import axioms, demos
from multigroup.constructions import MatrixOpParams, gl_group_op, matrix_op
from multigroup.demos import run_demo
from multigroup.matrix import mat_inv
from multigroup.optables import failing, table_from_array


def _failures(result, key):
    return [detail for detail in result["details"] if key in detail]


@pytest.mark.parametrize("claim, check, tables, keys", [
    # (1 + 5 drawn matrix pairs) x p^2 scalar pairs, for p = 2 and 3
    ("S3-assoc", "check_associativity", 6 * 4 + 6 * 9, {"modulus", "s", "t", "m1", "m2"}),
    # five products, every ordered pair
    ("S3-multisemigroup", "check_interchange", 25, {"pair"}),
])
def test_twisted_product_claims_report_each_failing_table(monkeypatch, claim, check, tables, keys):
    monkeypatch.setattr(axioms, check,
                        lambda op, *more, jobs=1: failing(check, op.carrier, (0, 0, 0), 1))
    result = run_demo(claim)
    assert result["verdict"] == "FAIL"
    failures = _failures(result, "report")
    assert len(failures) == tables
    assert all(set(detail) == keys | {"report"} for detail in failures)


def test_s3_group_reports_constants_whose_product_is_no_group(monkeypatch):
    monkeypatch.setattr(axioms, "check_group",
                        lambda op, jobs=1: failing("group", op.carrier, (), 1, "no-unit"))
    result = run_demo("S3-group")
    assert result["verdict"] == "FAIL"
    failures = _failures(result, "constant")
    assert len(failures) == 6 + 10  # every constant of gl(2,2), ten sampled from gl(2,3)
    assert all(set(detail) == {"constant", "report"} for detail in failures)


def test_wrong_units_fail_s3_unit_and_s3_group(monkeypatch):
    # only the demos see the extra unit; check_group keeps the true unit search
    def find_units(op):
        return axioms.find_units(op) + [op.carrier.elements[0]]

    monkeypatch.setattr(demos, "axioms",
                        types.SimpleNamespace(**{**vars(axioms), "find_units": find_units}))
    unit = run_demo("S3-unit")
    assert unit["verdict"] == "FAIL"
    assert set(_failures(unit, "units")[0]) == {"modulus", "s", "t", "units", "expected"}
    group = run_demo("S3-group")
    assert group["verdict"] == "FAIL"
    failures = _failures(group, "constant")
    assert len(failures) == 6
    assert all(set(detail) == {"constant", "units"} for detail in failures)


def test_s3_group_reports_the_first_element_whose_inverse_breaks_the_formula(monkeypatch):
    # relabel each sandwich table by a cycle sigma of every index except that
    # of M^-1: T'[x, y] = sigma^-1(T[sigma x, sigma y]) is a group with the
    # same unit M^-1, but its inverses are no longer M^-1 a^-1 M^-1
    def relabelled(m, carrier, label=None):
        table = gl_group_op(m, carrier, label).table
        unit, n = carrier.index_of(mat_inv(m).rows), len(carrier)
        others = np.delete(np.arange(n), unit)
        sigma = np.arange(n)
        sigma[others] = np.roll(others, 1)
        moved = np.argsort(sigma)[table[sigma[:, None], sigma[None, :]]]
        return table_from_array(carrier, moved, "relabelled")

    monkeypatch.setattr(demos, "gl_group_op", relabelled)
    result = run_demo("S3-group")
    assert result["verdict"] == "FAIL"
    failures = _failures(result, "constant")
    assert len(failures) == 10  # each constant sampled from gl(2,3); gl(2,2) checks units only
    assert all(set(detail) == {"constant", "element"} for detail in failures)


def _counted(monkeypatch, module, name):
    """Wrap module.name with a call counter; the list grows by one per call."""
    calls, real = [], getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("claim, verdict, built, proved, checked", [
    # distinct s*m1 + t*m2: 10 of 24 at p = 2, 29 of 54 at p = 3; Light's test
    # runs once a sum, and every one of the 78 tables is still checked
    ("S3-assoc", "PASS", 10 + 29, 10 + 29, 6 * 4 + 6 * 9),
    # 8 of 16 and 21 of 36; the doubled identity sum is one of the p = 3 sweep's
    ("S3-unit", "REFUTED-AS-STATED", 8 + 21, 0, 0),
])
def test_twisted_sweeps_build_and_prove_each_distinct_sum_once(
        monkeypatch, claim, verdict, built, proved, checked):
    builds = _counted(monkeypatch, demos, "matrix_op")
    proofs = _counted(monkeypatch, axioms, "_associative")
    checks = _counted(monkeypatch, axioms, "check_associativity")
    assert run_demo(claim)["verdict"] == verdict
    assert (len(builds), len(proofs), len(checks)) == (built, proved, checked)


@pytest.mark.parametrize("p, seed, randoms", [(2, 102, 5), (3, 103, 5), (2, 302, 3), (3, 303, 3)])
def test_a_shared_twisted_table_is_the_table_of_its_own_sum(p, seed, randoms):
    # the sweeps of S3-assoc and S3-unit; every yield against a fresh build
    for s, t, m1, m2, total, op in demos._twisted_ops(p, seed, randoms):
        fresh = matrix_op(MatrixOpParams(s, t, m1, m2), op.carrier)
        assert np.array_equal(op.table, fresh.table)
        assert total == tuple(tuple((s * a + t * b) % p for a, b in zip(r1, r2))
                              for r1, r2 in zip(m1.rows, m2.rows))
