import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multigroup import carriers
from multigroup.carriers import (
    Carrier,
    build_carrier_atom,
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
from multigroup.errors import (
    ActionMismatchError,
    DimensionMismatchError,
    NotAnIntegerError,
    NotBijectiveError,
    NotClosedError,
    NotHomomorphismError,
    NoUnitError,
    TooLargeError,
    UnsupportedCarrierError,
)
from multigroup.field import PrimeField
from multigroup.matrix import Matrix, mat_det

IDENT2 = ((1, 0), (0, 1))
SWAP2 = ((0, 1), (1, 0))


def test_element_counts():
    assert len(matrix_set(2, 2)) == 16
    assert len(gl_group(2, 2)) == 6
    assert len(gl_group(2, 3)) == 48
    assert len(symmetric_group(4)) == 24
    assert len(cyclic_group(9)) == 9
    assert len(pair_carrier(2, 2, gl_group(2, 2))) == 24


def test_matrix_order_is_row_major():
    ms = matrix_set(2, 2)
    assert ms.elements[0] == ((0, 0), (0, 0))
    assert ms.elements[-1] == ((1, 1), (1, 1))
    assert ms.elements[1] == ((0, 0), (0, 1))
    glc = gl_group(2, 2)
    assert glc.elements[0] == ((0, 1), (1, 0))
    assert list(glc.elements) == sorted(glc.elements)


GL_CASES = [(1, 2), (1, 7), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]


@pytest.mark.parametrize("n,p", GL_CASES, ids=[f"gl({n},{p})" for n, p in GL_CASES])
def test_gl_elements_are_the_candidates_with_nonzero_determinant(n, p):
    field = PrimeField(p)
    candidates = [tuple(flat[i * n:(i + 1) * n] for i in range(n))
                  for flat in itertools.product(range(p), repeat=n * n)]
    invertible = tuple(rows for rows in candidates if mat_det(Matrix(field, rows)) != 0)
    for carrier, want in ((matrix_set(n, p), tuple(candidates)), (gl_group(n, p), invertible)):
        assert carrier.elements == want
        assert {type(v) for rows in carrier.elements for row in rows for v in row} == {int}


@pytest.mark.parametrize("n,p", GL_CASES + [(4, 2)])
def test_gl_has_the_order_of_gl_n_fp(n, p):
    assert len(gl_group(n, p)) == math.prod(p**n - p**i for i in range(n))


def test_matrix_enumeration_builds_no_matrix_objects(monkeypatch):
    # the candidates are one integer stack, not one Matrix per candidate
    built = []
    new = Matrix.__new__

    def counted(cls, field, rows):
        built.append(rows)
        return new(cls, field, rows)

    monkeypatch.setattr(Matrix, "__new__", counted)
    gl_group(2, 5)
    matrix_set(2, 5)
    assert built == []


def test_matrix_rank_index():
    ms = matrix_set(2, 2)
    assert list(ms.ranks) == list(range(16))
    assert ms.lookup(np.array([[0, 0], [0, 1]])) == ms.index_of(((0, 0), (0, 1)))
    glc = gl_group(2, 2)
    # the zero matrix is not invertible
    assert glc.lookup(np.zeros((2, 2), dtype=np.int64)) == -1
    for i, rows in enumerate(glc.elements):
        rank = sum(
            v * 2 ** (3 - k)
            for k, v in enumerate(rows[0] + rows[1])
        )
        assert glc.ranks[i] == rank
        assert glc.lookup(np.array(rows)) == i


def test_symmetric_composition_convention():
    s3 = symmetric_group(3)
    assert s3.elements[0] == (0, 1, 2)
    assert s3.mul((1, 0, 2), (0, 2, 1)) == (1, 2, 0)
    assert s3.inv((1, 2, 0)) == (2, 0, 1)
    assert s3.identity == (0, 1, 2)


def test_single_powers_refuse_what_they_cannot_take():
    # a non-element is refused first, then a carrier without inverses or a unit
    z4, monoid, window = cyclic_group(4), matrix_set(2, 2), integer_window(0, 3)
    for refuse in (lambda: z4.inv(7), lambda: group_power(z4, "x", 2),
                   lambda: group_power(monoid, (1, 2), -1), lambda: element_order(z4, 4)):
        with pytest.raises(KeyError):
            refuse()
    for refuse in (lambda: monoid.inv(monoid.identity), lambda: element_order(monoid, monoid.identity),
                   lambda: group_power(monoid, monoid.identity, -1)):
        with pytest.raises(UnsupportedCarrierError):
            refuse()
    with pytest.raises(NoUnitError) as got:
        group_power(window, 1, 0)
    assert str(got.value) == "window(0,3) has no unit"
    with pytest.raises(TypeError):
        z4.inv([1])
    assert group_power(monoid, ((1, 1), (0, 1)), 3) == ((1, 1), (0, 1))
    assert [group_power(z4, 1, k) for k in (-5, 0, 10**30)] == [3, 0, 0]


def test_non_elements_raise_a_domain_error_that_is_a_key_error():
    from multigroup.axioms import find_inverses
    from multigroup.errors import NotAnElementError, WorkbenchError
    from multigroup.optables import OpTable

    c5 = cyclic_group(5)
    op = OpTable(c5, c5.cayley)
    for lookup in (lambda: c5.index_of(99), lambda: op.apply(99, 99), lambda: op.apply(1, 99),
                   lambda: find_inverses(op, 99), lambda: element_order(c5, 99),
                   lambda: c5.inv(99)):
        with pytest.raises(NotAnElementError) as err:
            lookup()
        assert isinstance(err.value, KeyError) and isinstance(err.value, WorkbenchError)
        assert (str(err.value), err.value.element) == ("99 is not an element of cyclic(5)", 99)
    assert op.apply(3, 4) == 2 and c5.index_of(4) == 4


def test_symmetric_bounds():
    with pytest.raises(UnsupportedCarrierError):
        symmetric_group(6)
    with pytest.raises(UnsupportedCarrierError):
        symmetric_group(0)


def test_structure_flags():
    assert cyclic_group(4).is_group
    assert gl_group(2, 2).is_group
    assert not matrix_set(2, 2).is_group
    assert matrix_set(2, 2).is_monoid
    window = integer_window(-2, 2)
    assert not window.is_group and not window.is_monoid


def test_guard_blocks_large_enumerations():
    with pytest.raises(TooLargeError):
        gl_group(3, 5)
    with pytest.raises(TooLargeError):
        matrix_set(2, 37)


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("MULTIGROUP_GUARD", "50")
    with pytest.raises(TooLargeError):
        cyclic_group(100)
    monkeypatch.setenv("MULTIGROUP_GUARD", "200")
    assert len(cyclic_group(100)) == 100
    monkeypatch.setenv("MULTIGROUP_GUARD", "banana")
    with pytest.raises(UnsupportedCarrierError):
        cyclic_group(3)


def test_direct_product_structure():
    prod = direct_product(cyclic_group(2), symmetric_group(3))
    assert len(prod) == 12
    assert prod.elements[0] == (0, (0, 1, 2))
    assert prod.identity == (0, (0, 1, 2))
    a = (1, (1, 0, 2))
    b = (1, (0, 2, 1))
    assert prod.mul(a, b) == (0, (1, 2, 0))
    assert prod.mul(a, prod.inv(a)) == prod.identity
    assert prod.is_group


def test_direct_product_needs_monoids():
    with pytest.raises(UnsupportedCarrierError):
        direct_product(cyclic_group(2), integer_window(0, 3))


def test_pair_carrier_order_and_validation():
    pairs = pair_carrier(2, 2, gl_group(2, 2))
    assert pairs.elements[0] == ((0, 0), ((0, 1), (1, 0)))
    assert pairs.elements[6] == ((0, 1), ((0, 1), (1, 0)))
    with pytest.raises(ActionMismatchError):
        pair_carrier(3, 2, gl_group(2, 2))
    with pytest.raises(ActionMismatchError):
        pair_carrier(2, 3, gl_group(2, 2))
    with pytest.raises(ActionMismatchError):
        pair_carrier(2, 2, cyclic_group(4))


def test_integer_window():
    w = integer_window(-2, 2)
    assert w.elements == (-2, -1, 0, 1, 2)
    with pytest.raises(UnsupportedCarrierError):
        integer_window(3, 1)


def test_group_carrier_parsing():
    assert len(group_carrier("gl(2,2)")) == 6
    assert len(group_carrier("cyclic(7)")) == 7
    assert len(group_carrier("cyclic(2) x cyclic(3)")) == 6
    assert len(group_carrier("vectors(2,2) x gl(2,2)")) == 24
    assert group_carrier("window(0, 9)").elements == tuple(range(10))
    for bad in ("vectors(2,2)", "foo(3)", "vectors(2,2) x cyclic(3)", "gl(2)"):
        with pytest.raises(UnsupportedCarrierError):
            group_carrier(bad)


def test_build_carrier_atom_rejects_vectors_alone():
    with pytest.raises(UnsupportedCarrierError):
        build_carrier_atom("vectors", [2, 2])


def test_orders_and_exponents():
    s3 = symmetric_group(3)
    assert element_order(s3, (1, 0, 2)) == 2
    assert element_order(s3, (1, 2, 0)) == 3
    assert group_exponent(s3) == 6
    assert group_exponent(cyclic_group(4)) == 4
    z5 = cyclic_group(5)
    assert group_power(z5, 2, -3) == 4
    assert group_power(z5, 2, 0) == 0
    with pytest.raises(UnsupportedCarrierError):
        element_order(matrix_set(2, 2), IDENT2)


def test_identity_automorphism():
    s3 = symmetric_group(3)
    phi = make_automorphism(s3, "identity")
    assert phi.images == tuple(range(6))
    assert phi.apply((1, 0, 2)) == (1, 0, 2)


def test_inner_automorphism_frozen_value():
    s3 = symmetric_group(3)
    phi = make_automorphism(s3, ("inner", (1, 0, 2)))
    assert phi.apply((0, 2, 1)) == (2, 1, 0)
    assert phi.apply(s3.identity) == s3.identity


def test_power_automorphism():
    z4 = cyclic_group(4)
    phi = make_automorphism(z4, ("power", 3))
    assert [phi.apply(x) for x in range(4)] == [0, 3, 2, 1]
    with pytest.raises(NotBijectiveError):
        make_automorphism(z4, ("power", 2))


def test_explicit_automorphism_rules():
    z3 = cyclic_group(3)
    phi = make_automorphism(z3, (0, 2, 1))
    assert phi.apply(1) == 2
    with pytest.raises(NotHomomorphismError):
        make_automorphism(z3, (1, 0, 2))
    with pytest.raises(NotBijectiveError):
        make_automorphism(z3, (0, 0, 1))
    with pytest.raises(NotBijectiveError):
        make_automorphism(z3, (0, 1))
    with pytest.raises(UnsupportedCarrierError):
        make_automorphism(matrix_set(2, 2), "identity")
    with pytest.raises(UnsupportedCarrierError):
        make_automorphism(z3, ("inner", 7))


def test_explicit_images_that_are_not_integers_are_refused():
    # int() once truncated these to (0, 1, 2) and accepted the identity
    with pytest.raises(NotBijectiveError):
        make_automorphism(cyclic_group(3), [0.2, 1.9, 2.5])
    with pytest.raises(NotBijectiveError):
        make_automorphism(cyclic_group(3), np.array([0.0, 1.0, 2.0]))


def test_explicit_images_may_be_an_integer_array():
    # comparing an array with "identity" once raised a bare ValueError
    z3 = cyclic_group(3)
    for images in (np.array([0, 2, 1]), np.array([0, 2, 1], dtype=np.uint8), list(np.array([0, 2, 1]))):
        phi = make_automorphism(z3, images)
        assert (phi.images, phi.label) == ((0, 2, 1), "explicit")


def test_rules_it_cannot_read_are_refused():
    # a non-integer power once raised a bare numpy TypeError
    z3 = cyclic_group(3)
    for k in (2.5, "2"):
        with pytest.raises(NotAnIntegerError) as got:
            make_automorphism(z3, ("power", k))
        assert str(got.value) == f"exponent {k!r} is not an integer"
    for rule in (("inner", [1]), "inverse", None, 5):
        with pytest.raises(UnsupportedCarrierError):
            make_automorphism(z3, rule)
    assert make_automorphism(z3, ("power", np.int64(2))).images == (0, 2, 1)


def test_matrix_subgroup():
    sub = matrix_subgroup([IDENT2, SWAP2], 2, 2)
    assert len(sub) == 2
    assert sub.is_group
    assert sub.mul(SWAP2, SWAP2) == IDENT2
    with pytest.raises(NotClosedError):
        matrix_subgroup([((1, 0), (0, 1)), ((1, 1), (0, 1))], 2, 3)
    with pytest.raises(NoUnitError):
        matrix_subgroup([SWAP2], 2, 2)
    # 17^16 entries' ranks overflow int64: refused, never wrapped
    with pytest.raises(UnsupportedCarrierError):
        matrix_subgroup([tuple(tuple(int(i == j) for j in range(4)) for i in range(4))], 4, 17)


@pytest.mark.parametrize("rows_list, n, wrong", [
    ([IDENT2, ((1,),)], 2, ((1,),)),  # a 1x1 element beside a 2x2 one
    ([IDENT2], 3, IDENT2),  # an identity, of the wrong size
])
def test_matrix_subgroup_refuses_elements_of_the_wrong_size(rows_list, n, wrong):
    with pytest.raises(DimensionMismatchError) as got:
        matrix_subgroup(rows_list, n, 2)
    assert str(got.value) == f"matrix subgroup element {wrong} is not {n}x{n}"


def test_index_roundtrip():
    for carrier in (cyclic_group(6), symmetric_group(3), gl_group(2, 2)):
        for i, e in enumerate(carrier.elements):
            assert carrier.index_of(e) == i
            assert carrier[i] == e


@given(st.integers(2, 30))
def test_cyclic_group_laws(n):
    z = cyclic_group(n)
    for a in range(0, n, max(1, n // 7)):
        assert z.mul(a, z.inv(a)) == 0
        assert z.mul(a, z.identity) == a


def test_inverse_is_one_power_by_lagrange(monkeypatch):
    # x^(n-1) by binary powering takes two products per bit of n - 1; stepping
    # every power up to the largest element order took 32000 products here
    group = cyclic_group(32000)
    calls = []
    product = Carrier.product

    def counted(self, i, j):
        calls.append(self.label)
        return product(self, i, j)

    monkeypatch.setattr(Carrier, "product", counted)
    inverse = group.inverse
    assert len(calls) <= 2 * (len(group) - 1).bit_length()
    assert inverse[:3].tolist() == [0, 31999, 31998] and inverse[-1] == 1


def test_orders_take_one_power_per_prime_factor(monkeypatch):
    # o = n, divided by each prime q of n (with multiplicity) where x^(o/q) = e:
    # one binary power per prime factor; stepping took 32000 products here
    group = cyclic_group(32000)
    n, omega, rest, q = len(group), 0, len(group), 2
    while rest > 1:
        while rest % q == 0:
            omega, rest = omega + 1, rest // q
        q += 1
    calls = []
    product = Carrier.product

    def counted(self, i, j):
        calls.append(self.label)
        return product(self, i, j)

    monkeypatch.setattr(Carrier, "product", counted)
    orders = group.orders
    assert omega == 11 and len(calls) <= 2 * omega * n.bit_length()
    assert orders.tolist() == (n // np.gcd(np.arange(n), n)).tolist()
    assert group_exponent(group) == n


@pytest.mark.parametrize("spec", ["matrices(2,2)", "window(0,3)", "vectors(2,2) x gl(2,2)",
                                  "matrices(1,2) x cyclic(2)"])
def test_inverse_needs_a_group_carrier(spec):
    carrier = group_carrier(spec)
    for inverse in (lambda: carrier.inverse, lambda: carrier.inv(carrier.elements[0])):
        with pytest.raises(UnsupportedCarrierError) as got:
            inverse()
        assert str(got.value) == "element orders need a group carrier"


def test_lower_layers_never_import_axioms():
    # carriers, constructions and the table layer sit below the checks
    source = Path(carriers.__file__).parent
    for name in ("carriers.py", "constructions.py", "optables.py"):
        tree = ast.parse((source / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert "axioms" not in {m.rsplit(".", 1)[-1] for m in modules}, (name, node.lineno)
