import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from multigroup.errors import DimensionMismatchError, SingularMatrixError, WorkbenchError
from multigroup.field import PrimeField
from multigroup.matrix import (
    Matrix,
    mat_add_scaled,
    mat_det,
    mat_inv,
    mat_mul,
    mat_pow,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def perm_sum_det(rows, p):
    """Independent determinant: signed sum over permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def all_matrices(n, p):
    for flat in itertools.product(range(p), repeat=n * n):
        yield tuple(flat[i * n:(i + 1) * n] for i in range(n))


def test_frozen_square_mod_3():
    a = Matrix.from_rows(((1, 1), (0, 1)), F3)
    assert (a * a).rows == ((1, 2), (0, 1))


def test_frozen_self_inverse_mod_2():
    a = Matrix.from_rows(((1, 1), (0, 1)), F2)
    assert mat_inv(a).rows == a.rows
    assert (a * a).rows == Matrix.identity(2, F2).rows


def test_entries_reduced_on_construction():
    a = Matrix.from_rows(((4, -1), (3, 7)), F3)
    assert a.rows == ((1, 2), (0, 1))


@pytest.mark.parametrize("rows", [(), ((1, 2),), ((1,), (2, 3))])
def test_non_square_rejected(rows):
    with pytest.raises(DimensionMismatchError):
        Matrix(F3, rows)


def test_det_matches_permutation_oracle_2x2():
    for rows in all_matrices(2, 3):
        assert mat_det(Matrix(F3, rows)) == perm_sum_det(rows, 3)


def test_det_matches_permutation_oracle_3x3_mod2():
    for rows in all_matrices(3, 2):
        assert mat_det(Matrix(F2, rows)) == perm_sum_det(rows, 2)


@given(st.integers(0, 5**16 - 1))
def test_det_elimination_matches_oracle_4x4(seed):
    digits = [(seed // 5**k) % 5 for k in range(16)]
    rows = tuple(tuple(digits[i * 4 + j] for j in range(4)) for i in range(4))
    assert mat_det(Matrix(F5, rows)) == perm_sum_det(rows, 5)


def test_inverse_times_matrix_is_identity():
    ident = Matrix.identity(2, F3).rows
    invertible = 0
    for rows in all_matrices(2, 3):
        a = Matrix(F3, rows)
        if mat_det(a) == 0:
            with pytest.raises(SingularMatrixError):
                mat_inv(a)
            continue
        invertible += 1
        assert mat_mul(a, mat_inv(a)).rows == ident
        assert mat_mul(mat_inv(a), a).rows == ident
    assert invertible == 48


def test_mat_pow_agrees_with_repeated_multiplication():
    a = Matrix.from_rows(((1, 1), (0, 1)), F5)
    acc = Matrix.identity(2, F5)
    for k in range(8):
        assert mat_pow(a, k).rows == acc.rows
        acc = acc * a
    assert mat_pow(a, -2).rows == mat_inv(mat_pow(a, 2)).rows
    assert mat_pow(a, 0).rows == Matrix.identity(2, F5).rows


def test_mat_add_scaled_entrywise():
    a = Matrix.from_rows(((1, 2), (0, 1)), F3)
    b = Matrix.from_rows(((2, 2), (1, 0)), F3)
    got = mat_add_scaled(2, a, 1, b)
    want = tuple(
        tuple((2 * x + y) % 3 for x, y in zip(ra, rb))
        for ra, rb in zip(a.rows, b.rows)
    )
    assert got.rows == want


def test_apply_vector():
    a = Matrix.from_rows(((1, 1), (0, 1)), F3)
    assert a.apply((1, 2)) == (0, 2)
    with pytest.raises(DimensionMismatchError):
        a.apply((1, 2, 3))


def test_integers_only_in_vectors_scalars_and_exponents():
    # bools and numpy integers are integers; 1.5, 2.0 and "1" are refused by name,
    # where a float vector once came back as floats and a float exponent raised TypeError
    one = Matrix.identity(2, F3)
    swap = Matrix.from_rows(((0, 1), (1, 0)), F3)
    assert swap.apply((True, np.int64(2))) == (2, 1)
    assert mat_add_scaled(np.int8(2), one, True, swap).rows == ((2, 1), (1, 2))
    assert mat_pow(swap, np.int64(3)).rows == swap.rows
    for bad in (1.5, 2.0, "1"):
        with pytest.raises(WorkbenchError, match=f"^vector entry {bad!r} is not an integer$"):
            one.apply((bad, 0))
        with pytest.raises(WorkbenchError, match=f"^scalar {bad!r} is not an integer$"):
            mat_add_scaled(1, one, bad, one)
        with pytest.raises(WorkbenchError, match=f"^exponent {bad!r} is not an integer$"):
            mat_pow(one, bad)
    with pytest.raises(WorkbenchError, match="^scalar 2.5 is not an integer$"):
        mat_add_scaled(2.5, one, 0, one)


def test_size_mismatch_rejected():
    a = Matrix.identity(2, F3)
    b = Matrix.identity(3, F3)
    with pytest.raises(DimensionMismatchError):
        mat_mul(a, b)
