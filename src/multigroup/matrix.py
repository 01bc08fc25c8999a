"""Square matrices over a prime field, with exact modular arithmetic only."""

from typing import NamedTuple

from .errors import DimensionMismatchError, SingularMatrixError, as_integer
from .field import PrimeField, same_field


def identity_rows(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class _MatrixFields(NamedTuple):
    field: PrimeField
    rows: tuple


class Matrix(_MatrixFields):
    """An n x n matrix over F_p; rows is a tuple of row tuples of ints in [0, p)."""

    __slots__ = ()

    def __new__(cls, field: PrimeField, rows: tuple):
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise DimensionMismatchError("matrix must be square and non-empty")
        p = field.p
        reduced = tuple(tuple(as_integer(v, "matrix entry") % p for v in row) for row in rows)
        return super().__new__(cls, field, reduced)

    @classmethod
    def from_rows(cls, rows, field: PrimeField) -> "Matrix":
        return cls(field, tuple(tuple(r) for r in rows))

    @classmethod
    def identity(cls, n: int, field: PrimeField) -> "Matrix":
        return cls(field, identity_rows(as_integer(n, "dimension")))

    @classmethod
    def zero(cls, n: int, field: PrimeField) -> "Matrix":
        n = as_integer(n, "dimension")
        return cls(field, tuple((0,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        return mat_mul(self, other)

    def det(self) -> int:
        return mat_det(self)

    def inv(self) -> "Matrix":
        return mat_inv(self)

    def apply(self, vector: tuple) -> tuple:
        """Matrix times column vector, reduced mod p."""
        if len(vector) != self.n:
            raise DimensionMismatchError(f"vector length {len(vector)} vs matrix size {self.n}")
        p, vector = self.field.p, [as_integer(v, "vector entry") for v in vector]
        return tuple(sum(row[k] * vector[k] for k in range(self.n)) % p for row in self.rows)


def _check_pair(a: Matrix, b: Matrix) -> PrimeField:
    field = same_field(a.field, b.field)
    if a.n != b.n:
        raise DimensionMismatchError(f"matrix sizes {a.n} and {b.n} differ")
    return field


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    field = _check_pair(a, b)
    p, n = field.p, a.n
    rows = tuple(
        tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) % p for j in range(n))
        for i in range(n)
    )
    return Matrix(field, rows)


def mat_add_scaled(s: int, a: Matrix, t: int, b: Matrix) -> Matrix:
    """s*A + t*B with scalars reduced mod p."""
    field = _check_pair(a, b)
    p, s, t = field.p, as_integer(s, "scalar"), as_integer(t, "scalar")
    rows = tuple(
        tuple((s * x + t * y) % p for x, y in zip(ra, rb))
        for ra, rb in zip(a.rows, b.rows)
    )
    return Matrix(field, rows)


def _eliminate(a: Matrix):
    """Gauss-Jordan on [A | I] mod p: (det A, the rows of A^-1), or (0, None) if A is singular.

    The determinant is the product of the pivots, negated by each row swap.
    """
    p, n = a.field.p, a.n
    aug = [[*row, *unit] for row, unit in zip(a.rows, identity_rows(n))]
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return 0, None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det = det * aug[col][col] % p
        inv_p = a.field.inv(aug[col][col])
        aug[col] = [x * inv_p % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(x - factor * y) % p for x, y in zip(aug[r], aug[col])]
    return det, tuple(tuple(row[n:]) for row in aug)


def mat_det(a: Matrix) -> int:
    """Determinant by Gaussian elimination with modular pivots, exact for any prime."""
    return _eliminate(a)[0]


def mat_inv(a: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan; the result is verified by multiplication before return."""
    inverse = _eliminate(a)[1]
    if inverse is None:
        raise SingularMatrixError(f"matrix {a.rows} is singular mod {a.field.p}")
    result = Matrix(a.field, inverse)
    if mat_mul(a, result).rows != identity_rows(a.n):
        raise SingularMatrixError("inverse verification failed")  # pragma: no cover
    return result


def mat_pow(a: Matrix, k: int) -> Matrix:
    """Integer power; negative exponents go through the inverse."""
    k = as_integer(k, "exponent")
    if k < 0:
        return mat_pow(mat_inv(a), -k)
    result = Matrix.identity(a.n, a.field)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        k >>= 1
    return result
