"""Arithmetic in prime fields F_p.

Elements are plain ints in [0, p); the field object carries the modulus so
element values stay cheap to store in bulk.
"""

from typing import NamedTuple

from .errors import ModulusMismatchError, NotPrimeError, ZeroInverseError


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class _PrimeFieldFields(NamedTuple):
    p: int


class PrimeField(_PrimeFieldFields):
    """The field F_p. Primality is checked once at creation."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p):
            raise NotPrimeError(f"modulus {p} is not prime")
        return super().__new__(cls, p)

    def element(self, value: int) -> int:
        return value % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse by Fermat; zero is rejected."""
        a %= self.p
        if a == 0:
            raise ZeroInverseError(f"0 has no inverse in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)


def same_field(a: PrimeField, b: PrimeField) -> PrimeField:
    if a.p != b.p:
        raise ModulusMismatchError(f"mixed moduli {a.p} and {b.p}")
    return a
