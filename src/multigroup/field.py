"""Arithmetic in prime fields F_p.

Elements are plain ints in [0, p); the field object carries the modulus so
element values stay cheap to store in bulk.
"""

from typing import NamedTuple

from .errors import (ModulusMismatchError, NotPrimeError, TooLargeError, ZeroInverseError, as_integer,
                     integer_text)

# Miller-Rabin on the first twelve prime bases is exact below psi_12, the least strong
# pseudoprime to all twelve (Sorenson and Webster, Math. Comp. 86, 2017).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318_665_857_834_031_151_167_461


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin on _BASES; TooLargeError at or above PSI_12."""
    if n >= PSI_12:
        raise TooLargeError(f"primality is decided only below {PSI_12}")
    if n < 2 or any(n % q == 0 for q in _BASES):
        return n in _BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _BASES:
        x = pow(a, (n - 1) >> s, n)  # a witnesses n composite unless x = 1 or some x^(2^r) = -1
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


class _PrimeFieldFields(NamedTuple):
    p: int


class PrimeField(_PrimeFieldFields):
    """The field F_p. Primality is checked once at creation."""

    __slots__ = ()

    def __new__(cls, p: int):
        p = as_integer(p, "modulus")
        if not is_prime(p):
            raise NotPrimeError(f"modulus {integer_text(p)} is not prime")
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
