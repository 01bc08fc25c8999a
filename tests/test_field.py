import math

import pytest
from hypothesis import given, strategies as st

from multigroup.errors import ModulusMismatchError, TooLargeError, ZeroInverseError
from multigroup.field import PSI_12, PrimeField, is_prime, same_field

PRIMES = (2, 3, 5, 7, 11, 13)


def egcd_inverse(a, p):
    """Independent inverse via extended Euclid."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def test_is_prime_small_values():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(50) if is_prime(n)} == expected


def trial_division(n):
    """The reference: n >= 2 with no divisor d, 2 <= d <= sqrt(n)."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return n >= 2


def test_is_prime_agrees_with_trial_division_below_ten_to_the_five():
    assert [n for n in range(-3, 10**5) if is_prime(n)] == [n for n in range(2, 10**5) if trial_division(n)]


@pytest.mark.parametrize("factors, passes", [
    ((151, 751, 28351), (2, 3, 5, 7)),
    ((149491, 747451, 34233211), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
])
def test_strong_pseudoprimes_to_the_first_bases_are_called_composite(factors, passes):
    n = math.prod(factors)
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in passes:  # n is a strong probable prime to each of these bases
        x = pow(a, d, n)
        assert x in (1, n - 1) or n - 1 in [pow(x, 2**r, n) for r in range(1, s)]
    assert not is_prime(n)


def test_large_primes_are_decided_fast_and_moduli_past_psi_12_are_refused():
    assert is_prime(10**14 + 31) and is_prime(2**61 - 1) and not is_prime(PSI_12 - 1)
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    for p in (PSI_12, PSI_12 + 2, 10**40):
        with pytest.raises(TooLargeError, match=f"^primality is decided only below {PSI_12}$"):
            PrimeField(p)


@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, 49])
def test_composite_modulus_rejected(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


@pytest.mark.parametrize("p", PRIMES)
def test_operations_match_int_arithmetic(p):
    fld = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert fld.add(a, b) == (a + b) % p
            assert fld.sub(a, b) == (a - b) % p
            assert fld.mul(a, b) == (a * b) % p
        assert fld.neg(a) == (-a) % p
        assert fld.element(a + 3 * p) == a


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_matches_euclid_oracle(p):
    fld = PrimeField(p)
    for a in range(1, p):
        got = fld.inv(a)
        assert got == egcd_inverse(a, p)
        assert fld.mul(a, got) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroInverseError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroInverseError):
        PrimeField(7).inv(14)


def test_elements_is_full_range():
    assert list(PrimeField(5).elements()) == [0, 1, 2, 3, 4]


def test_same_field_rejects_mixed_moduli():
    assert same_field(PrimeField(3), PrimeField(3)).p == 3
    with pytest.raises(ModulusMismatchError):
        same_field(PrimeField(3), PrimeField(5))


@given(st.sampled_from(PRIMES), st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_field_ops_agree_with_python_ints(p, a, b):
    fld = PrimeField(p)
    assert fld.add(a, b) == (a + b) % p
    assert fld.mul(a, b) == (a * b) % p
    assert fld.sub(a, b) == (a - b) % p
