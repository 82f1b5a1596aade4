import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsieve.core_arith import (
    FactorBudget,
    check_prime_set,
    factorize,
    is_prime,
    omega_outside,
    padic_valuation,
    primes_upto,
    s_integer_part,
)


def is_unit_in_ZS(q: Fraction | int, S) -> bool:
    """True iff all primes of numerator and denominator lie in S."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 is not a unit anywhere")
    Sset = check_prime_set(S)
    for n in (abs(q.numerator), q.denominator):
        for p in Sset:
            while n % p == 0:
                n //= p
        if n != 1:
            return False
    return True


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    # Carmichael number: fools Fermat, not Miller-Rabin
    assert not is_prime(561)
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # classic composite Mersenne


def test_check_prime_set():
    assert check_prime_set([5, 3, 3, 2]) == (2, 3, 5)
    with pytest.raises(ValueError):
        check_prime_set([4])


def test_factorize_exact():
    f = factorize(561)
    assert f.complete
    assert f.factors == ((3, 1), (11, 1), (17, 1))
    assert f.value() == 561

    f = factorize(-360)
    assert f.sign == -1
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.value() == -360
    assert f.omega() == 6
    assert f.omega(with_multiplicity=False) == 3


def test_factorize_budget_failure_is_a_value():
    # product of two ~130-bit primes; starved budget must yield a cofactor
    p = 680564733841876926926749214863536422929
    q = 680564733841876926926749214863536422951
    hard = p * q
    f = factorize(hard, FactorBudget(trial_bound=100, rho_iterations=10))
    assert not f.complete
    assert f.value() == hard
    assert f.omega() is None


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_factorize_multiplicative(a, b):
    fa, fb, fab = factorize(a), factorize(b), factorize(a * b)
    assert fa.complete and fb.complete and fab.complete
    merged: dict[int, int] = {}
    for f in (fa, fb):
        for p, e in f.factors:
            merged[p] = merged.get(p, 0) + e
    assert dict(fab.factors) == merged


def test_omega_outside_examples():
    assert omega_outside(360, [2]) == 3  # 3^2 * 5
    assert omega_outside(360, [2], with_multiplicity=False) == 2
    assert omega_outside(1, []) == 0
    assert omega_outside(-30, [3]) == 2
    with pytest.raises(ValueError):
        omega_outside(0, [])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_omega_additive(a, b):
    assert omega_outside(a * b, []) == omega_outside(a, []) + omega_outside(b, [])


def test_padic_valuation():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(Fraction(9, 2), 2) == -1
    assert padic_valuation(Fraction(9, 2), 3) == 2
    assert padic_valuation(Fraction(-12, 35), 5) == -1
    with pytest.raises(ValueError):
        padic_valuation(0, 2)


def test_s_integer_part():
    assert s_integer_part(Fraction(-12, 35), [5, 7]) == 12
    assert s_integer_part(Fraction(9, 2), [2]) == 9
    assert s_integer_part(40, [2]) == 5
    # denominator prime outside S: mis-declared S-integer
    with pytest.raises(ValueError):
        s_integer_part(Fraction(1, 3), [2])


@settings(max_examples=40, deadline=None)
@given(st.integers(-10**6, 10**6).filter(lambda n: n != 0))
def test_s_integer_part_strips_exactly_S(n):
    S = (2, 3)
    m = s_integer_part(n, S)
    assert m > 0 and m % 2 and m % 3
    # n / m is a unit in Z_S
    assert is_unit_in_ZS(Fraction(abs(n), m), S)


def test_is_unit_in_ZS():
    assert is_unit_in_ZS(Fraction(4, 9), [2, 3])
    assert not is_unit_in_ZS(Fraction(4, 9), [2])
    assert is_unit_in_ZS(-8, [2])
    with pytest.raises(ValueError):
        is_unit_in_ZS(0, [2])
