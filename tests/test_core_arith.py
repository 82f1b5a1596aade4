import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from affsieve import core_arith
from affsieve.core_arith import (
    FactorBudget,
    Factorization,
    check_prime_set,
    factorize,
    factorize_many,
    is_prime,
    ln_bracket,
    omega_outside,
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


# psi_t: the least strong pseudoprime to each of the first t prime bases
# (Jaeschke 1993; Sorenson and Webster 2017).
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)


def test_strong_pseudoprimes_psi_are_composite():
    for psi in PSI:
        assert not is_prime(psi), psi
    f = factorize(PSI[11])
    assert f.complete
    assert f.factors == ((399165290221, 1), (798330580441, 1))


def test_is_prime_matches_sympy_around_psi():
    for psi in sorted(set(PSI)):
        window = range(psi - 60, psi + 61)
        for n in [*window, sympy.prevprime(psi), sympy.nextprime(psi)]:
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_sympy_below_20000_and_around_101_squared():
    # is_prime takes an n < 101^2 with no factor <= 97 as prime without Miller-Rabin
    for n in [*range(-2, 20_000), *range(101**2 - 200, 101**2 + 201)]:
        assert is_prime(n) == sympy.isprime(n), n


def test_check_prime_set():
    assert check_prime_set([5, 3, 3, 2]) == (2, 3, 5)
    with pytest.raises(ValueError):
        check_prime_set([4])


@pytest.mark.parametrize("S", [[2.5], [3.0, 2], [Fraction(2)], [2, 3.0]])
def test_check_prime_set_rejects_inexact_entries(S):
    # int() would truncate 2.5 to the prime 2
    with pytest.raises(TypeError):
        check_prime_set(S)


def test_checked_prime_set_is_read_as_is_and_a_plain_one_is_checked():
    S = check_prime_set([3, 2])
    assert check_prime_set(S) is S
    assert omega_outside(60, S) == 1
    assert s_integer_part(Fraction(-5, 12), S) == 5
    # an S that check_prime_set has not returned is validated on every call
    for bad, error in (((4,), ValueError), ([2, 4], ValueError), ((2.0,), TypeError)):
        with pytest.raises(error):
            omega_outside(12, bad)
        with pytest.raises(error):
            s_integer_part(12, bad)


def test_factorize_exact():
    f = factorize(561)
    assert f.complete
    assert f.factors == ((3, 1), (11, 1), (17, 1))
    assert f.sign * math.prod(p**e for p, e in f.factors) * f.cofactor == 561

    f = factorize(-360)
    assert f.sign == -1
    assert f.factors == ((2, 3), (3, 2), (5, 1))
    assert f.sign * math.prod(p**e for p, e in f.factors) * f.cofactor == -360
    assert f.omega() == 6


def test_factorize_budget_failure_is_a_value():
    # product of two ~130-bit primes; starved budget must yield a cofactor
    p = 680564733841876926926749214863536422929
    q = 680564733841876926926749214863536422951
    hard = p * q
    f = factorize(hard, FactorBudget(trial_bound=100, rho_iterations=10))
    assert not f.complete
    assert f.sign * math.prod(p**e for p, e in f.factors) * f.cofactor == hard
    assert f.omega() is None


def factorize_per_prime(n: int, budget: FactorBudget = FactorBudget()) -> Factorization:
    """Reference for factorize: trial division one prime at a time, then the
    same Brent-rho splitting of what is left."""
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors: dict[int, int] = {}
    for p in primes_upto(budget.trial_bound):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    cofactor = 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = core_arith._brent_rho(m, budget.rho_iterations)
        if d is None:
            cofactor *= m
            continue
        stack += [d, m // d]
    return Factorization(sign=sign, factors=tuple(sorted(factors.items())), cofactor=cofactor)


TRIAL_BOUNDS = (2, 3, 100, 10_000, 10_007)
# the first and last prime of every trial chunk, and the primes beside each bound
EDGE_PRIMES = sorted(
    {p for b in TRIAL_BOUNDS for first, _, chunk in core_arith._trial_chunks(b) for p in (first, chunk[-1])}
    | {q for b in TRIAL_BOUNDS for q in (sympy.prevprime(b + 1), sympy.nextprime(b))}
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(EDGE_PRIMES), st.integers(1, 3)), max_size=4),
    st.lists(st.integers(2**20, 2**34), max_size=2),
    st.sampled_from(TRIAL_BOUNDS),
    st.sampled_from((1, 50, 2_000, 20_000_000)),
    st.sampled_from((1, -1)),
)
def test_chunked_trial_division_matches_per_prime(powers, large, trial_bound, rho, sign):
    n = sign
    for p, e in powers:
        n *= p**e
    for x in large:  # a large prime, or with two of them a large semiprime
        n *= sympy.nextprime(x)
    budget = FactorBudget(trial_bound=trial_bound, rho_iterations=rho)
    assert factorize(n, budget) == factorize_per_prime(n, budget)


def _trial_value(powers, large, sign):
    n = sign
    for p, e in powers:
        n *= p**e
    for x in large:
        n *= sympy.nextprime(x)
    return n


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.sampled_from(EDGE_PRIMES), st.integers(1, 3)), max_size=3),
            st.lists(st.integers(2**10, 2**22), max_size=2),
            st.sampled_from((1, -1)),
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from((0, 1, 256, 257)),
    st.sampled_from(TRIAL_BOUNDS),
    st.sampled_from((1, 50, 2_000, 20_000_000)),
)
def test_factorize_many_matches_factorize(drawn, size, trial_bound, rho):
    # a pool with 1 and a negative value, repeated to fill blocks of 256 and 257
    pool = [_trial_value(*v) for v in drawn]
    pool += [1, -pool[0]]
    values = [pool[i % len(pool)] for i in range(size)]
    budget = FactorBudget(trial_bound=trial_bound, rho_iterations=rho)
    expected = {v: factorize(v, budget) for v in pool}
    for v, fac in expected.items():
        assert fac == factorize_per_prime(v, budget)
    assert factorize_many(values, budget) == [expected[v] for v in values]
    with pytest.raises(ValueError):
        factorize_many([*values, 0], budget)


@pytest.mark.parametrize("bound", [*TRIAL_BOUNDS, 90, -5])
def test_prime_cutoff_is_strict(bound):
    # every trial prime is tried, so a part left below (bound + 1)^2 is prime;
    # q^2 with q the next prime is not, and for prime bound + 1 it sits on the
    # cutoff.  A bound below 2 tries no prime, and the cutoff is 2^2.
    budget = FactorBudget(trial_bound=bound)
    q = sympy.nextprime(bound)
    values = [q * q, q * sympy.nextprime(q), 2 * q * q]
    for v, fac in zip(values, factorize_many(values, budget)):
        assert fac.complete
        assert fac == factorize(v, budget) == factorize_per_prime(v, budget)
        assert dict(fac.factors) == sympy.factorint(v)


def test_trial_chunks_cover_the_trial_primes():
    for bound in TRIAL_BOUNDS:
        chunks = core_arith._trial_chunks(bound)
        assert [p for _, _, chunk in chunks for p in chunk] == primes_upto(bound)
        assert all(first == chunk[0] and product == math.prod(chunk) for first, product, chunk in chunks)


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
    assert omega_outside(1, []) == 0
    assert omega_outside(-30, [3]) == 2
    with pytest.raises(ValueError):
        omega_outside(0, [])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6), st.integers(2, 10**6))
def test_omega_additive(a, b):
    assert omega_outside(a * b, []) == omega_outside(a, []) + omega_outside(b, [])


def test_s_integer_part():
    assert s_integer_part(Fraction(-12, 35), [5, 7]) == 12
    assert s_integer_part(Fraction(9, 2), [2]) == 9
    assert s_integer_part(40, [2]) == 5
    # denominator prime outside S: mis-declared S-integer
    with pytest.raises(ValueError):
        s_integer_part(Fraction(1, 3), [2])


@pytest.mark.parametrize("q", [0.1, 40.0, True, "40", None])
def test_s_integer_part_rejects_inexact_values(q):
    # Fraction(0.1) is the float's binary expansion, 3602879701896397 / 2**55
    with pytest.raises(TypeError):
        s_integer_part(q, [2, 5])


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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**30), st.sampled_from([1, 4, 16, 25, 64]))
def test_ln_bracket_contains_ln_and_narrows(n, terms):
    import mpmath

    lo, hi = ln_bracket(n, terms)
    with mpmath.workdps(120):
        ln = mpmath.log(n)
        assert mpmath.mpf(lo.numerator) / lo.denominator < ln < mpmath.mpf(hi.numerator) / hi.denominator
    # the fixed-point grid is 2^-(3 terms + 5), and more terms narrow the bracket
    assert (lo * 2 ** (3 * terms + 5)).denominator == 1
    lo2, hi2 = ln_bracket(n, 2 * terms)
    assert hi2 - lo2 < hi - lo
