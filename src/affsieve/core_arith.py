"""Exact integer and rational arithmetic: the scalar rule ``exact``, budgeted
factorization, p-adic valuations, S-integer parts, S-units and rational
brackets for ln n.

Everything here is a pure function on immutable values.  Factorization
failure is a value (``complete=False``), not an exception, so census-style
callers can skip-and-report instead of dying mid-pipeline.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from fractions import Fraction
from functools import cache
from typing import Iterable, NamedTuple, Optional

# Miller-Rabin bases by size.  psi_t is the least strong pseudoprime to each
# of the first t prime bases (Jaeschke 1993; Sorenson and Webster, Math.
# Comp. 2017), so for n < psi_t the first t bases decide primality exactly.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (
    2_047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)

# From psi_13 (about 3.3 * 10^24) on, 128 pseudo-random bases (seeded from n,
# so reruns are bit-identical): a composite passes with probability below
# 4^-128.
_MR_ROUNDS_LARGE = 128

# Trial division takes the gcd of n with the product of this many consecutive
# trial primes, and divides only inside a chunk that shares a factor with n.
_TRIAL_CHUNK = 24


def exact(x) -> int | Fraction:
    """x as an exact scalar: an int when x is integral, a Fraction otherwise.
    Matrices and polynomials built from outside values pass through here, so
    integer data stays in int arithmetic."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(2, n + 1) if sieve[i]]


_SMALL_PRIMES = primes_upto(1000)


@cache
def _trial_chunks(bound: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(first prime, product, primes) for consecutive runs of _TRIAL_CHUNK
    primes <= bound, in increasing order."""
    primes = primes_upto(bound)
    chunks = (primes[i : i + _TRIAL_CHUNK] for i in range(0, len(primes), _TRIAL_CHUNK))
    return tuple((chunk[0], math.prod(chunk), tuple(chunk)) for chunk in chunks)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:25]:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    t = bisect_right(_MR_PSI, n) + 1  # n < psi_t
    if t <= len(_MR_PSI):
        bases: Iterable[int] = _MR_BASES[:t]
    else:
        rng = random.Random(n)
        bases = (rng.randrange(2, n - 1) for _ in range(_MR_ROUNDS_LARGE))
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _PrimeSet(tuple):
    """A prime set as check_prime_set returns it: sorted, distinct, checked."""

    __slots__ = ()


def check_prime_set(S: Iterable[int]) -> tuple[int, ...]:
    """Validate and canonicalize a finite set of primes (sorted, distinct).
    Entries are read as integers by ``operator.index``, so a float or a
    Fraction is a TypeError; a set this function returned comes back as is."""
    if type(S) is _PrimeSet:
        return S
    out = sorted(set(map(operator.index, S)))
    for p in out:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime; prime sets must contain primes only")
    return _PrimeSet(out)


class Constructed:
    """Base for a subclass of a NamedTuple: ``_make``, and so ``_replace``,
    build through the constructor, so a ``__new__`` that normalizes or
    checks the fields runs on every instance, and a ``__len__`` that counts
    elements is never taken for the number of fields."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class FactorBudget(NamedTuple):
    trial_bound: int = 10_000
    rho_iterations: int = 20_000_000


class Factorization(NamedTuple):
    """Partial or complete factorization: value = sign * prod(p^e) * cofactor."""

    sign: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), sorted by prime
    cofactor: int = 1

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def omega(self) -> Optional[int]:
        """Number of prime factors with multiplicity; None when the
        factorization is incomplete."""
        if not self.complete:
            return None
        return sum(e for _, e in self.factors)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def _brent_rho(n: int, max_iterations: int) -> Optional[int]:
    """Brent's cycle variant of Pollard rho; returns a nontrivial divisor or None.

    Deterministic: the (y0, c) seeds are tried in a fixed order.
    """
    if n % 2 == 0:
        return 2
    spent = 0
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                k += m
                g = math.gcd(q, n)
            r *= 2
            spent += r
            if spent > max_iterations:
                return None
        if g == n:
            # backtrack one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # cycle collapsed; retry with the next c
    return None


def factorize(n: int, budget: FactorBudget = FactorBudget()) -> Factorization:
    """Factor n within an explicit effort budget.

    Trial division up to ``budget.trial_bound``, then Brent-rho splitting with
    a Miller-Rabin test of every factor.  Trial division takes the gcd of n
    with each chunk's product of primes and divides only where it is not 1;
    it stops at the first chunk whose least prime squared exceeds what is
    left of n, which is then 1 or a prime.  A surviving composite part is
    returned as ``cofactor`` with ``complete=False``.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors: dict[int, int] = {}
    for first, product, chunk in _trial_chunks(budget.trial_bound):
        if first * first > n:
            break  # n is 1 or a prime
        g = math.gcd(n, product)
        if g == 1:
            continue
        for p in chunk:
            if g % p == 0:
                e = 0
                while n % p == 0:
                    n //= p
                    e += 1
                factors[p] = e
    cofactor = 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        # every prime factor of m exceeds the trial bound
        d = _brent_rho(m, budget.rho_iterations)
        if d is None:
            cofactor *= m
            continue
        stack.append(d)
        stack.append(m // d)
    items = tuple(sorted(factors.items()))
    return Factorization(sign=sign, factors=items, cofactor=cofactor)


def omega_outside(
    n: int, S: Iterable[int], budget: FactorBudget = FactorBudget()
) -> Optional[int]:
    """Count prime factors of n outside S, with multiplicity (almost-prime
    convention); None when factoring hit the budget."""
    if n == 0:
        raise ValueError("omega_outside undefined at 0")
    n = abs(n)
    for p in check_prime_set(S):
        while n % p == 0:
            n //= p
    if n == 1:
        return 0
    return factorize(n, budget).omega()


def s_integer_part(q: Fraction | int, S: Iterable[int]) -> int:
    """prod_{p not in S} |q|_p^{-1}: the value of q 'as an S-integer'.

    q must be exact, an int or a Fraction (TypeError otherwise), and every
    prime of its denominator must lie in S, otherwise the input was
    mis-declared as an S-integer.
    """
    if type(q) is not int and type(q) is not Fraction:
        raise TypeError(f"s_integer_part needs an int or a Fraction, not {type(q).__name__}")
    if q == 0:
        raise ValueError("s_integer_part undefined at 0")
    S = check_prime_set(S)
    den = q.denominator
    for p in S:
        while den % p == 0:
            den //= p
    if den != 1:
        raise ValueError(
            f"denominator of {q} has a prime factor outside S={list(S)}"
        )
    n = abs(q.numerator)
    for p in S:
        while n % p == 0:
            n //= p
    return n


def ln_bracket(n: int, terms: int) -> tuple[Fraction, Fraction]:
    """lo < ln n < hi for n >= 2, multiples of 2^-bits, bits = 3 terms + 5.
    With n = 2^k m, 1 <= m < 2, ln n = 2k atanh(1/3) + 2 atanh(y),
    y = (m-1)/(m+1) < 1/3; each atanh(y) = sum_j y^(2j+1)/(2j+1) is cut after
    ``terms`` terms, and the rest is below the geometric bound
    y^(2 terms+1) / ((2 terms+1)(1 - y^2)) <= 9 y^(2 terms+1) / (8 (2 terms+1)).
    The head runs in fixed point: the lower end floors every product and
    quotient, the upper end takes ceilings and adds the rest.  The rest is
    below 3^-(2 terms+1), about 2^-(3.17 terms), which the precision matches,
    so both ends close in on ln n as ``terms`` grows."""
    bits = 3 * terms + 5
    k = n.bit_length() - 1
    ends = []
    for div in (lambda a, b: a // b, lambda a, b: -(-a // b)):
        total = 0
        for num, den, weight in ((1, 3, 2 * k), (n - 2**k, n + 2**k, 2)):
            p, y2, series = div(num << bits, den), div(num * num << bits, den * den), 0
            for j in range(terms):
                series += div(p, 2 * j + 1)
                p = div(p * y2, 1 << bits)
            total += weight * (series + (div(9 * p, 8 * (2 * terms + 1)) if ends else 0))
        ends.append(Fraction(total, 1 << bits))
    return ends[0], ends[1]
