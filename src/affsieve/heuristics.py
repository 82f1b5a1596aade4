"""Diagonalizable-group (torus) non-saturation heuristics: Hilbert-Schmidt
norm growth envelopes, prime-factor trend tables, and convergence of the
relevant Borel-Cantelli sums.

No randomness is simulated: the deterministic quantities and the bound sums
are computed side by side for comparison.  Evidence only; nothing here
asserts non-saturation.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .core_arith import Constructed, FactorBudget, factorize, ln_bracket
from .matgroup import MatrixQ


def hilbert_schmidt(x: MatrixQ) -> Fraction:
    """F(x) = Tr(x^t x) = sum of squared entries; F(I_n) = n."""
    return sum(e * e for row in x.entries for e in row)


class _TorusSpec(NamedTuple):
    generators: tuple[MatrixQ, ...]
    M: int


class TorusSpec(Constructed, _TorusSpec):
    __slots__ = ()

    def __new__(cls, generators, M):
        if not generators:
            raise ValueError("need at least one generator")
        if M < 1:
            raise ValueError("box radius must be >= 1")
        for a, b in itertools.combinations(generators, 2):
            if a @ b != b @ a:
                raise ValueError("generators must commute pairwise")
        return super().__new__(cls, generators, M)

    @property
    def rank(self) -> int:
        return len(self.generators)

    def power(self, m: Sequence[int]) -> MatrixQ:
        out = MatrixQ.identity(self.generators[0].n)
        for g, e in zip(self.generators, m):
            base = g if e >= 0 else g.inverse()
            for _ in range(abs(e)):
                out = out @ base
        return out


class GrowthEnvelope(NamedTuple):
    A1: float  # upper growth rate
    A2: float  # lower growth rate over escaping directions
    K: float  # envelope constant: A2^|m|/K <= F <= K A1^|m| on the box
    degenerate_directions: tuple[tuple[int, ...], ...]
    verified: bool  # some direction escapes, so the rates are fitted


def norm_growth_check(spec: TorusSpec) -> GrowthEnvelope:
    """Fit a two-sided exponential envelope for F(gamma^m) over the sup-norm
    box |m| <= M, M >= 3.

    Rates come from boundary values along primitive directions; directions
    where the exact F fails to grow past F(I) = n (eigenvalues on the unit
    circle, torsion) are reported as degenerate and excluded from the lower
    rate.  K is the largest ratio of F to either envelope side on the box, so
    the envelope holds there by construction; ``verified`` is False only when
    no direction escapes.
    """
    if spec.M < 3:
        raise ValueError("box radius must be >= 3")
    t = spec.rank
    n = spec.generators[0].n

    # primitive directions from the boundary shell
    directions = []
    seen = set()
    for m in itertools.product(range(-spec.M, spec.M + 1), repeat=t):
        if max(abs(c) for c in m) != spec.M:
            continue
        g = math.gcd(*[abs(c) for c in m])
        prim = tuple(c // g for c in m)
        if prim not in seen:
            seen.add(prim)
            directions.append(prim)

    rates_up = []
    rates_down = []
    degenerate = []
    exact = {m: hilbert_schmidt(spec.power(m)) for m in itertools.product(range(-spec.M, spec.M + 1), repeat=t)}
    values = {m: float(F) for m, F in exact.items()}
    for d in directions:
        steps = spec.M // max(abs(c) for c in d)
        boundary = tuple(c * steps for c in d)
        norm = max(abs(c) for c in boundary)
        # exact: for det 1, F >= n with equality only at orthogonal matrices
        if exact[boundary] <= n:
            degenerate.append(d)
            continue
        rate = values[boundary] ** (1.0 / norm)
        rates_up.append(rate)
        rates_down.append(rate)
    if not rates_up:
        return GrowthEnvelope(
            A1=1.0, A2=1.0, K=1.0, degenerate_directions=tuple(degenerate), verified=False
        )
    # the upper rate must cover interior points too (small |m| can have
    # larger per-step ratios)
    for m, F in values.items():
        norm = max((abs(c) for c in m), default=0)
        if norm >= 1:
            rates_up.append(F ** (1.0 / norm))
    A1 = max(rates_up)
    A2 = min(rates_down)

    degenerate_set = set()
    for d in degenerate:
        for s in range(1, spec.M + 1):
            degenerate_set.add(tuple(c * s for c in d))
    K = 1.0
    for m, F in values.items():
        norm = max((abs(c) for c in m), default=0)
        if norm == 0:
            continue
        K = max(K, F / A1**norm)
        if m not in degenerate_set:
            K = max(K, A2**norm / F)
    return GrowthEnvelope(
        A1=A1, A2=A2, K=K, degenerate_directions=tuple(degenerate), verified=True
    )


class TrendRow(NamedTuple):
    m: int
    value: int
    omega_distinct: Optional[int]  # None when factoring hit the budget
    omega_mult: Optional[int]
    running_min: Optional[int]  # min of omega_distinct over the dyadic window


class TrendTable(NamedTuple):
    rows: tuple[TrendRow, ...]
    incomplete: int


def prime_factor_trend(
    value_fn: Callable[[int], int],
    M: int,
    start: int = 1,
) -> TrendTable:
    """Per m <= M: distinct and with-multiplicity counts of the odd prime
    factors of value_fn(m), with the running minimum of the distinct count
    over each dyadic window [2^k, 2^(k+1)).

    value_fn must return an int (anything with ``__index__``); a Fraction
    or a float raises TypeError instead of being truncated.  The primes
    above the trial bound that earlier rows yielded are divided out of each
    value first, and only the rest goes to ``factorize``, whose default
    budget applies to that rest.  No extrapolation: rows where factoring
    exhausts the budget are marked.
    """
    rows = []
    incomplete = 0
    window = None
    window_min: Optional[int] = None
    bound = FactorBudget().trial_bound
    known: list[int] = []  # primes above the bound found by earlier rows
    known_product = 1
    for m in range(start, M + 1):
        if window != m.bit_length() - 1:
            window, window_min = m.bit_length() - 1, None
        v = operator.index(value_fn(m))
        if v == 0:
            rows.append(TrendRow(m, 0, None, None, window_min))
            incomplete += 1
            continue
        rest = abs(v)
        g = math.gcd(rest, known_product)
        exponents = {p: 0 for p in known if g % p == 0} if g > 1 else {}
        for p in exponents:
            while rest % p == 0:
                rest //= p
                exponents[p] += 1
        fac = factorize(rest)
        for p, e in fac.factors:
            exponents[p] = e
            if p > bound:
                known.append(p)
                known_product *= p
        if not fac.complete:
            rows.append(TrendRow(m, v, None, None, window_min))
            incomplete += 1
            continue
        w_d = sum(1 for p in exponents if p != 2)
        w_m = sum(e for p, e in exponents.items() if p != 2)
        window_min = w_d if window_min is None else min(window_min, w_d)
        rows.append(TrendRow(m, v, w_d, w_m, window_min))
    return TrendTable(rows=tuple(rows), incomplete=incomplete)


class BorelCantelliReport(NamedTuple):
    partial_sums: tuple[float, ...]  # upper ends at each checkpoint and at M, ascending
    partial_sums_lo: tuple[float, ...]  # the lower ends
    increments: tuple[float, ...]  # upper ends of the sums between consecutive checkpoints
    integral_bound: float  # upper end of the full series (M = inf), rounded up


def _shell_count(t: int, s: int) -> int:
    if s == 0:
        return 1
    return (2 * s + 1) ** t - (2 * s - 1) ** t


def _ln_outward(n: int) -> tuple[Fraction, Fraction]:
    """lo <= ln n <= hi for n >= 2: ``ln_bracket`` with 25 terms (80 bits)
    widened to multiples of 2^-64, so that powers of the ends stay small
    Fractions."""
    lo, hi = ln_bracket(n, 25)
    scale = 1 << 64
    return (
        Fraction(lo.numerator * scale // lo.denominator, scale),
        Fraction(-(-hi.numerator * scale // hi.denominator), scale),
    )


def _round_up(q: Fraction) -> float:
    x = float(q)  # correctly rounded
    return math.nextafter(x, math.inf) if x < q else x


def _round_down(q: Fraction) -> float:
    x = float(q)
    return math.nextafter(x, -math.inf) if x > q else x


# Terms {(b, q): c} stand for the sum of c u^b ln(u)^q, every b <= -1.

# B_2k / (2k)! for k = 1..8, the Euler-Maclaurin corrections.  The remainder
# after them is at most |B_16|/16! int |f^(16)|, and |B_2k|/(2k)! =
# 2 zeta(2k)/(2 pi)^2k < 4/6^2k.
_BERNOULLI = tuple(
    b / math.factorial(2 * k)
    for k, b in enumerate(
        (
            Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
            Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
        ),
        start=1,
    )
)
_REMAINDER = Fraction(4, 6 ** (2 * len(_BERNOULLI)))


def _summand(t: int, nu: int, power: int) -> dict:
    """f(u) = [(2u-1)^t - (2u-3)^t] ln(u)^power u^-nu: shell(u-1) for u >= 2."""
    return {
        (j - nu, power): math.comb(t, j) * 2**j * ((-1) ** (t - j) - (-3) ** (t - j))
        for j in range(t)
    }


def _derivative(terms: dict) -> dict:
    out = defaultdict(int)
    for (b, q), c in terms.items():
        out[b - 1, q] += c * b
        if q:
            out[b - 1, q - 1] += c * q
    return out


def _tail(terms: dict) -> dict:
    """The terms of the integral over [x, oo), every b <= -2: with a = -b - 1
    and substituting v = a ln u, int u^b ln(u)^q is the incomplete-gamma sum
    x^-a sum_{j<=q} (q!/j!) ln(x)^j / a^(q-j+1)."""
    out = defaultdict(int)
    for (b, q), c in terms.items():
        a = -b - 1
        for j in range(q + 1):
            out[b + 1, j] += c * Fraction(math.factorial(q) // math.factorial(j), a ** (q - j + 1))
    return out


def _evaluate(terms: dict, x: int, ln: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """[lo, hi] of the terms at x from 0 <= lo <= ln x <= hi: each term takes
    the end of the bracket that its sign calls for."""
    lo = hi = Fraction(0)
    for (b, q), c in terms.items():
        v = Fraction(c, x**-b)
        ends = (v * ln[0] ** q, v * ln[1] ** q)
        lo += min(ends)
        hi += max(ends)
    return lo, hi


def _increment_brackets(t: int, nu: int, power: int, cps: Sequence[float]) -> list[tuple[Fraction, Fraction]]:
    """[lo, hi] of the sum of shell(s) ln(s+1)^power / (s+1)^nu over
    prev < s <= cp for each of the ascending checkpoints cp (prev = 0 first;
    the last may be inf).

    In u = s + 1 the summand f is a sum of terms c u^b ln(u)^q, b <= -2, and
    so are its derivatives and integrals.  The head 2 <= u <= H is summed term
    by term from bracketed logarithms.  Past H, Euler-Maclaurin gives
    sum_{A<u<=B} f = Phi(B) - Phi(A) + R, Phi = -T + f/2 + sum_k B_2k/(2k)!
    f^(2k-1) with T(x) the integral of f over [x, oo) (every term of Phi
    vanishes at inf) and |R| <= 4/6^16 int_A^oo |f^(16)|, which assumes no
    monotonicity.  H doubles from 16 until every partial sum is at most
    1e-12 relative wide.
    """
    f = _summand(t, nu, power)
    derivs = [f]
    for _ in range(2 * len(_BERNOULLI)):
        derivs.append(_derivative(derivs[-1]))
    phi = defaultdict(int)
    for scale, terms in [(-1, _tail(f)), (Fraction(1, 2), f), *zip(_BERNOULLI, derivs[1::2])]:
        for key, c in terms.items():
            phi[key] += scale * c
    rest = _tail({key: abs(c) for key, c in derivs[-1].items()})
    # with power = 0 every q is 0, so the (dummy) logarithm is never read
    ln = functools.cache(_ln_outward if power else lambda x: (Fraction(0), Fraction(0)))

    @functools.cache
    def at(x):
        if x == math.inf:
            return Fraction(0), Fraction(0), Fraction(0)
        return (*_evaluate(phi, x, ln(x)), _REMAINDER * _evaluate(rest, x, ln(x))[1])

    ends = [cp + 1 for cp in cps]
    head = [(Fraction(0), Fraction(0))] * 2  # head[u]: the sum over 2 <= v <= u
    H = 16
    while True:
        while len(head) <= min(H, ends[-1]):
            u = len(head)
            c = Fraction(_shell_count(t, u - 1), u**nu)
            lo, hi = ln(u)
            head.append((head[-1][0] + c * lo**power, head[-1][1] + c * hi**power))
        out, lo_sum, hi_sum, prev, wide = [], 0, 0, 1, False
        for end in ends:
            top = min(end, H)
            lo, hi = (head[top][0] - head[prev][0], head[top][1] - head[prev][1]) if prev < top else (0, 0)
            if end > H:
                a_lo, a_hi, err = at(max(prev, H))
                b_lo, b_hi, _ = at(end)
                lo, hi = lo + b_lo - a_hi - err, hi + b_hi - a_lo + err
            out.append((lo, hi))
            lo_sum, hi_sum, prev = lo_sum + lo, hi_sum + hi, end
            wide = wide or (hi_sum - lo_sum) * 10**12 > lo_sum
        if not wide or H >= ends[-1]:
            return out
        H *= 2


def borel_cantelli_sum(
    t: int, nu: int, r: int, M: float, checkpoints: Sequence[int] = ()
) -> BorelCantelliReport:
    """Partial sums over m in Z^t, |m|_sup <= M of
    [log(|m|+1)]^(nu(r-1)) / (|m|+1)^nu, grouped by sup-norm shells.

    Convergent exactly when nu > t (enforced).  Every partial sum and
    increment is a certified bracket (``_increment_brackets``), at most 1e-12
    relative wide and rounded outward to floats; its cost does not grow with
    M, which may be inf (the full series).  ``integral_bound`` is the upper
    end of the full series' bracket from the same call, rounded up: at most
    1e-12 relative above the series for every (t, nu, r), and no reported
    partial sum exceeds it, since every increment's upper end is positive.
    """
    if not (nu > t >= 1):
        raise ValueError("need nu > t >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    cps = sorted(set(int(c) for c in checkpoints) | {M})
    if any(c < 1 for c in cps):
        raise ValueError("checkpoints must be >= 1")
    power = nu * (r - 1)
    base = 1 if power == 0 else 0  # s = 0 shell: log(1)^power / 1
    # one more checkpoint at inf when M is finite: the full series
    brackets = _increment_brackets(t, nu, power, cps if M == math.inf else [*cps, math.inf])
    sums = list(itertools.accumulate(brackets, lambda a, b: (a[0] + b[0], a[1] + b[1]), initial=(base, base)))
    reported = slice(1, len(cps) + 1)
    return BorelCantelliReport(
        partial_sums=tuple(_round_up(hi) for _, hi in sums[reported]),
        partial_sums_lo=tuple(_round_down(lo) for lo, _ in sums[reported]),
        increments=tuple(_round_up(hi) for _, hi in brackets[: len(cps)]),
        integral_bound=_round_up(sums[-1][1]),
    )
