"""Diagonalizable-group (torus) non-saturation heuristics: Hilbert-Schmidt
norm growth envelopes, prime-factor trend tables, and convergence of the
relevant Borel-Cantelli sums.

No randomness is simulated: the deterministic quantities and the bound sums
are computed side by side for comparison.  Evidence only; nothing here
asserts non-saturation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core_arith import FactorBudget, check_prime_set, factorize, ln_bracket
from .matgroup import MatrixQ


def hilbert_schmidt(x: MatrixQ) -> Fraction:
    """F(x) = Tr(x^t x) = sum of squared entries; F(I_n) = n."""
    return sum(e * e for row in x.entries for e in row)


@dataclass(frozen=True)
class TorusSpec:
    generators: tuple[MatrixQ, ...]
    M: int

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator")
        if self.M < 1:
            raise ValueError("box radius must be >= 1")
        for a, b in itertools.combinations(self.generators, 2):
            if a @ b != b @ a:
                raise ValueError("generators must commute pairwise")

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


@dataclass(frozen=True)
class GrowthEnvelope:
    A1: float  # upper growth rate
    A2: float  # lower growth rate over escaping directions
    K: float  # envelope constant: A2^|m|/K <= F <= K A1^|m| on the box
    degenerate_directions: tuple[tuple[int, ...], ...]
    verified: bool


def norm_growth_check(spec: TorusSpec) -> GrowthEnvelope:
    """Fit a two-sided exponential envelope for F(gamma^m) over the sup-norm
    box |m| <= M, M >= 3, and verify it pointwise.

    Rates come from boundary values along primitive directions; directions
    where F fails to grow past F(I) (eigenvalues on the unit circle, torsion)
    are reported as degenerate and excluded from the lower rate.
    """
    if spec.M < 3:
        raise ValueError("box radius must be >= 3")
    t = spec.rank
    n = spec.generators[0].n
    F_I = float(n)

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
    values: dict[tuple[int, ...], float] = {}
    for m in itertools.product(range(-spec.M, spec.M + 1), repeat=t):
        values[m] = float(hilbert_schmidt(spec.power(m)))
    for d in directions:
        steps = spec.M // max(abs(c) for c in d)
        boundary = tuple(c * steps for c in d)
        Fb = values[boundary]
        norm = max(abs(c) for c in boundary)
        if Fb <= F_I + 1e-9:
            degenerate.append(d)
            continue
        rate = Fb ** (1.0 / norm)
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
    verified = True
    for m, F in values.items():
        norm = max((abs(c) for c in m), default=0)
        if norm == 0:
            continue
        if F > K * A1**norm * (1 + 1e-12):
            verified = False
        if m not in degenerate_set and F * K < A2**norm * (1 - 1e-12):
            verified = False
    return GrowthEnvelope(
        A1=A1, A2=A2, K=K, degenerate_directions=tuple(degenerate), verified=verified
    )


@dataclass(frozen=True)
class TrendRow:
    m: int
    value: int
    omega_distinct: Optional[int]  # None when factoring hit the budget
    omega_mult: Optional[int]
    running_min: Optional[int]  # min of omega_distinct over the dyadic window


@dataclass(frozen=True)
class TrendTable:
    rows: tuple[TrendRow, ...]
    incomplete: int


def prime_factor_trend(
    value_fn: Callable[[int], int],
    M: int,
    S: Iterable[int] = (),
    budget: FactorBudget = FactorBudget(),
    start: int = 1,
) -> TrendTable:
    """Per m <= M: distinct and with-multiplicity counts of the odd prime
    factors of value_fn(m) outside S, with the running minimum of the
    distinct count over each dyadic window [2^k, 2^(k+1)).

    No extrapolation: rows where factoring exhausts its budget are marked.
    """
    Sset = set(check_prime_set(S))
    rows = []
    incomplete = 0
    window_start = None
    window_min: Optional[int] = None
    for m in range(start, M + 1):
        v = int(value_fn(m))
        if v == 0:
            rows.append(TrendRow(m, 0, None, None, window_min))
            incomplete += 1
            continue
        fac = factorize(abs(v), budget)
        if not fac.complete:
            rows.append(TrendRow(m, v, None, None, window_min))
            incomplete += 1
            continue
        kept = [(p, e) for p, e in fac.factors if p not in Sset and p != 2]
        w_d = len(kept)
        w_m = sum(e for _, e in kept)
        k = m.bit_length() - 1
        if window_start != k:
            window_start = k
            window_min = w_d
        else:
            window_min = w_d if window_min is None else min(window_min, w_d)
        rows.append(TrendRow(m, v, w_d, w_m, window_min))
    return TrendTable(rows=tuple(rows), incomplete=incomplete)


@dataclass(frozen=True)
class BorelCantelliReport:
    partial_sums: tuple[float, ...]  # at each checkpoint and at M, ascending
    increments: tuple[float, ...]  # sums between consecutive checkpoints
    integral_bound: float  # upper bound for the full sum (integral test), rounded up


def _shell_count(t: int, s: int) -> int:
    if s == 0:
        return 1
    return (2 * s + 1) ** t - (2 * s - 1) ** t


def _ln_outward(n: int) -> tuple[Fraction, Fraction]:
    """lo <= ln n <= hi for n >= 2: ``ln_bracket`` widened to multiples of
    2^-64, so that powers of the ends stay small Fractions."""
    lo, hi = ln_bracket(n, 16)
    scale = 1 << 64
    return (
        Fraction(lo.numerator * scale // lo.denominator, scale),
        Fraction(-(-hi.numerator * scale // hi.denominator), scale),
    )


def _tail_upper(t: int, nu: int, power: int, H: int) -> Fraction:
    """An upper bound for the integral over [H, oo) of
    2t (3x)^(t-1) ln(x+1)^power / (x+1)^nu, nu > t.  With u = ln(x+1) and
    (e^u - 1)^(t-1) expanded binomially it is
    2t 3^(t-1) sum_i C(t-1,i) (-1)^(t-1-i) (H+1)^-a P_a(u0), a = nu-1-i >= 1,
    P_a(u0) = sum_{j<=power} (power!/j!) u0^j / a^(power-j+1), u0 = ln(H+1).
    P_a increases in u0 >= 0, so each term takes the end of u0's bracket that
    makes it larger."""
    lo, hi = _ln_outward(H + 1)
    total = Fraction(0)
    for i in range(t):
        a = nu - 1 - i
        c = Fraction(math.comb(t - 1, i) * (-1) ** (t - 1 - i), (H + 1) ** a)
        u = hi if c > 0 else lo
        P = sum(
            Fraction(math.factorial(power) // math.factorial(j), a ** (power - j + 1)) * u**j
            for j in range(power + 1)
        )
        total += c * P
    return 2 * t * 3 ** (t - 1) * total


def _round_up(q: Fraction) -> float:
    x = float(q)  # correctly rounded
    return math.nextafter(x, math.inf) if x < q else x


def borel_cantelli_sum(
    t: int, nu: int, r: int, M: int, checkpoints: Sequence[int] = ()
) -> BorelCantelliReport:
    """Partial sums over m in Z^t, |m|_sup <= M of
    [log(|m|+1)]^(nu(r-1)) / (|m|+1)^nu, grouped by sup-norm shells.

    Convergent exactly when nu > t (enforced); the integral-test bound covers
    the infinite tail so partial sums must stay below it.  The partial sums
    are floats; the bound is computed in Fractions from rational brackets of
    every logarithm and rounded up to a float.
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
    import numpy as np

    power = nu * (r - 1)
    sums = []
    total = 1.0 if power == 0 else 0.0  # s = 0 shell: log(1)^power / 1
    prev = 0
    for cp in cps:
        s = np.arange(prev + 1, cp + 1, dtype=np.float64)
        shells = (2 * s + 1) ** t - (2 * s - 1) ** t
        total += float(np.sum(shells * np.log(s + 1) ** power / (s + 1) ** nu))
        sums.append(total)
        prev = cp
    increments = tuple(
        sums[i] - (sums[i - 1] if i else (1.0 if power == 0 else 0.0))
        for i in range(len(sums))
    )
    # integral-test tail bound: shell(s) <= 2t(2s+1)^(t-1) <= 2t(3s)^(t-1)
    # for s >= 1, and the summand is decreasing for s+1 > e^(power/nu).  The
    # head sums the shells 1..head_end exactly; the integral from head_end
    # bounds every later shell.
    head_end = max(2, math.floor(math.exp(power / nu)))
    head = sum(
        _shell_count(t, s) * _ln_outward(s + 1)[1] ** power / (s + 1) ** nu
        for s in range(1, head_end + 1)
    )
    base = 1 if power == 0 else 0
    bound = _round_up(base + head + _tail_upper(t, nu, power, head_end))
    return BorelCantelliReport(partial_sums=tuple(sums), increments=increments, integral_bound=bound)
