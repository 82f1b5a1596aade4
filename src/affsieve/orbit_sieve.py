"""Sieving polynomial values over word-metric balls: sequences a_n(L), moduli
decompositions with exact remainders, level-distribution reports, sieve
dimension fits, truncated inclusion-exclusion brackets, almost-prime
censuses, an empirical saturation estimator, and the explicit r formula.

All counts and remainders are exact; floats appear only in fitted slopes and
report summaries.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .core_arith import (
    FactorBudget,
    check_prime_set,
    factorize,
    ln_bracket,
    omega_outside,
    primes_upto,
    s_integer_part,
)
from .matgroup import GeneratorSet, ball, entry_variable_names
from .polyalg import MultiPoly, zariski_density_test


class SieveSequence(NamedTuple):
    """Multiset of S-integer values of f over a ball: n -> a_n(L)."""

    L: int
    S_used: tuple[int, ...]
    entries: dict[int, int]
    skipped: int  # f(gamma) = 0 (points on V(f))

    @property
    def X(self) -> int:
        return sum(self.entries.values())

    def sifted_count(self, z: int) -> int:
        """Exact count of entries with no prime factor <= z outside S."""
        small = [p for p in primes_upto(z) if p not in self.S_used]
        total = 0
        for n, a in self.entries.items():
            if all(n % p for p in small):
                total += a
        return total


def build_sequence(
    gens: GeneratorSet,
    f: MultiPoly,
    L: int,
    S: Iterable[int] = (),
    cap: int = 5_000_000,
) -> SieveSequence:
    Sset = check_prime_set(S)
    entries: dict[int, int] = {}
    skipped = 0
    for _, val in ball(gens, L, cap=cap).values(f):
        if val == 0:
            skipped += 1
            continue
        n = s_integer_part(val, Sset)
        entries[n] = entries.get(n, 0) + 1
    return SieveSequence(L=L, S_used=Sset, entries=entries, skipped=skipped)


def _squarefree_upto(D: int) -> list[int]:
    out = []
    for d in range(1, D + 1):
        fac = factorize(d) if d > 1 else None
        if fac is None or all(e == 1 for _, e in fac.factors):
            out.append(d)
    return out


class ModuliDecomposition(NamedTuple):
    D: int
    X: int
    rows: dict[int, tuple[int, Fraction, Fraction]]  # d -> (A_d, beta(d)*X, r_d)

    def remainders(self) -> dict[int, Fraction]:
        return {d: row[2] for d, row in self.rows.items()}


def moduli_decomposition(
    seq: SieveSequence, beta: Callable[[int], Fraction], D: int
) -> ModuliDecomposition:
    if D < 1:
        raise ValueError(f"the level D must be >= 1, not {D}")
    X = seq.X
    rows = {}
    for d in _squarefree_upto(D):
        A_d = sum(a for n, a in seq.entries.items() if n % d == 0)
        pred = Fraction(beta(d)) * X
        rows[d] = (A_d, pred, A_d - pred)
    return ModuliDecomposition(D=D, X=X, rows=rows)


class LevelReport(NamedTuple):
    D: int
    abs_sum: Fraction
    abs_max: Fraction
    least_tau: Optional[Fraction]  # smallest grid tau passing the level bound
    tau_grid: tuple[Fraction, ...]


def level_distribution_report(
    decomp: ModuliDecomposition,
    tau_grid: Sequence[Fraction],
    dim: int,
) -> LevelReport:
    """Empirical level-of-distribution summary: the least tau on the grid with
    sum_d |r_d| <= X^tau * D^(dim+1/10).  No claim beyond the computed window.

    Decided exactly: both sides are raised to the lcm k of the denominators
    of tau and dim+1/10, so every exponent is an integer.
    """
    rems = decomp.remainders()
    abs_sum = sum((abs(r) for r in rems.values()), Fraction(0))
    abs_max = max((abs(r) for r in rems.values()), default=Fraction(0))
    grid = tuple(sorted(Fraction(t) for t in tau_grid))
    least = None
    X = decomp.X
    e = dim + Fraction(1, 10)
    for tau in grid:
        k = math.lcm(tau.denominator, e.denominator)
        bound = Fraction(X) ** int(tau * k) * Fraction(decomp.D) ** int(e * k) if X else 0
        if abs_sum**k <= bound:
            least = tau
            break
    return LevelReport(
        D=decomp.D, abs_sum=abs_sum, abs_max=abs_max, least_tau=least, tau_grid=grid
    )


class DimensionFit(NamedTuple):
    window: tuple[int, int]
    slope: float
    intercept: float
    residual: float
    n_primes: int
    conclusive: bool


def sieve_dimension_fit(
    beta_table: dict[int, Fraction], w: int, z: int
) -> DimensionFit:
    """Least-squares slope of the cumulative sum of beta(p) log p against
    log x over an expanding window of primes in [w, z]: the closed-form
    simple regression, with exactly rounded sums."""
    ps = sorted(p for p in beta_table if w <= p <= z)
    if len(ps) < 10:
        return DimensionFit((w, z), 0.0, 0.0, 0.0, len(ps), conclusive=False)
    xs = []
    ys = []
    acc = 0.0
    for p in ps:
        acc += float(beta_table[p]) * math.log(p)
        xs.append(math.log(p))
        ys.append(acc)
    n = len(ps)
    x_mean, y_mean = math.fsum(xs) / n, math.fsum(ys) / n
    slope = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / math.fsum(
        (x - x_mean) ** 2 for x in xs
    )
    intercept = y_mean - slope * x_mean
    resid = math.sqrt(math.fsum((slope * x + intercept - y) ** 2 for x, y in zip(xs, ys)) / n)
    return DimensionFit((w, z), slope, intercept, resid, n, conclusive=True)


class BrunBracket(NamedTuple):
    z: int
    b: int
    lower: int
    upper: int
    moduli_used: int


def _truncated_alternating_sum(w: int, k: int) -> int:
    """sum_{j<=k} (-1)^j C(w, j), which is (-1)^k C(w-1, k) for w >= 1."""
    return 1 if w == 0 else (-1) ** k * math.comb(w - 1, k)


def brun_bound(seq: SieveSequence, z: int, b: int) -> BrunBracket:
    """Truncated inclusion-exclusion over squarefree products of the primes
    <= z outside S.

    A value n divisible by w(n) of those primes contributes
    sum_{d | n, omega(d) <= k} (-1)^omega(d) = sum_{j<=k} (-1)^j C(w(n), j),
    so one pass over the values replaces the sum over moduli d.  Truncating
    after an odd number of prime factors gives a lower bound for the sifted
    count, after an even number an upper bound (the partial sums alternate
    around [w = 0]).  So: lower = depth 2b-1, upper = depth 2b.  Exact,
    beta-independent.  ``moduli_used`` counts the moduli d of the depth-2b
    sum: sum_{j<=2b} C(#primes, j).
    """
    if z < 2 or b < 1:
        raise ValueError("need z >= 2 and b >= 1")
    ps = [p for p in primes_upto(z) if p not in seq.S_used]
    lower = upper = 0
    for n, a in seq.entries.items():
        w = sum(1 for p in ps if n % p == 0)
        lower += a * _truncated_alternating_sum(w, 2 * b - 1)
        upper += a * _truncated_alternating_sum(w, 2 * b)
    moduli_used = sum(math.comb(len(ps), j) for j in range(2 * b + 1))
    return BrunBracket(z=z, b=b, lower=lower, upper=upper, moduli_used=moduli_used)


SAMPLE_LIMIT = 100_000  # points per (L, r) handed to the density test


class CensusResult(NamedTuple):
    L: int
    S_used: tuple[int, ...]
    counts: dict[int, int]  # r -> #{gamma : Omega_outside(f_Gamma) <= r}
    incomplete: int  # factoring budget failures, excluded from counts
    skipped: int  # f = 0


def almost_prime_census(
    gens: GeneratorSet,
    f: MultiPoly,
    L: int,
    S: Iterable[int] = (),
    r_max: int = 8,
    budget: FactorBudget = FactorBudget(),
    cap: int = 5_000_000,
) -> CensusResult:
    """Histogram of Omega over the sieve sequence: Omega is computed once per
    distinct S-integer value n and weighted by a_n(L), so the counts still
    count elements."""
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    seq = build_sequence(gens, f, L, S, cap=cap)
    histogram = [0] * (r_max + 1)  # Omega -> elements
    incomplete = 0
    for n, a in seq.entries.items():
        om = omega_outside(n, seq.S_used, budget=budget)
        if om is None:
            incomplete += a
        elif om <= r_max:
            histogram[om] += a
    counts = dict(enumerate(itertools.accumulate(histogram)))
    return CensusResult(
        L=L, S_used=seq.S_used, counts=counts, incomplete=incomplete, skipped=seq.skipped
    )


class SaturationEstimate(NamedTuple):
    r_hat: Optional[int]
    S_used: tuple[int, ...]
    D: int
    L_schedule: tuple[int, ...]
    stable: bool
    per_L: dict[int, Optional[int]]  # L -> minimal passing r (None = none passed)
    failure_mode: dict[int, str]  # L -> "" | "not dense at D" | "too few points"


def saturation_estimate(
    gens: GeneratorSet,
    f: MultiPoly,
    S: Iterable[int],
    D: int,
    L_schedule: Sequence[int],
    ambient_ideal_basis: Sequence[MultiPoly] = (),
    r_max: int = 8,
    cap: int = 5_000_000,
) -> SaturationEstimate:
    """Minimal r whose census sample is dense at degree D at the final L, with
    a stability verdict over the last two L values.  The schedule must be a
    non-empty set of distinct lengths L >= 0 (ValueError otherwise).

    This is an empirical lower-confidence estimate from finite data, not a
    proof of saturation at r.
    """
    if D < 0:
        raise ValueError("D must be >= 0")
    schedule = tuple(sorted(L_schedule))
    if not schedule or schedule[0] < 0 or len(set(schedule)) < len(schedule):
        raise ValueError(f"L_schedule must be distinct lengths >= 0, not {list(L_schedule)}")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    Sset = check_prime_set(S)
    # one BFS at the largest L; the ball at L' is {gamma : length <= L'}.
    # Each element with Omega <= r_max is kept with its Omega, in ball order;
    # Omega is computed once per S-integer value.
    B = ball(gens, schedule[-1], cap=cap)
    omega: dict[int, Optional[int]] = {}
    kept = []
    for e, val in B.values(f):
        if val == 0:
            continue
        n = s_integer_part(val, Sset)
        if n not in omega:
            omega[n] = omega_outside(n, Sset)
        om = omega[n]
        if om is not None and om <= r_max:
            kept.append((om, e))
    per_L: dict[int, Optional[int]] = {}
    failure: dict[int, str] = {}
    for L in schedule:
        found = None
        mode = ""
        for r in range(r_max + 1):
            picked = (sum(e, ()) for om, e in kept if om <= r and B.length[e] <= L)
            pts = list(itertools.islice(picked, SAMPLE_LIMIT))
            if not pts:
                mode = "too few points"
                continue
            verdict = zariski_density_test(
                pts, D, ambient_ideal_basis, variables=entry_variable_names(gens.n)
            )
            if verdict.dense:
                found = r
                mode = ""
                break
            mode = "too few points" if not verdict.sufficient_points else "not dense at D"
        per_L[L] = found
        failure[L] = mode
    last_two = schedule[-2:]
    stable = (
        len(last_two) == 2
        and per_L[last_two[0]] is not None
        and per_L[last_two[0]] == per_L[last_two[1]]
    )
    return SaturationEstimate(
        r_hat=per_L[schedule[-1]],
        S_used=Sset,
        D=D,
        L_schedule=schedule,
        stable=stable,
        per_L=per_L,
        failure_mode=failure,
    )


def r_formula(
    deg_ftilde: int,
    s_count: int,
    dim_G: int,
    tau: Fraction,
    omega_size: int,
    T: Fraction = Fraction(1),
    logM0: Fraction = Fraction(1),
) -> int:
    """floor(9 (#S+1) deg T (dim+1) logM0 / ((1 - tau) ln #Omega)) + 1, decided
    exactly: ln #Omega, irrational, is bracketed by rationals until both ends
    of the quotient have the same floor (the quotient is an integer only at 0)."""
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError("tau must lie strictly between 0 and 1")
    if omega_size < 2:
        raise ValueError("generator set size must be >= 2")
    if deg_ftilde < 1 or dim_G < 1 or s_count < 0:
        raise ValueError("degree and dimension must be positive, #S nonnegative")
    if T < 0 or logM0 < 0:
        raise ValueError("T and logM0 must be >= 0")
    num = 9 * (s_count + 1) * deg_ftilde * Fraction(T) * (dim_G + 1) * Fraction(logM0)
    scale = num / (1 - tau)
    terms = 16
    while True:
        lo, hi = ln_bracket(omega_size, terms)
        a, b = math.floor(scale / lo), math.floor(scale / hi)
        if a == b:
            return a + 1
        terms *= 2
