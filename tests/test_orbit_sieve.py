import itertools
import math
import os
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsieve.core_arith import (
    FactorBudget,
    check_prime_set,
    factorize,
    omega_outside,
    primes_upto,
    s_integer_part,
)
from affsieve.matgroup import GeneratorSet, MatrixQ, ball, entry_variable_names
from affsieve.modp import det_minus_one, local_density
from affsieve.orbit_sieve import (
    ModuliDecomposition,
    SieveSequence,
    almost_prime_census,
    brun_bound,
    build_sequence,
    level_distribution_report,
    moduli_decomposition,
    r_formula,
    saturation_estimate,
    sieve_dimension_fit,
)
from affsieve.polyalg import MultiPoly
from affsieve.scenario import load_scenario

A = MatrixQ([[1, 2], [0, 1]])
B = MatrixQ([[1, 0], [2, 1]])
FREE = GeneratorSet([A, B])
V = entry_variable_names(2)
TR2 = MultiPoly.parse("x11 + x22 - 2", V)
IDEAL = [det_minus_one(2)]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENTRY = os.path.join(ROOT, "scenarios", "sl2-entry.json")


def synthetic_sequence(lo=3, hi=10_000):
    entries: dict[int, int] = {}
    for n in range(lo, hi + 1):
        v = n * (n + 2)
        entries[v] = entries.get(v, 0) + 1
    return SieveSequence(L=0, S_used=(), entries=entries, skipped=0)


def test_build_sequence_trace_degenerate_at_L1():
    # at radius 1 every element has trace 2, so f = tr - 2 vanishes everywhere
    seq = build_sequence(FREE, TR2, 1, [2])
    assert seq.X == 0
    assert seq.skipped == 5
    assert seq.entries == {}


def test_build_sequence_L3_frozen():
    seq = build_sequence(FREE, TR2, 3, [2])
    # every nonzero trace deviation at this radius is a power of two
    assert seq.entries == {1: 32}
    assert seq.skipped == 21
    assert seq.X == 32
    assert seq.X + seq.skipped == 2 * 3**3 - 1


def test_sifted_count_exempts_S():
    seq = build_sequence(FREE, TR2, 3, [2])
    assert seq.sifted_count(10) == 32  # all values are 1 after stripping 2s


def test_moduli_decomposition_floor_identity():
    # synthetic multiset 1..N with beta(d) = 1/d: |r_d| < 1 by the floor identity
    N = 500
    seq = SieveSequence(L=0, S_used=(), entries={n: 1 for n in range(1, N + 1)}, skipped=0)
    decomp = moduli_decomposition(seq, lambda d: Fraction(1, d), 12)
    for d, (A_d, pred, r_d) in decomp.rows.items():
        assert A_d == N // d
        assert abs(r_d) < 1


@pytest.mark.parametrize("D", [0, -1, -3])
def test_moduli_decomposition_rejects_levels_below_one(D):
    # a negative D raised to an even power used to pass the level bound
    seq = SieveSequence(L=0, S_used=(), entries={n: 1 for n in range(1, 50)}, skipped=0)
    with pytest.raises(ValueError, match="level D"):
        moduli_decomposition(seq, lambda d: Fraction(1, d), D)


def test_level_report_grid():
    N = 500
    seq = SieveSequence(L=0, S_used=(), entries={n: 1 for n in range(1, N + 1)}, skipped=0)
    decomp = moduli_decomposition(seq, lambda d: Fraction(1, d), 12)
    rep = level_distribution_report(decomp, [Fraction(1, 10), Fraction(1, 2)], dim=1)
    assert rep.least_tau == Fraction(1, 10)
    assert rep.abs_max <= rep.abs_sum


def test_level_report_exact_at_equality():
    # 5 <= 125^(1/3) * 1^(1 + 1/10) holds with equality; in floats
    # 125 ** (1/3) is 4.999999999999999
    decomp = ModuliDecomposition(D=1, X=125, rows={1: (120, Fraction(125), Fraction(-5))})
    rep = level_distribution_report(decomp, [Fraction(1, 3)], dim=1)
    assert rep.least_tau == Fraction(1, 3)
    decomp = ModuliDecomposition(D=1, X=125, rows={1: (120, Fraction(125), Fraction(-6))})
    assert level_distribution_report(decomp, [Fraction(1, 3)], dim=1).least_tau is None


def test_sieve_dimension_fit_synthetic():
    for c in (1, 2):
        table = {p: Fraction(c, p) for p in primes_upto(10**4)}
        fit = sieve_dimension_fit(table, 3, 10**4)
        assert fit.conclusive
        assert abs(fit.slope - c) <= 0.05 * c


@pytest.mark.parametrize("seed", range(5))
def test_sieve_dimension_fit_matches_numpy_polyfit(seed):
    # numpy's least squares, as the fit was computed before the closed form;
    # summation order differs, so agreement is to a tolerance fixed for float64
    import random

    import numpy as np

    rng = random.Random(seed)
    table = {p: Fraction(rng.randint(0, 3 * p), p * rng.randint(1, 3)) for p in primes_upto(rng.choice((60, 500, 3000)))}
    fit = sieve_dimension_fit(table, 3, 10**4)
    ps = sorted(p for p in table if p >= 3)
    xs = [math.log(p) for p in ps]
    ys = list(itertools.accumulate(float(table[p]) * math.log(p) for p in ps))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((np.polyval([slope, intercept], xs) - np.asarray(ys)) ** 2)))
    assert fit.slope == pytest.approx(slope, rel=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
    assert fit.residual == pytest.approx(resid, rel=1e-6, abs=1e-9)


def test_sieve_dimension_fit_inconclusive():
    table = {p: Fraction(1, p) for p in (3, 5, 7)}
    assert not sieve_dimension_fit(table, 3, 10).conclusive


def test_brun_brackets_synthetic():
    seq = synthetic_sequence()
    prev_gap = None
    for z in (7, 10, 13):
        prev_gap = None
        for b in (2, 3):
            br = brun_bound(seq, z, b)
            exact = seq.sifted_count(z)
            assert br.lower <= exact <= br.upper, (z, b)
            gap = br.upper - br.lower
            if prev_gap is not None:
                assert gap <= prev_gap
            prev_gap = gap


def test_brun_frozen_values():
    seq = synthetic_sequence()
    br = brun_bound(seq, 13, 2)
    assert (br.lower, br.upper) == (-1218, 704)
    assert seq.sifted_count(13) == 494
    br = brun_bound(seq, 13, 3)
    assert (br.lower, br.upper) == (485, 494)


def explicit_brun(seq, z, b):
    """Truncated inclusion-exclusion written out: sum over the squarefree
    moduli d from the primes <= z outside S, omega(d) <= depth, of
    (-1)^omega(d) A_d.  A_d is tallied from each value's own subsets of
    dividing primes.  Returns (lower, upper, number of depth-2b moduli)."""
    ps = [p for p in primes_upto(z) if p not in seq.S_used]
    A: dict[tuple[int, ...], int] = {}
    for n, a in seq.entries.items():
        dividing = [p for p in ps if n % p == 0]
        for j in range(min(len(dividing), 2 * b) + 1):
            for d in itertools.combinations(dividing, j):
                A[d] = A.get(d, 0) + a
    moduli = [d for j in range(2 * b + 1) for d in itertools.combinations(ps, j)]

    def truncated(depth):
        return sum((-1) ** len(d) * A.get(d, 0) for d in moduli if len(d) <= depth)

    return truncated(2 * b - 1), truncated(2 * b), len(moduli)


def test_brun_matches_explicit_inclusion_exclusion():
    seq = synthetic_sequence()
    for z, b in ((7, 2), (13, 2), (13, 3), (30, 2), (50, 2), (60, 3)):
        br = brun_bound(seq, z, b)
        assert (br.lower, br.upper, br.moduli_used) == explicit_brun(seq, z, b), (z, b)


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(st.integers(1, 10**6), st.integers(1, 5), max_size=30),
    st.integers(2, 40),
    st.integers(1, 3),
    st.sets(st.sampled_from((2, 3, 5, 7))),
)
def test_brun_matches_explicit_inclusion_exclusion_random(entries, z, b, S):
    seq = SieveSequence(L=0, S_used=tuple(sorted(S)), entries=entries, skipped=0)
    br = brun_bound(seq, z, b)
    assert (br.lower, br.upper, br.moduli_used) == explicit_brun(seq, z, b)
    assert br.lower <= seq.sifted_count(z) <= br.upper


def test_census_monotone_in_r_and_L():
    prev = None
    for L in (2, 3, 4):
        cen = almost_prime_census(FREE, TR2, L, [2], r_max=4)
        counts = [cen.counts[r] for r in range(5)]
        assert counts == sorted(counts)  # nondecreasing in r
        if prev is not None:
            assert all(c >= p for c, p in zip(counts, prev))  # balls nest
        prev = counts
        assert cen.incomplete == 0


def test_census_samples_consistent():
    cen = almost_prime_census(FREE, TR2, 3, [2], r_max=2)
    for r, mats in cen.samples.items():
        assert len(mats) == cen.counts[r]
        for m in mats:
            val = TR2.eval(MatrixQ(m).entry_dict())
            assert val != 0


def oracle(gens, f, L, S, r_max=8, budget=FactorBudget()):
    """The per-element loop: every element rebuilt as a MatrixQ, evaluated
    through its entry dict, and every value factored.  Returns the sequence's
    (entries, skipped) and the census's (counts, incomplete, skipped)."""
    Sset = check_prime_set(S)
    entries: dict[int, int] = {}
    counts = {r: 0 for r in range(r_max + 1)}
    skipped = incomplete = 0
    for e in ball(gens, L).length:
        val = f.eval(MatrixQ(e).entry_dict())
        if val == 0:
            skipped += 1
            continue
        n = s_integer_part(val, Sset)
        entries[n] = entries.get(n, 0) + 1
        om = omega_outside(n, Sset, budget=budget) if n > 1 else 0
        if om is None:
            incomplete += 1
            continue
        for r in range(r_max + 1):
            if om <= r:
                counts[r] += 1
    return (entries, skipped), (counts, incomplete, skipped)


def assert_matches_oracle(gens, f, L, S, r_max=8, budget=FactorBudget()):
    (entries, skipped), census = oracle(gens, f, L, S, r_max, budget)
    seq = build_sequence(gens, f, L, S)
    assert (seq.entries, seq.skipped) == (entries, skipped)
    cen = almost_prime_census(gens, f, L, S, r_max=r_max, budget=budget)
    assert (cen.counts, cen.incomplete, cen.skipped) == census
    assert all(len(cen.samples[r]) == cen.counts[r] for r in cen.counts)


def test_sequence_and_census_match_oracle_free_trace():
    assert_matches_oracle(FREE, TR2, 5, [2])
    # 1022117 = 1009 * 1013: a budget without rho leaves some values incomplete
    tight = FactorBudget(trial_bound=5, rho_iterations=0)
    f = MultiPoly.parse("1022117*x11 + x12", V)
    assert_matches_oracle(FREE, f, 4, [], budget=tight)
    cen = almost_prime_census(FREE, f, 4, budget=tight)
    assert cen.incomplete > 0 and cen.counts[8] > 0


def test_sequence_and_census_match_oracle_entry_scenario():
    sc = load_scenario(ENTRY)
    assert_matches_oracle(sc.generators, sc.f, 5, sc.S0, r_max=sc.r_max)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 3),
    st.lists(st.integers(-3, 3), min_size=5, max_size=5),
    st.sets(st.sampled_from((2, 3, 5, 7))),
    st.booleans(),
)
def test_sequence_and_census_match_oracle_random(L, coeffs, S, tight):
    # f = c0 + c1 x11 + c2 x12 x21 + c3 x22^2 + c4 x12
    c0, c1, c2, c3, c4 = coeffs
    f = MultiPoly.parse(f"{c0} + {c1}*x11 + {c2}*x12*x21 + {c3}*x22**2 + {c4}*x12", V)
    budget = FactorBudget(trial_bound=5, rho_iterations=0) if tight else FactorBudget()
    assert_matches_oracle(FREE, f, L, sorted(S), r_max=3, budget=budget)


@pytest.mark.parametrize("f, L", [(MultiPoly.parse("x11", V), 5), (TR2, 5)])
def test_saturation_one_ball_equals_separate_balls(f, L):
    est = saturation_estimate(FREE, f, [2], 1, (L - 1, L), ambient_ideal_basis=IDEAL)
    for Lp in (L - 1, L):
        alone = saturation_estimate(FREE, f, [2], 1, (Lp,), ambient_ideal_basis=IDEAL)
        assert est.per_L[Lp] == alone.per_L[Lp]
        assert est.failure_mode[Lp] == alone.failure_mode[Lp]


def test_variable_that_names_no_entry_is_an_error():
    f = MultiPoly.parse("x11 + y", V + ("y",))
    with pytest.raises(ValueError, match="not entries"):
        build_sequence(FREE, f, 2, [2])
    with pytest.raises(ValueError, match="not entries"):
        almost_prime_census(FREE, f, 2, [2])


def test_saturation_estimate_entry_function():
    est = saturation_estimate(
        FREE, MultiPoly.parse("x11", V), [2], 1, (4, 5), ambient_ideal_basis=IDEAL
    )
    assert est.r_hat == 1
    assert est.stable
    assert est.per_L == {4: 1, 5: 1}


def test_saturation_estimate_trace():
    # the 2-stripped trace deviations are S-units on a dense set already
    est = saturation_estimate(FREE, TR2, [2], 1, (4, 6), ambient_ideal_basis=IDEAL)
    assert est.r_hat == 0
    assert est.stable


def test_r_formula_worked_example():
    assert r_formula(1, 1, 3, Fraction(1, 2), 4, Fraction(1), Fraction(1)) == 104


def test_r_formula_decides_the_floor_exactly():
    # logM0 just below 5 ln 4 / 36 puts the quotient 36 logM0 / ln 4 about
    # 2.5e-39 below 5: the floor is 4, and a float quotient rounds it to 5
    with mpmath.workdps(60):
        logM0 = Fraction(int(mpmath.floor(5 * mpmath.log(4) / 36 * mpmath.mpf(10) ** 40)), 10**40)
    assert r_formula(1, 0, 1, Fraction(1, 2), 4, Fraction(1), logM0) == 5
    assert r_formula(1, 0, 1, Fraction(1, 2), 4, Fraction(1), logM0 + Fraction(1, 10**40)) == 6


def test_r_formula_monotone_grid():
    base = {}
    for s in (1, 2, 3):
        for deg in (1, 2, 3):
            base[(s, deg)] = r_formula(deg, s, 3, Fraction(1, 2), 4)
    for s in (1, 2):
        for deg in (1, 2, 3):
            assert base[(s + 1, deg)] >= base[(s, deg)]
    for s in (1, 2, 3):
        for deg in (1, 2):
            assert base[(s, deg + 1)] >= base[(s, deg)]


def test_r_formula_domain():
    with pytest.raises(ValueError):
        r_formula(1, 1, 3, Fraction(3, 2), 4)
    with pytest.raises(ValueError):
        r_formula(1, 1, 3, Fraction(1, 2), 1)
    with pytest.raises(ValueError):
        r_formula(0, 1, 3, Fraction(1, 2), 4)
