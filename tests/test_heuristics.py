import math
import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsieve import core_arith
from affsieve.core_arith import factorize
from affsieve.heuristics import (
    TorusSpec,
    _increment_brackets,
    borel_cantelli_sum,
    hilbert_schmidt,
    norm_growth_check,
    prime_factor_trend,
)
from affsieve.matgroup import MatrixQ


def two_power_product(m: int) -> int:
    """(2^m - 2)(2^m - 1), the orbit value in the rank-1 doubling example."""
    return (2**m - 2) * (2**m - 1)


DIAG = MatrixQ([[2, 0], [0, Fraction(1, 2)]])


def test_hilbert_schmidt_values():
    assert hilbert_schmidt(MatrixQ.identity(2)) == 2
    assert hilbert_schmidt(DIAG) == Fraction(17, 4)
    assert hilbert_schmidt(MatrixQ([[1, 2], [0, 1]])) == 6


def test_torus_spec_requires_commuting():
    with pytest.raises(ValueError):
        TorusSpec((MatrixQ([[1, 2], [0, 1]]), MatrixQ([[1, 0], [2, 1]])), 3)
    spec = TorusSpec((DIAG,), 4)
    assert spec.rank == 1
    for bad in (lambda: TorusSpec((), 3), lambda: TorusSpec((DIAG,), 0), lambda: spec._replace(M=0)):
        with pytest.raises(ValueError):
            bad()
    assert spec.power([2]) == DIAG @ DIAG
    assert spec.power([-1]) == DIAG.inverse()


def test_norm_growth_envelope_diag():
    env = norm_growth_check(TorusSpec((DIAG,), 5))
    assert env.verified
    # F(gamma^m) = 4^|m| + 4^-|m| in both directions: rate slightly above 4
    assert 4.0 <= env.A2 <= env.A1 <= 4.25
    assert env.degenerate_directions == ()


def test_norm_growth_escape_decided_exactly():
    # F(gamma^3) exceeds F(I) = 3 by about 3.6e-11, below any float
    # tolerance; the direction still escapes
    g = MatrixQ([[Fraction(1000001, 1000000), 0, 0], [0, Fraction(1000000, 1000001), 0], [0, 0, 1]])
    spec = TorusSpec((g,), 3)
    assert 0 < hilbert_schmidt(spec.power([3])) - 3 < Fraction(1, 10**10)
    env = norm_growth_check(spec)
    assert env.verified
    assert env.degenerate_directions == ()


def test_norm_growth_degenerate_direction():
    # a torsion direction never escapes: F stays at F(I)
    rot = MatrixQ([[0, -1], [1, 0]])
    env = norm_growth_check(TorusSpec((rot,), 4))
    assert env.degenerate_directions != ()


def test_two_power_product():
    assert two_power_product(5) == 30 * 31


def test_trend_m5_frozen():
    table = prime_factor_trend(two_power_product, 6)
    row = next(r for r in table.rows if r.m == 5)
    # (2^5-2)(2^5-1) = 2 * 3 * 5 * 31: three odd primes
    assert row.omega_distinct == 3
    assert row.omega_mult == 3


def test_trend_matches_sympy_oracle():
    table = prime_factor_trend(two_power_product, 40, start=2)
    assert table.incomplete == 0
    for row in table.rows:
        expected = sympy.factorint(row.value)
        odd = {p: e for p, e in expected.items() if p != 2}
        assert row.omega_distinct == len(odd), row.m
        assert row.omega_mult == sum(odd.values()), row.m


def test_trend_running_min_is_windowed_min():
    table = prime_factor_trend(two_power_product, 31, start=2)
    by_m = {r.m: r for r in table.rows}
    # at the end of the window [16, 31] the running min equals the true min
    window = [by_m[m].omega_distinct for m in range(16, 32)]
    assert by_m[31].running_min == min(window)


def test_trend_running_min_starts_fresh_in_each_window():
    # m = 4 opens [4, 8) with a zero value: no row of that window has a count yet
    table = prime_factor_trend(lambda m: 0 if m == 4 else (3 if m < 4 else 15), 5)
    by_m = {r.m: r for r in table.rows}
    assert by_m[3].running_min == 1
    assert by_m[4].running_min is None
    assert by_m[5].running_min == 2


@pytest.mark.parametrize("value", [Fraction(15, 2), 3.0**40 + 1])
def test_trend_rejects_non_integral_values(value):
    # int() would factor 7 and 12157665459056928768 (not 3^40 + 1) instead
    with pytest.raises(TypeError):
        prime_factor_trend(lambda m: value, 2)


# Primes of 20 to 28 bits, all above the trial bound
PLANTED = tuple(sympy.nextprime(2**k + 7919 * k) for k in range(19, 28))


def _check_against_reference(values):
    """Each row has the counts of its value factored on its own, wherever
    that factoring completes."""
    table = prime_factor_trend(lambda m: values[m - 1], len(values))
    for row, v in zip(table.rows, values):
        assert row.value == v
        fac = factorize(v)
        if fac.complete:
            odd = [e for p, e in fac.factors if p != 2]
            assert (row.omega_distinct, row.omega_mult) == (len(odd), sum(odd)), row.m


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 12), st.integers(2, 40))
def test_trend_rows_match_per_row_factorize_algebraic(a, M):
    # cap at 160 bits: above it, whole values such as a = 10, m = 38 exhaust
    # the reference's rho budget after 15-20 s
    values = [(a**m - a) * (a**m - 1) for m in range(2, M + 1)]
    _check_against_reference([v for v in values if v.bit_length() <= 160])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from(PLANTED), min_size=1, max_size=4), min_size=1, max_size=12))
@example([[PLANTED[0], PLANTED[1]], [PLANTED[2], PLANTED[3]], [PLANTED[4]]])  # no repeats
@example([[PLANTED[0], PLANTED[1]], [PLANTED[1], PLANTED[1], PLANTED[0]], [PLANTED[0], PLANTED[2]]])
def test_trend_rows_match_per_row_factorize_planted(rows):
    _check_against_reference([3 * math.prod(primes) for primes in rows])


def _count_rho(monkeypatch):
    """Route core_arith._brent_rho through a counter; returns the list of
    the row m each call was made for (set by the value_fn wrapper)."""
    calls, current = [], [None]
    original = core_arith._brent_rho

    def counting(n, iterations):
        calls.append(current[0])
        return original(n, iterations)

    monkeypatch.setattr(core_arith, "_brent_rho", counting)
    return calls, current


def test_trend_rho_skips_rows_of_known_primes(monkeypatch):
    calls, current = _count_rho(monkeypatch)
    rng = random.Random(1)
    rows = [rng.choices(PLANTED, k=rng.randint(1, 4)) for _ in range(30)]

    def value_fn(m):
        current[0] = m
        return m * math.prod(rows[m - 1])

    prime_factor_trend(value_fn, len(rows))
    seen, known_rows = set(), []
    for m, primes in enumerate(rows, start=1):
        if seen.issuperset(primes):
            known_rows.append(m)
        seen.update(primes)
    assert len(known_rows) >= 10 and calls  # the check below is not vacuous
    assert not set(calls) & set(known_rows)


def test_trend_rho_calls_on_doubling_family(monkeypatch):
    # factoring each row from scratch takes 77 calls; dividing out the
    # primes that earlier rows found leaves 10
    calls, _ = _count_rho(monkeypatch)
    prime_factor_trend(two_power_product, 75, start=2)
    assert len(calls) <= 12


def test_borel_cantelli_convergence():
    rep = borel_cantelli_sum(1, 2, 1, 10**5, checkpoints=[10**4])
    assert rep.partial_sums[-1] < rep.integral_bound
    assert all(
        a <= b for a, b in zip(rep.partial_sums, rep.partial_sums[1:])
    )


def test_borel_cantelli_increment_shrinks():
    rep = borel_cantelli_sum(1, 2, 1, 10**6, checkpoints=[10**5])
    assert rep.increments[-1] < 2e-5
    assert rep.partial_sums[-1] < rep.integral_bound


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5000))
@example(1, 1, 2, 10**6)
@example(1, 2, 2, 10**5)
def test_borel_cantelli_partial_sums_below_bound(t, extra, r, M):
    rep = borel_cantelli_sum(t, t + extra, r, M)
    assert rep.partial_sums[-1] <= rep.integral_bound


def _mpmath_bound(t, nu, r):
    """The integral-test bound of borel_cantelli_sum at 50 digits, with the
    tail integral by mpmath's quad, split at powers of 10 (the integrand
    peaks near x = e^(power/(nu-t+1)))."""
    import mpmath

    power = nu * (r - 1)
    H = max(2, math.floor(math.exp(power / nu)))

    def integrand(x):
        return 2 * t * (3 * x) ** (t - 1) * mpmath.log(x + 1) ** power / (x + 1) ** nu

    with mpmath.workdps(50):
        head = sum(
            ((2 * s + 1) ** t - (2 * s - 1) ** t) * mpmath.log(s + 1) ** power / mpmath.mpf(s + 1) ** nu
            for s in range(1, H + 1)
        )
        cuts = [H] + [mpmath.mpf(10) ** j for j in range(2, 30) if 10**j > H] + [mpmath.inf]
        tail = mpmath.quad(integrand, cuts)
        return (1 if power == 0 else 0) + head + tail, tail


def test_borel_cantelli_bound_certified_where_quad_failed():
    # scipy's quad flagged this integral as unreliable and returned ~4.6e19;
    # the closed form's rational bound covers the 50-digit value from above
    exact, tail = _mpmath_bound(4, 5, 5)
    assert abs(tail / 5.2550608120089e20 - 1) < 1e-13
    bound = borel_cantelli_sum(4, 5, 5, 100).integral_bound
    assert bound >= exact
    assert (bound - exact) / exact < 1e-12


@pytest.mark.parametrize("t, nu, r", [(1, 2, 2), (2, 3, 2), (2, 4, 3), (3, 5, 2)])
def test_borel_cantelli_bound_matches_quad(t, nu, r):
    exact, _ = _mpmath_bound(t, nu, r)
    bound = borel_cantelli_sum(t, nu, r, 100).integral_bound
    assert bound >= exact
    assert (bound - exact) / exact < 1e-12


def _exact_partial_sum(t, nu, M):
    """The r = 1 partial sum over |m|_sup <= M of 1/(|m|+1)^nu, exactly."""
    D = math.lcm(*range(1, M + 2)) ** nu
    shells = [1] + [(2 * s + 1) ** t - (2 * s - 1) ** t for s in range(1, M + 1)]
    return Fraction(sum(c * (D // (s + 1) ** nu) for s, c in enumerate(shells)), D)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2000), st.integers(1, 2000))
def test_borel_cantelli_r1_brackets_contain_exact_sum(t, extra, a, b):
    ends = sorted({a, b})
    rep = borel_cantelli_sum(t, t + extra, 1, ends[-1], checkpoints=ends[:1])
    exact = [_exact_partial_sum(t, t + extra, end) for end in ends]
    for x, lo, hi in zip(exact, rep.partial_sums_lo, rep.partial_sums):
        assert lo <= x <= hi
        assert hi - lo <= 1e-12 * lo
    # no logarithm at r = 1: the Fraction brackets are as wide as the
    # Euler-Maclaurin remainder bound alone
    steps = [x - y for x, y in zip(exact, [1] + exact)]  # after the s = 0 shell
    for x, hi, (lo_q, hi_q) in zip(steps, rep.increments, _increment_brackets(t, t + extra, 0, ends)):
        assert lo_q <= x <= hi_q
        assert x <= hi


# Partial sums at M = 10^2, 10^4, 10^5 and 10^6, summed shell by shell in
# mpmath at 40 digits and printed by mpmath.nstr(acc, 30):
#     mpmath.mp.dps = 40
#     for s in range(1, 10**6 + 1):
#         acc += ((2*s+1)**t - (2*s-1)**t) * mpmath.log(s+1)**(nu*(r-1)) / mpmath.mpf(s+1)**nu
BC_REFERENCE = {
    (1, 2, 2): ["3.33649296876200032983627867172", "3.95751280307892881837248897617",
                "3.97540904228767539115746639417", "3.97811947046421997379232372503"],
    (1, 3, 2): ["0.734662091530809764316080213634", "0.748078135839353123093781191206",
                "0.748087190491929305939350608311", "0.748087361827591217129711373745"],
    (2, 3, 2): ["29.5851161167592987689410094173", "44.131291841260224286870151764",
                "44.8489211835407057975530477453", "44.9824294749581403973428600579"],
    (2, 4, 2): ["4.93123395773981579408273111005", "5.21358796354184111456005364496",
                "5.21394113125013474166665068468", "5.21394938351695235001798987109"],
    (2, 4, 3): ["347.289439633622533729248682805", "610.150183224254968469862621605",
                "613.427881275534555245255825328", "613.604223882709655409549266419"],
    (3, 5, 2): ["33.3258082129529263367054340211", "37.8513200155943065788288025396",
                "37.8616767312424156289636550641", "37.8619752968083983960141603435"],
    (4, 5, 5): ["3303054903285.3783458252902515", "91332438202357910.5555368131271",
                "1181920853489328294.88530557099", "6670036909091266593.20496209677"],
}


@pytest.mark.parametrize("t, nu, r", sorted(BC_REFERENCE))
def test_borel_cantelli_brackets_contain_mpmath(t, nu, r):
    refs = [Fraction(v) for v in BC_REFERENCE[(t, nu, r)]]
    rep = borel_cantelli_sum(t, nu, r, 10**6, checkpoints=[10**2, 10**4, 10**5])
    alone = borel_cantelli_sum(t, nu, r, 10**2)
    brackets = list(zip(rep.partial_sums_lo, rep.partial_sums)) + [(alone.partial_sums_lo[0], alone.partial_sums[0])]
    for (lo, hi), ref in zip(brackets, refs + refs[:1]):
        assert lo <= ref <= hi
        assert hi - lo <= 1e-12 * lo


def test_borel_cantelli_cost_does_not_grow_with_M():
    tracemalloc.start()
    try:
        rep = borel_cantelli_sum(2, 3, 2, 10**12, checkpoints=[10**11])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert all(lo <= hi for lo, hi in zip(rep.partial_sums_lo, rep.partial_sums))
    assert rep.partial_sums_lo[0] <= rep.partial_sums_lo[1]
    assert rep.partial_sums[0] <= rep.partial_sums[1] <= rep.integral_bound


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("t, nu", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_borel_cantelli_full_series_below_bound(t, nu, r):
    # for t >= 2 the integral bound's tail assumes a summand that decreases
    # past head_end, which nothing proves; the certified bracket of the full
    # series (M = inf) checks the bound on this grid
    rep = borel_cantelli_sum(t, nu, r, math.inf)
    assert rep.partial_sums_lo[0] <= rep.partial_sums[0] <= rep.integral_bound


def test_borel_cantelli_domain():
    with pytest.raises(ValueError):
        borel_cantelli_sum(2, 2, 1, 100)  # needs nu > t
    with pytest.raises(ValueError):
        borel_cantelli_sum(1, 2, 0, 100)
