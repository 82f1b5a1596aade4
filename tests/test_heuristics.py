import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affsieve.heuristics import (
    TorusSpec,
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
    assert spec.power([2]) == DIAG @ DIAG
    assert spec.power([-1]) == DIAG.inverse()


def test_norm_growth_envelope_diag():
    env = norm_growth_check(TorusSpec((DIAG,), 5))
    assert env.verified
    # F(gamma^m) = 4^|m| + 4^-|m| in both directions: rate slightly above 4
    assert 4.0 <= env.A2 <= env.A1 <= 4.25
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


def test_borel_cantelli_domain():
    with pytest.raises(ValueError):
        borel_cantelli_sum(2, 2, 1, 100)  # needs nu > t
    with pytest.raises(ValueError):
        borel_cantelli_sum(1, 2, 0, 100)
