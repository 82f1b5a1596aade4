import json
import math
import os
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy

from affsieve import unipotent_sieve
from affsieve.cli import main
from affsieve.core_arith import FactorBudget
from affsieve.matgroup import MatrixQ
from affsieve.polyalg import CertificateError, MultiPoly, bad_prime_bound, gcd_certificate
from affsieve.unipotent_sieve import (
    CoprimalityError,
    SieveBudget,
    UniSieveProblem,
    _sieve_level,
    multivariable_sieve,
    single_variable_almost_primes,
    unipotent_group_sieve,
)

N = ("n",)
X = MultiPoly.var(N, "n")


def heisenberg_generators():
    return [
        MatrixQ([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    ]


def test_single_variable_linear():
    out = single_variable_almost_primes(X, [], (1, 0), r=1, search_bound=100, want=5)
    assert len(out.values) == 5
    assert not out.exhausted
    for n, om in zip(out.values, out.omegas):
        assert om <= 1
        assert abs(n) == 1 or all(
            abs(n) % p for p in range(2, math.isqrt(abs(n))) if abs(n) != p
        ) or om == 1


def test_single_variable_respects_progression():
    out = single_variable_almost_primes(X, [], (15, 7), r=2, search_bound=1000, want=8)
    for n in out.values:
        assert n % 15 == 7 % 15


def test_single_variable_exhaustion():
    # n^2 + n + 40000 is never <= 2 almost-prime for tiny |n|... force a
    # genuinely unfillable quota with a very small search window instead
    out = single_variable_almost_primes(
        (X * X + 1).scale(4), [], (1, 0), r=0, search_bound=50, want=3
    )
    assert out.exhausted
    assert out.values == ()


def test_multivariable_d1():
    problem = UniSieveProblem(variables=N, P=X, families=())
    res = multivariable_sieve(problem, SieveBudget(value_want=10))
    assert len(res.points) >= 10
    assert res.dropped == 0
    # degree window pushes {2, 3} into S even in the linear case
    assert set(res.S) <= {2, 3}
    for pt in res.points:
        assert pt.omega <= res.r


def test_multivariable_d2_coprime_pair():
    variables = ("a", "b")
    a = MultiPoly.var(variables, "a")
    b = MultiPoly.var(variables, "b")
    problem = UniSieveProblem(
        variables=variables, P=a * b + 1, families=((a, b + 1),)
    )
    res = multivariable_sieve(problem, SieveBudget(value_want=3, prefix_want=10))
    assert res.points
    assert res.dropped == 0
    for pt in res.points:
        pa, pb = pt.x
        val = pa * pb + 1
        assert pt.value == val
        g = math.gcd(abs(pa), abs(pb + 1))
        rest = g
        for p in res.S:
            while rest % p == 0:
                rest //= p
        assert rest == 1


def test_family_with_common_factor_rejected():
    variables = ("a",)
    a = MultiPoly.var(variables, "a")
    with pytest.raises(CoprimalityError):
        UniSieveProblem(variables=variables, P=a, families=((a, a * (a + 1)),))


def test_heisenberg_end_to_end():
    x13 = MultiPoly.parse("x13", tuple(f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)))
    fam = tuple(
        MultiPoly.parse(s, x13.variables) for s in ("x12", "x23")
    )
    res = unipotent_group_sieve(
        heisenberg_generators(), x13, [fam], SieveBudget(value_want=5, prefix_want=60)
    )
    assert len(res.points) >= 100
    assert res.dropped == 0
    assert len(res.matrices) == len(res.points)
    assert res.r == 1
    assert res.S == (2,)
    # independent re-check here as well: evaluate on the emitted matrices
    for pt, m in zip(res.points, res.matrices):
        e = m.entry_dict()
        assert e["x13"].denominator == 1
        assert int(e["x13"]) == pt.value
        g = math.gcd(abs(int(e["x12"])), abs(int(e["x23"])))
        assert g == pt.family_gcds[0]
        rest = g
        for p in res.S:
            while rest % p == 0:
                rest //= p
        assert rest == 1


def test_heisenberg_S_covers_instance_bad_primes():
    x13 = MultiPoly.parse("x13", tuple(f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)))
    fam = tuple(MultiPoly.parse(s, x13.variables) for s in ("x12", "x23"))
    res = unipotent_group_sieve(heisenberg_generators(), x13, [fam])
    assert res.prefixes
    S = set(res.S)
    for rec in res.prefixes:
        # every emitted value sits on the recorded progression
        a, b = rec.progression
        for v in rec.values:
            assert (v - b) % a == 0
        # and the prime set dominates every instance's bad primes
        for inst in rec.instances:
            if not inst.is_constant():
                assert set(bad_prime_bound(inst).primes) <= S


def test_budget_monotone():
    problem = UniSieveProblem(variables=N, P=X * X + 1, families=())
    small = multivariable_sieve(problem, SieveBudget(value_want=3))
    large = multivariable_sieve(problem, SieveBudget(value_want=8))
    assert len(large.points) >= len(small.points)
    assert set(p.x for p in small.points) <= set(p.x for p in large.points)


def test_constant_level_reports_blown_factor_budget():
    semiprime = MultiPoly.constant(N, 1000003 * 1000033)
    level = _sieve_level(semiprime, [], (), N, SieveBudget())
    assert (level.r, level.exhausted) == (2, False)
    tight = SieveBudget(factor=FactorBudget(trial_bound=100, rho_iterations=1))
    level = _sieve_level(semiprime, [], (), N, tight)
    assert level.exhausted


def test_family_certificate_identity_is_checked(monkeypatch):
    variables = ("a", "b")
    a = MultiPoly.var(variables, "a")
    b = MultiPoly.var(variables, "b")
    members = (a * b + 2, b + a)
    # b = -a gives a*b + 2 = 2 - a^2: the value gcd divides a^2 - 2
    assert gcd_certificate(members, "b", ("a",)).Q == MultiPoly.parse("a**2 - 2", ("a",))
    true_gcdex = sympy.Poly.gcdex

    def corrupted(self, other):
        s, t, h = true_gcdex(self, other)
        return s + 1, t, h

    monkeypatch.setattr(sympy.Poly, "gcdex", corrupted)
    with pytest.raises(CertificateError):
        gcd_certificate(members, "b", ("a",)).Q


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEIS = os.path.join(ROOT, "scenarios", "heisenberg.json")


def test_span_stable_is_reported(monkeypatch, tmp_path):
    args = ["uni-sieve", "--scenario", HEIS, "--want", "2", "--prefixes", "5", "--record"]
    x13 = MultiPoly.parse("x13", tuple(f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)))
    budget = SieveBudget(value_want=2, prefix_want=5)
    assert unipotent_group_sieve(heisenberg_generators(), x13, [], budget).span_stable is True
    assert main(args + [str(tmp_path / "stable.json")]) == 0
    assert json.loads((tmp_path / "stable.json").read_text())["outputs"]["span_stable"] is True

    true_lattice = unipotent_sieve.malcev_lattice
    def unstable(gens):
        return replace(true_lattice(gens), span_stable=False)

    monkeypatch.setattr(unipotent_sieve, "malcev_lattice", unstable)
    assert unipotent_group_sieve(heisenberg_generators(), x13, [], budget).span_stable is False
    assert main(args + [str(tmp_path / "unstable.json")]) == 0
    assert json.loads((tmp_path / "unstable.json").read_text())["outputs"]["span_stable"] is False
