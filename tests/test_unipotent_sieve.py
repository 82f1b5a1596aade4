import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affsieve import unipotent_sieve
from affsieve.cli import main
from affsieve.core_arith import FactorBudget
from affsieve.matgroup import MatrixQ
from affsieve.polyalg import CertificateError, MultiPoly
from affsieve.unipotent_sieve import (
    CoprimalityError,
    SieveBudget,
    UniSieveProblem,
    _sieve_level,
    bad_prime_bound,
    gcd_certificate,
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


def test_sieve_budget_checked_on_construction_and_replace():
    with pytest.raises(ValueError, match="value_want"):
        SieveBudget(value_want=0)
    with pytest.raises(ValueError, match="prefix_want"):
        SieveBudget()._replace(prefix_want=0)
    with pytest.raises(ValueError, match="search_bound"):
        SieveBudget(search_bound=-1)
    assert SieveBudget(search_bound=0).search_bound == 0
    assert SieveBudget()._replace(value_want=2) == SieveBudget(value_want=2)


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
    true_gcdex = unipotent_sieve._gcdex

    def corrupted(f, g, pivot):
        s, t, h = true_gcdex(f, g, pivot)
        return s + h, t, h  # h = 1 for a coprime pair: the cofactor s + 1

    monkeypatch.setattr(unipotent_sieve, "_gcdex", corrupted)
    with pytest.raises(CertificateError):
        gcd_certificate(members, "b", ("a",)).Q


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEIS = os.path.join(ROOT, "scenarios", "heisenberg.json")
HEIS_Q = os.path.join(ROOT, "scenarios", "heisenberg-rational.json")
HEIS_F = os.path.join(ROOT, "scenarios", "heisenberg-families.json")


def test_rational_generators_drop_no_point(tmp_path):
    # x13 + 1 has denominators up to 12 in lattice coordinates; the search
    # skips non-integral values, so the matrix re-check has nothing to drop
    rec = tmp_path / "rational.json"
    assert main(["uni-sieve", "--scenario", HEIS_Q, "--want", "3", "--prefixes", "10", "--record", str(rec)]) == 0
    out = json.loads(rec.read_text())["outputs"]
    assert out["dropped"] == 0
    assert out["points"] > 0


def test_sympy_factors_are_multiplied_back(monkeypatch, capsys):
    # x12**2 - x23**2 is 4*y1**2 - 4*y3**2 in lattice coordinates; a
    # factor_list that loses (y1 + y3) must not leave the prime 3 out of S
    y1, y3 = sympy.symbols("y1 y3")
    true_factor_list = sympy.factor_list

    def lossy(expr, *args, **kwargs):
        if sympy.expand(expr - (y1**2 - y3**2)) == 0:
            return sympy.Integer(1), [(y1 - y3, 1)]
        return true_factor_list(expr, *args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", lossy)
    assert main(["uni-sieve", "--scenario", HEIS_F, "--want", "3", "--prefixes", "10"]) == 4
    assert "do not multiply back" in capsys.readouterr().err


def test_span_stable_is_reported(monkeypatch, tmp_path):
    args = ["uni-sieve", "--scenario", HEIS, "--want", "2", "--prefixes", "5", "--record"]
    x13 = MultiPoly.parse("x13", tuple(f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)))
    budget = SieveBudget(value_want=2, prefix_want=5)
    assert unipotent_group_sieve(heisenberg_generators(), x13, [], budget).span_stable is True
    assert main(args + [str(tmp_path / "stable.json")]) == 0
    assert json.loads((tmp_path / "stable.json").read_text())["outputs"]["span_stable"] is True

    true_lattice = unipotent_sieve.malcev_lattice
    def unstable(gens):
        return true_lattice(gens)._replace(span_stable=False)

    monkeypatch.setattr(unipotent_sieve, "malcev_lattice", unstable)
    assert unipotent_group_sieve(heisenberg_generators(), x13, [], budget).span_stable is False
    assert main(args + [str(tmp_path / "unstable.json")]) == 0
    assert json.loads((tmp_path / "unstable.json").read_text())["outputs"]["span_stable"] is False


# a sieve whose points are forged after the fact: the matrix re-check must
# drop each forged point and count it, also where assert statements are off
FORGED_POINTS = """
from affsieve import unipotent_sieve
from affsieve.matgroup import MatrixQ
from affsieve.polyalg import MultiPoly
from affsieve.unipotent_sieve import SieveBudget, unipotent_group_sieve

true_sieve = unipotent_sieve.multivariable_sieve


def forging(problem, budget):
    res = true_sieve(problem, budget)
    a = res.points[0]
    b = next(pt for pt in res.points if pt.value != a.value)
    forged = (
        a._replace(value=a.value + 2),  # a wrong value
        a._replace(family_gcds=(a.family_gcds[0] + 1,)),  # a wrong family gcd
        a._replace(x=b.x),  # an x that does not give the value
    )
    return res._replace(points=res.points + forged)


entries = tuple(f"x{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))
gens = [MatrixQ([[1, 1, 0], [0, 1, 0], [0, 0, 1]]), MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]])]
target = MultiPoly.parse("x13", entries)
family = (MultiPoly.parse("x12", entries), MultiPoly.parse("x23", entries))
budget = SieveBudget(value_want=2, prefix_want=5)
honest = unipotent_group_sieve(gens, target, [family], budget)
unipotent_sieve.multivariable_sieve = forging
res = unipotent_group_sieve(gens, target, [family], budget)
unipotent_sieve.multivariable_sieve = true_sieve
if (res.points, res.matrices, res.dropped) != (honest.points, honest.matrices, honest.dropped + 3):
    raise SystemExit(f"forged points kept: {res.points[len(honest.points):]}, dropped {res.dropped}")
"""


def test_matrix_recheck_drops_forged_points(monkeypatch):
    # the script rebinds multivariable_sieve; monkeypatch restores it whatever happens
    monkeypatch.setattr(unipotent_sieve, "multivariable_sieve", unipotent_sieve.multivariable_sieve)
    exec(FORGED_POINTS, {})


def test_matrix_recheck_drops_forged_points_under_python_O():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_POINTS], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the MultiPoly gcd, content split and certificate against the sympy routes
# they replaced, kept here as references


def content_split_sympy(P, pivot, variables):
    deg = P.degree_in(pivot)
    coeffs = [P.coeff_in(pivot, i) for i in range(deg + 1)]
    g = sympy.Integer(0)
    for c in coeffs:
        if not c.is_zero():
            g = sympy.gcd(g, c.to_sympy())
    H = MultiPoly.from_sympy(g, variables)
    syms = [sympy.Symbol(v) for v in variables]
    His = []
    for c in coeffs:
        if c.is_zero():
            His.append(MultiPoly.constant(variables, 0))
        elif g.is_number:
            His.append(c.scale(Fraction(1) / Fraction(str(g))))
        else:
            q, rem = sympy.div(c.to_sympy(), g, *syms)
            assert sympy.simplify(rem) == 0
            His.append(MultiPoly.from_sympy(q, variables))
    return H, His


def gcd_certificate_sympy(polys, pivot, others):
    variables = polys[0].variables
    pivot_sym = sympy.Symbol(pivot)
    other_syms = [sympy.Symbol(v) for v in others]
    domain = sympy.QQ.frac_field(*other_syms) if other_syms else sympy.QQ
    spolys = [sympy.Poly(P.to_sympy(), pivot_sym, domain=domain) for P in polys]
    g = spolys[0]
    cofactors = [sympy.Poly(1, pivot_sym, domain=domain)]
    for q in spolys[1:]:
        s, t, h = g.gcdex(q)
        cofactors = [s * c for c in cofactors]
        cofactors.append(t)
        g = h
    if g.degree() > 0:
        raise CoprimalityError("common factor")
    c_expr = domain.to_sympy(g.nth(0))
    dens = [sympy.fraction(sympy.together(c_expr))[1]]
    for cof in cofactors:
        for coeff in cof.all_coeffs():
            dens.append(sympy.fraction(sympy.together(domain.to_sympy(coeff)))[1])
    D = sympy.Integer(1)
    for d in dens:
        D = sympy.lcm(D, d)
    Q = MultiPoly.from_sympy(sympy.expand(sympy.together(D * c_expr)), others or (pivot,))
    den = Q.denominator_lcm()
    if Q.terms[max(Q.terms)] < 0:
        den = -den
    Q = Q.scale(den)
    S = tuple(MultiPoly.from_sympy(sympy.cancel(D * den * cof.as_expr()), variables) for cof in cofactors)
    return Q, S


# natural generator order, as sympy sorts generators: y2 before y10
VARIABLE_TUPLES = [("y2",), ("y2", "y10"), ("y1", "y2", "y10")]
COEFFS = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


@st.composite
def polys(draw, variables, max_terms=3, max_exp=2):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(variables))
    return MultiPoly(variables, draw(st.dictionaries(exps, COEFFS, max_size=max_terms)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multipoly_gcd_matches_sympy(data):
    V = data.draw(st.sampled_from(VARIABLE_TUPLES))
    a, b, c = (data.draw(polys(V)) for _ in range(3))
    for f, g in ((a, b), (a * c, b * c), (a, c * c), (a.scale(0), b * c)):
        want = MultiPoly.from_sympy(sympy.gcd(f.to_sympy(), g.to_sympy()), V)
        assert f.gcd(g) == want, (f, g)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_content_split_matches_sympy(data):
    V = data.draw(st.sampled_from(VARIABLE_TUPLES))
    nonzero = polys(V).filter(lambda m: not m.is_zero())
    P = data.draw(nonzero) * data.draw(nonzero)
    pivot = data.draw(st.sampled_from(V))
    assert unipotent_sieve._content_split(P, pivot, V) == content_split_sympy(P, pivot, V)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gcd_certificate_matches_sympy(data):
    V = data.draw(st.sampled_from(VARIABLE_TUPLES))
    pivot = data.draw(st.sampled_from(V))
    others = tuple(v for v in V if v != pivot)
    family = data.draw(st.lists(polys(V).filter(lambda m: not m.is_zero()), min_size=1, max_size=3))
    try:
        want = gcd_certificate_sympy(family, pivot, others)
    except CoprimalityError:
        with pytest.raises(CoprimalityError):
            gcd_certificate(family, pivot, others)
        return
    cert = gcd_certificate(family, pivot, others)
    assert (cert.Q, cert.cofactors) == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_linear_coprime_members_are_sympy_irreducible(data):
    V = data.draw(st.sampled_from(VARIABLE_TUPLES))
    # a * x + b with a, b free of x, so that the check has cases to prove
    v = data.draw(st.sampled_from(V))
    a, b = (data.draw(polys(V)).substitute({v: 0}) for _ in range(2))
    member = a * MultiPoly.var(V, v) + b
    assume(not member.is_zero())
    prim, _ = unipotent_sieve._integerize(member)
    if unipotent_sieve._linear_coprime(prim):
        _, factors = sympy.factor_list(prim.to_sympy())
        assert len(factors) == 1 and factors[0][1] == 1
        assert unipotent_sieve._integerize(MultiPoly.from_sympy(factors[0][0], V))[0] == prim
