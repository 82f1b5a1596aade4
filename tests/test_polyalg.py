import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsieve.matgroup import MatrixQ
from affsieve.polyalg import (
    MultiPoly,
    bad_prime_bound,
    gcd_certificate,
    malcev_lattice,
    monomials_upto,
    nilpotent_exp,
    nilpotent_log,
    progression_avoiding,
    zariski_density_test,
)

V = ("n",)
X = MultiPoly.var(V, "n")


def test_parse_and_eval():
    p = MultiPoly.parse("n**2 - 3*n/2 + 1", V)
    assert p.eval({"n": 2}) == 2
    assert p.eval({"n": Fraction(1, 2)}) == Fraction(1, 2)
    with pytest.raises(ValueError):
        MultiPoly.parse("n + m", V)


# expression trees in the parser's grammar, joined with or without
# parentheses: the right operand of '/' and '**' is always an integer literal,
# so every join stays inside the grammar, and both parsers read it with
# Python's precedence
PARSE_VARS = ("x", "y", "z")


def _join(children):
    def render(parts):
        left, op, right, wrap = parts
        text = f"{left} {op} {right}"
        return f"({text})" if wrap else text

    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children, st.booleans()).map(render),
        st.tuples(children, st.just("/"), st.integers(1, 9).map(str), st.booleans()).map(render),
        st.tuples(children, st.just("**"), st.integers(0, 3).map(str), st.booleans()).map(render),
        children.map(lambda c: f"-{c}"),
    )


POLY_TEXT = st.recursive(
    st.one_of(st.integers(0, 30).map(str), st.sampled_from(PARSE_VARS)), _join, max_leaves=8
)


@settings(max_examples=150, deadline=None)
@given(POLY_TEXT)
def test_parse_matches_sympy(text):
    import sympy
    from sympy.parsing.sympy_parser import parse_expr, standard_transformations

    syms = {v: sympy.Symbol(v) for v in PARSE_VARS}
    expr = parse_expr(text, local_dict=syms, transformations=standard_transformations)
    p = MultiPoly.parse(text, PARSE_VARS)
    assert p == MultiPoly.from_sympy(expr, PARSE_VARS)
    # repr writes the syntax parse reads
    assert MultiPoly.parse(repr(p)[len("MultiPoly(") : -1], PARSE_VARS) == p


@pytest.mark.parametrize(
    "text",
    [
        "(lambda: 7)()*n",
        "n**(1/2)",
        "n/(n - 1)",
        "n/0",
        "2n",
        "+n",
        "(n + 1",
        "",
    ],
)
def test_parse_rejects_outside_grammar(text):
    # beside the CLI cases in test_scenario_cli
    with pytest.raises(ValueError, match="cannot parse polynomial"):
        MultiPoly.parse(text, V)


def test_arithmetic_roundtrip():
    p = (X + 1) * (X - 1)
    assert p == X * X - 1
    assert (p - p).is_zero()
    assert p.degree() == 2
    assert p.coeff_in("n", 2).constant_value() == 1


def test_eval_mod():
    p = MultiPoly.parse("n**2 + 1", V)
    assert p.eval_mod({"n": 2}, 5) == 0
    assert p.eval_mod({"n": 1}, 5) == 2
    with pytest.raises(ValueError):
        MultiPoly.parse("n/5", V).eval_mod({"n": 1}, 5)


def test_eval_mod_missing_variable_raises():
    # a variable missing from the point is an error, not a silent 0
    p = MultiPoly.parse("n + m", ("n", "m"))
    assert p.eval_mod({"n": 1, "m": 3}, 5) == 4
    with pytest.raises(ValueError, match="no value"):
        p.eval_mod({"n": 1}, 5)


@settings(max_examples=50, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(max_denominator=6).filter(lambda c: c.denominator % 7),
        max_size=5,
    ),
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
)
def test_eval_mod_matches_exact_eval(terms, point):
    # the mod-m evaluator agrees with the exact evaluator reduced mod 7 and 21
    p = MultiPoly(("a", "b"), terms)
    exact = p.eval(point)
    for m in (7, 21):
        if math.gcd(p.denominator_lcm(), m) == 1:
            want = exact.numerator * pow(exact.denominator, -1, m) % m
            assert p.eval_mod(dict(zip(p.variables, point)), m) == want


def test_gcd_certificate_frozen_examples():
    # gcd of values of {n, n+2} is 1 or 2; the certificate pins m = 2
    cert = gcd_certificate([X, X + 2])
    assert cert.m == 2 and cert.verify()
    cert = gcd_certificate([X, X + 1])
    assert cert.m == 1 and cert.verify()
    cert = gcd_certificate([X * X, X + 2])
    assert cert.m == 4 and cert.verify()
    cert = gcd_certificate([X * X + 1, X])
    assert cert.m == 1 and cert.verify()


def test_gcd_certificate_rejects_common_factor():
    with pytest.raises(ValueError):
        gcd_certificate([X * (X + 1), X])


FORGED_VERIFY = """
from affsieve.polyalg import CertificateError, GcdCertificate, MultiPoly, gcd_certificate
GcdCertificate.verify = lambda self: False
X = MultiPoly.var(("n",), "n")
try:
    gcd_certificate([X, X + 2])
except CertificateError:
    raise SystemExit(0)
raise SystemExit("certificate check was skipped")
"""


def test_gcd_certificate_check_survives_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_VERIFY], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_gcd_certificate_divides_value_gcds():
    import math

    cert = gcd_certificate([X * X, X + 2])
    for v in range(-20, 21):
        g = math.gcd(v * v, v + 2)
        if g:
            assert cert.m % g == 0 or g % cert.m == 0 or math.gcd(g, cert.m) == g


def test_bad_prime_bound_frozen():
    assert bad_prime_bound(X * (X + 1)).primes == (2,)
    assert bad_prime_bound(X * X + 1).primes == ()
    assert bad_prime_bound(X * X * X - X).primes == (2, 3)
    assert bad_prime_bound((X + 1) * (X + 2) * (X + 3)).value_gcd == 6


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=1, max_size=4))
def test_bad_prime_bound_divides_all_values(coeffs):
    terms = {(k,): Fraction(c) for k, c in enumerate(coeffs) if c}
    p = MultiPoly(V, terms)
    if p.is_zero():
        return
    b = bad_prime_bound(p)
    for m in range(-10, 11):
        v = int(p.eval({"n": m}))
        if v:
            assert v % b.value_gcd == 0


def test_progression_avoiding_window():
    a, b = progression_avoiding(15, [X])
    assert a == 15 and b % 3 and b % 5
    # every point of the progression avoids 3 and 5
    for j in range(-10, 11):
        n = a * j + b
        assert n % 3 and n % 5
    # impossible requirement: n and n+1 cannot both be odd
    with pytest.raises(ValueError):
        progression_avoiding(6, [X, X + 1])


def test_progression_avoiding_skips_bad_primes():
    # n(n+1) is always even, so 2 must be skipped rather than failed
    a, b = progression_avoiding(10, [X * (X + 1)])
    assert a == 5  # only the prime 5 is constrained


def test_nilpotent_exp_log_roundtrip():
    N = ((Fraction(0), Fraction(2), Fraction(1, 3)),
         (Fraction(0), Fraction(0), Fraction(-1)),
         (Fraction(0), Fraction(0), Fraction(0)))
    u = nilpotent_exp(N)
    assert nilpotent_log(u) == N
    with pytest.raises(ValueError):
        nilpotent_exp(((Fraction(1),),))


def test_malcev_lattice_heisenberg():
    a = MatrixQ([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    b = MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    lat = malcev_lattice([a, b])
    assert lat.rank == 3
    assert lat.scale == 2
    assert lat.conjugation_N == 1
    assert lat.span_stable
    # the commutator direction carries the 1/2 from the BCH correction
    uppers = sorted(tuple(B[0][1] for B in lat.basis))
    assert Fraction(1, 2) in {B[0][2] for B in lat.basis}
    # lattice points are honest integer matrices
    for coords in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 3)]:
        m = MatrixQ(lat.lattice_point(coords))
        assert all(x.denominator == 1 for row in m.entries for x in row)


def test_malcev_lattice_rejects_non_unipotent():
    with pytest.raises(ValueError):
        malcev_lattice([MatrixQ([[2, 0], [0, 1]])])


def test_monomials_upto():
    assert len(monomials_upto(("x", "y"), 2)) == 6  # 1, x, y, x2, xy, y2


def test_density_collinear_points_fail():
    pts = [(i, 2 * i) for i in range(10)]
    verdict = zariski_density_test(pts, 1)
    assert not verdict.dense
    assert verdict.witness is not None
    # witness really vanishes on the points
    for p in pts:
        assert verdict.witness.eval({"x1": p[0], "x2": p[1]}) == 0


def test_density_generic_points_pass():
    pts = [(i, i * i + 1) for i in range(10)]
    assert zariski_density_test(pts, 1).dense


def test_density_modulo_ambient_ideal():
    # points on the circle x^2 + y^2 = 1 are never dense at D = 2 absolutely,
    # but are dense modulo the circle's own ideal
    pts = [
        (Fraction(1 - t * t, 1 + t * t), Fraction(2 * t, 1 + t * t))
        for t in range(-6, 7)
    ]
    variables = ("x1", "x2")
    circle = MultiPoly.parse("x1**2 + x2**2 - 1", variables)
    assert not zariski_density_test(pts, 2).dense
    assert zariski_density_test(pts, 2, [circle]).dense


def test_density_insufficient_points_flagged():
    verdict = zariski_density_test([(1, 1)], 2)
    assert not verdict.dense
    assert not verdict.sufficient_points
    assert verdict.needed_points > 0


def test_density_monotone_in_degree():
    # denser requirements can only flip dense -> not dense, never the reverse
    pts = [(i, i * i + 1) for i in range(4)]
    d1 = zariski_density_test(pts, 1).dense
    d2 = zariski_density_test(pts, 2).dense
    assert d1 or not d2


def _fraction_eval(terms, point):
    """Independent evaluation: every coefficient and coordinate as a Fraction."""
    total = Fraction(0)
    for exps, c in terms.items():
        t = Fraction(c)
        for x, e in zip(point, exps):
            t *= Fraction(x) ** e
        total += t
    return total


COEFFS = st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=9))


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), COEFFS, max_size=6),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
    st.tuples(st.fractions(-9, 9, max_denominator=9), st.fractions(-9, 9, max_denominator=9)),
    st.lists(st.integers(-9, 9), min_size=4, max_size=4).filter(
        lambda m: m[0] * m[3] - m[1] * m[2] not in (0, 1, -1)
    ),
)
def test_eval_is_exact(terms, ipoint, qpoint, m):
    p = MultiPoly(("a", "b"), terms)
    # the rational point M^-1 (1, 1), against Cramer's rule in Fraction
    a, b, c, d = m
    det = Fraction(a * d - b * c)
    cramer = ((d - b) / det, (a - c) / det)
    mpoint = MatrixQ([[a, b], [c, d]]).inverse().apply((1, 1))
    assert mpoint == cramer
    for point, want in ((ipoint, ipoint), (qpoint, qpoint), (mpoint, cramer)):
        value = p.eval(point)
        assert type(value) in (int, Fraction)
        assert value == _fraction_eval(terms, want)
    if all(type(c) is int or c.denominator == 1 for c in terms.values()):
        # integer coefficients at an integer point: int arithmetic throughout
        assert type(p.eval(ipoint)) is int
