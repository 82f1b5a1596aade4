import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affsieve.matgroup import MatrixQ, ball, entry_positions, entry_variable_names, rational_row_reduce
from affsieve.polyalg import (
    MultiPoly,
    NilpotentLog,
    _integer_hnf,
    _nilpotent_series,
    exp_series,
    malcev_lattice,
    monomials_upto,
    nilpotent_exp,
    nilpotent_log,
    span_element,
    zariski_density_test,
)
from affsieve.scenario import load_scenario
from affsieve.unipotent_sieve import bad_prime_bound, gcd_certificate, progression_avoiding

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
    with pytest.raises(ValueError, match="denominator 5 not invertible mod 5"):
        MultiPoly.parse("n/5", V).eval_mod({"n": 1}, 5)
    # 1/6 reduces mod 5 but not mod the composite 21
    assert MultiPoly.parse("n**2 + n/6", V).eval_mod({"n": 1}, 5) == 2
    with pytest.raises(ValueError, match="denominator 6 not invertible mod 21"):
        MultiPoly.parse("n**2 + n/6", V).eval_mod({"n": 1}, 21)


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


TERMS_AB = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.fractions(-4, 4, max_denominator=3), max_size=4
)


@settings(max_examples=100, deadline=None)
@given(TERMS_AB, TERMS_AB)
def test_divmod_is_exact_division_with_remainder(f_terms, d_terms):
    f, d = MultiPoly(("a", "b"), f_terms), MultiPoly(("a", "b"), d_terms)
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(f, d)
        return
    q, r = divmod(f, d)
    assert q * d + r == f
    # no remainder term is a multiple of d's leading (lex-largest) term
    lead = max(d.terms)
    assert all(any(x < y for x, y in zip(e, lead)) for e in r.terms)
    assert divmod(f * d, d) == (f, MultiPoly(("a", "b")))


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
    # the factor is named primitive in the pivot and over Z, whatever the
    # scale of the Euclid's rows
    abc = ("a", "b", "c")
    f = MultiPoly.parse("a*c - b", abc)
    with pytest.raises(ValueError, match=r"common factor MultiPoly\(a\*c - b\) over"):
        gcd_certificate([f * f, f * MultiPoly.parse("(a + 2)*c/5", abc)], "c", ("a", "b"))


FORGED_VERIFY = """
from affsieve.polyalg import CertificateError, MultiPoly
from affsieve.unipotent_sieve import GcdCertificate, gcd_certificate
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


@st.composite
def strictly_upper(draw):
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=draw(st.sampled_from((1, 2, 6, 30))))
    return tuple(tuple(draw(entry) if j > i else Fraction(0) for j in range(n)) for i in range(n))


@settings(max_examples=150, deadline=None)
@given(strictly_upper())
def test_nilpotent_exp_log_match_fraction_series(N):
    n = len(N)
    ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    exp_ref = _nilpotent_series(N, [Fraction(1, math.factorial(k)) for k in range(n)])
    u = nilpotent_exp(N)
    assert u == exp_ref
    U = tuple(tuple(x - e for x, e in zip(row, erow)) for row, erow in zip(exp_ref, ident))
    log_ref = _nilpotent_series(U, [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, n)])
    assert log_ref == N
    assert nilpotent_log(u) == N
    assert nilpotent_exp(nilpotent_log(u)) == u
    for mat in (u, nilpotent_log(u)):
        for x in itertools.chain.from_iterable(mat):
            assert type(x) is (int if x.denominator == 1 else Fraction)


def fraction_route_point(lat, coords):
    """exp(scale sum_k coords[k] B_k) by the plain Fraction series."""
    return exp_series(span_element([c * lat.scale for c in coords], lat.basis, lat.n))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_point_matches_the_fraction_series(data):
    n = data.draw(st.sampled_from((2, 3, 4)), label="n")
    entry = st.fractions(min_value=-20, max_value=20, max_denominator=data.draw(st.sampled_from((1, 2, 6, 30))))
    rank = data.draw(st.integers(1, 3), label="rank")
    basis = tuple(
        tuple(tuple(data.draw(entry) if j > i else 0 for j in range(n)) for i in range(n)) for _ in range(rank)
    )
    scale = data.draw(st.sampled_from((1, 2, 6)), label="scale")
    coords = data.draw(st.lists(st.integers(-20, 20), min_size=rank, max_size=rank), label="coords")
    lat = NilpotentLog(n=n, basis=basis, scale=scale, conjugation_N=1, span_stable=True)
    u = lat.lattice_point(coords)
    assert u == fraction_route_point(lat, coords)
    for x in itertools.chain.from_iterable(u):
        assert type(x) is (int if x.denominator == 1 else Fraction)


@pytest.mark.parametrize("name", ["heisenberg-rational", "heisenberg-families"])
def test_scenario_lattice_points_match_the_fraction_series(name):
    lat = malcev_lattice(load_scenario(os.path.join(SCENARIOS, f"{name}.json")).generator_matrices)
    for coords in itertools.product(range(-4, 5), repeat=lat.rank):
        assert lat.lattice_point(coords) == fraction_route_point(lat, coords), coords


def test_malcev_lattice_rational_heisenberg():
    sc = load_scenario(os.path.join(SCENARIOS, "heisenberg-rational.json"))
    lat = malcev_lattice(sc.generator_matrices)
    assert lat.basis == (
        ((0, Fraction(1, 2), 0), (0, 0, 0), (0, 0, 0)),
        ((0, 0, Fraction(1, 12)), (0, 0, 0), (0, 0, 0)),
        ((0, 0, 0), (0, 0, Fraction(1, 3)), (0, 0, 0)),
    )
    assert (lat.scale, lat.conjugation_N, lat.span_stable) == (1, 6, True)
    u = lat.lattice_point((1, 1, 1))
    assert u == ((1, Fraction(1, 2), Fraction(1, 6)), (0, 1, Fraction(1, 3)), (0, 0, 1))
    assert nilpotent_log(u) == tuple(
        tuple(sum(B[i][j] for B in lat.basis) for j in range(3)) for i in range(3)
    )


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


@pytest.mark.parametrize(
    "rows, hnf",
    [
        ([[-2, 1, 5], [-1, -4, 1], [1, 5, -4]], [[1, 0, 11], [0, 1, 27], [0, 0, 30]]),
        ([[5, 2, -5], [-2, 4, -1], [-2, -4, 6]], [[1, 2, 0], [0, 8, 5], [0, 0, 6]]),
    ],
)
def test_integer_hnf_is_the_canonical_form(rows, hnf):
    assert _integer_hnf(rows) == hnf


def test_malcev_lattice_span_stable_compares_lattices_not_bases():
    # the logs of words of length <= 3 and <= 4 span the same lattice; only a
    # canonical basis lets the two equal lattices compare equal
    a = MatrixQ([[1, 2, 3, 0], [0, 1, 2, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    b = MatrixQ([[1, 3, 3, 3], [0, 1, 2, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    assert malcev_lattice([a, b]).span_stable


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


def test_density_refuses_a_point_of_the_wrong_length():
    for variables in (None, ("x1", "x2")):
        for pts in ([(1, 2), (3,)], [(1, 2), (3, 4, 5)]):
            with pytest.raises(ValueError, match="point 1 has"):
                zariski_density_test(pts, 1, variables=variables)
    with pytest.raises(ValueError, match="point 0 has 3 coordinates"):
        zariski_density_test([(1, 2, 3)], 1, variables=("x1", "x2"))


def test_density_monotone_in_degree():
    # denser requirements can only flip dense -> not dense, never the reverse
    pts = [(i, i * i + 1) for i in range(4)]
    d1 = zariski_density_test(pts, 1).dense
    d2 = zariski_density_test(pts, 2).dense
    assert d1 or not d2


def _density_reference(points, D, ambient_ideal_basis=(), variables=None):
    """The density test as first written: Fraction evaluation through a
    MultiPoly per monomial, the full nullspace, then the witness search."""
    k = len(points[0])
    if variables is None:
        variables = tuple(f"x{i+1}" for i in range(k))
    variables = tuple(variables)
    monos = monomials_upto(variables, D)
    ambient_rows = []
    for g in ambient_ideal_basis:
        g = g if g.variables == variables else g.substitute({}, variables)
        room = D - g.degree()
        if room < 0:
            continue
        for mexp in monomials_upto(variables, room):
            prod = g * MultiPoly(variables, {mexp: 1})
            ambient_rows.append([prod.terms.get(e, 0) for e in monos])
    ambient_rref = rational_row_reduce(ambient_rows) if ambient_rows else []
    ambient_rank = len(ambient_rref)
    mono_polys = [MultiPoly(variables, {e: 1}) for e in monos]
    rows = [[m.eval(dict(zip(variables, pt))) for m in mono_polys] for pt in points]
    rref = rational_row_reduce(rows)
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in rref]
    free = [j for j in range(len(monos)) if j not in pivots]
    sufficient = len(points) >= len(monos) - ambient_rank
    needed = max(0, len(monos) - ambient_rank - len(points))
    if not free:
        return True, sufficient, 0, None
    null_vectors = []
    for j in free:
        vec = [0] * len(monos)
        vec[j] = 1
        for r, pc in zip(rref, pivots):
            vec[pc] = -r[j]
        null_vectors.append(vec)
    combined = rational_row_reduce(ambient_rref + null_vectors) if ambient_rref else None
    if combined is not None and len(combined) == ambient_rank:
        return True, sufficient, 0, None
    witness_vec = null_vectors[0]
    if ambient_rref:
        witness_vec = next(
            v for v in null_vectors if len(rational_row_reduce(ambient_rref + [v])) > ambient_rank
        )
    return False, sufficient, needed, {e: c for e, c in zip(monos, witness_vec) if c != 0}


@st.composite
def density_inputs(draw):
    """Points in k <= 3 variables, D <= 3, and an ambient basis that is
    empty, holds a polynomial vanishing on the points, or holds one that
    need not (the last coordinate is a polynomial in the others when
    ``on_curve``)."""
    k = draw(st.integers(1, 3))
    variables = tuple(f"x{i+1}" for i in range(k))
    D = draw(st.integers(0, 3))
    coord = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3))
    curve_terms = st.dictionaries(
        st.lists(st.integers(0, 2), min_size=k, max_size=k).map(lambda e: (*e[:-1], 0)),
        st.integers(-3, 3),
        max_size=3,
    )
    curve = MultiPoly(variables, draw(curve_terms))
    on_curve = k > 1 and draw(st.booleans())
    points = []
    for _ in range(draw(st.integers(1, 14))):
        pt = draw(st.lists(coord, min_size=k, max_size=k))
        if on_curve:
            pt[-1] = curve.eval(pt)
        points.append(tuple(pt))
    vanishing = curve - MultiPoly.var(variables, variables[-1])
    other = MultiPoly(variables, draw(curve_terms))
    ambient = draw(st.sampled_from(([], [vanishing], [other, vanishing], [other])))
    return points, D, ambient, variables


@settings(max_examples=200, deadline=None)
@given(density_inputs(), st.booleans())
def test_density_test_matches_the_reference(inputs, named):
    points, D, ambient, variables = inputs
    got = zariski_density_test(points, D, ambient, variables if named else None)
    want = _density_reference(points, D, ambient, variables if named else None)
    assert (got.dense, got.sufficient_points, got.needed_points) == want[:3]
    assert (got.witness.terms if got.witness else None) == want[3]
    if got.witness is not None:
        assert all(got.witness.eval(pt) == 0 for pt in points)


def _in_lattice(v, hnf):
    """Whether the int vector v is an integer combination of the HNF rows."""
    v = list(v)
    for row in hnf:
        col = next(j for j, x in enumerate(row) if x)
        q, rem = divmod(v[col], row[col])
        if rem:
            return False
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def _minor_gcd(rows, r):
    """gcd of all r x r minors: with equal rank, a lattice containing another
    equals it iff the two generating sets have equal minor gcds."""
    g = 0
    for ri in itertools.combinations(range(len(rows)), r):
        for ci in itertools.combinations(range(len(rows[0])), r):
            g = math.gcd(g, int(MatrixQ([[rows[i][j] for j in ci] for i in ri]).det()))
    return g


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n), min_size=1, max_size=5)
    )
)
def test_integer_hnf_is_canonical_and_spans_the_input(rows):
    hnf = _integer_hnf(rows)
    leads = [next(j for j, x in enumerate(row) if x) for row in hnf]
    assert leads == sorted(set(leads))
    for i, (row, col) in enumerate(zip(hnf, leads)):
        assert row[col] > 0
        assert all(0 <= hnf[k][col] < row[col] for k in range(i))
    assert all(_in_lattice(v, hnf) for v in rows)
    r = len(hnf)
    assert r == len(rational_row_reduce(rows))
    if r:
        assert _minor_gcd(rows, r) == _minor_gcd(hnf, r)


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


def _rewrite(poly, images, yvars):
    """poly with each variable replaced by its image over yvars: the term by
    term expansion, one factor at a time, that ``substitute`` replaces."""
    out = MultiPoly.constant(yvars, 0)
    for exps, c in poly.terms.items():
        term = MultiPoly.constant(yvars, c)
        for name, e in zip(poly.variables, exps):
            for _ in range(e):
                term = term * images[name]
        out = out + term
    return out


YVARS = ("y1", "y2")
Y_POLYS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), COEFFS, max_size=3).map(
    lambda terms: MultiPoly(YVARS, terms)
)


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), COEFFS, max_size=4),
    st.tuples(Y_POLYS, Y_POLYS, st.one_of(Y_POLYS, COEFFS)),
)
def test_substitute_into_other_variables_matches_the_term_expansion(terms, images):
    # the unipotent sieve maps entry polynomials into lattice coordinates;
    # y2, given no image, moves from position 0 to its place in YVARS
    xs = ("y2", "x11", "x12", "x22")
    poly = MultiPoly(xs, terms)
    images = dict(zip(xs[1:], images))
    as_polys = {x: v if isinstance(v, MultiPoly) else MultiPoly.constant(YVARS, v) for x, v in images.items()}
    got = poly.substitute(images, YVARS)
    want = _rewrite(poly, {**as_polys, "y2": MultiPoly.var(YVARS, "y2")}, YVARS)
    assert got.variables == YVARS
    assert got.terms == want.terms
    assert all(type(c) is int or c.denominator > 1 for c in got.terms.values())
    # within the same tuple, substituting y-polynomials for y-variables
    assert want.substitute({"y1": as_polys["x11"]}).terms == _rewrite(
        want, {"y1": as_polys["x11"], "y2": MultiPoly.var(YVARS, "y2")}, YVARS
    ).terms


def test_substitute_needs_an_image_for_every_variable_that_occurs():
    p = MultiPoly.parse("x11 * x12 + 1", ("x11", "x12"))
    with pytest.raises(ValueError, match="no image for variable x12"):
        p.substitute({"x11": MultiPoly.var(YVARS, "y1")}, YVARS)
    # x12 does not occur in x11 + 1, so it needs no image
    q = MultiPoly.parse("x11 + 1", ("x11", "x12"))
    assert q.substitute({"x11": MultiPoly.var(YVARS, "y1")}, YVARS) == MultiPoly.parse("y1 + 1", YVARS)


def test_eval_refuses_a_point_of_the_wrong_length():
    p = MultiPoly.parse("x*y + 1", ("x", "y"))
    assert p.eval([2, 3]) == 7 and p.eval({"x": 2, "y": 3, "z": 99}) == 7
    for point in ([2, 3, 99], [2], ()):
        with pytest.raises(ValueError, match=f"point has {len(point)} coordinates, polynomial has 2 variables"):
            p.eval(point)


SCENARIOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios")
# sl2-free has int entries; the torus diag(2, 1/2) has Fraction entries,
# some of them integral Fractions (0 + 0 * 1/2)
BALLS = [ball(load_scenario(os.path.join(SCENARIOS, name)).generators, 4) for name in ("sl2-free.json", "torus.json")]


def _term_sum(f, point):
    """The naive term sum, skipping zero exponents as the evaluator does."""
    total = 0
    for exps, c in f.terms.items():
        t = c
        for x, e in zip(point, exps):
            if e:
                t = t * x**e
        total = total + t
    return total


@settings(max_examples=100, deadline=None)
@given(
    st.permutations(entry_variable_names(2)).flatmap(
        lambda names: st.tuples(
            st.integers(1, 4).map(lambda k: names[:k]),
            st.dictionaries(st.lists(st.integers(0, 3), min_size=4, max_size=4).map(tuple), COEFFS, max_size=5),
        )
    ),
)
def test_eval_and_ball_values_match_the_term_sum(drawn):
    # Ball.values runs f's term plan by entry position; eval runs it by
    # variable position.  Values and types must agree with the naive sum.
    names, terms = drawn
    f = MultiPoly(names, {exps[: len(names)]: c for exps, c in terms.items()})
    positions = entry_positions(names, 2)
    for B in BALLS:
        values = list(B.values(f))
        assert [e for e, _ in values] == list(B.length)
        for e, value in values:
            flat = sum(e, ())
            point = [flat[k] for k in positions]
            want = _term_sum(f, point)
            for got in (value, f.eval(point), f.eval(dict(zip(names, point)))):
                assert got == want and type(got) is type(want)
