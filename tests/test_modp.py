import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affsieve.core_arith import factorize, primes_upto
from affsieve.matgroup import GeneratorSet, MatrixQ, ResourceCapError, ball, entry_variable_names
from affsieve.modp import (
    EnumerationBudgetError,
    beta_squarefree,
    count_Nf,
    det_minus_one,
    detect_ramified,
    enumerate_variety_mod_p,
    generate_image,
    local_density,
    reduce_mod,
    sl_order,
    splitting_census,
    surjectivity_certificate,
    verify_strong_approx,
)
from affsieve import modp
from affsieve.polyalg import CertificateError, MultiPoly

A = MatrixQ([[1, 2], [0, 1]])
B = MatrixQ([[1, 0], [2, 1]])
FREE = GeneratorSet([A, B])
V = entry_variable_names(2)
TR2 = MultiPoly.parse("x11 + x22 - 2", V)
IDEAL = [det_minus_one(2)]


def test_sl_order():
    assert sl_order(2, 3) == 24
    assert sl_order(2, 5) == 120
    assert sl_order(3, 2) == 168


def test_reduce_mod():
    m = reduce_mod(MatrixQ([[Fraction(1, 2), 0], [0, 2]]), 5)
    assert m.entries == ((3, 0), (0, 2))
    with pytest.raises(ValueError):
        reduce_mod(MatrixQ([[Fraction(1, 2), 0], [0, 2]]), 2)


def test_image_orders():
    assert len(generate_image(FREE, 3)) == 24
    assert len(generate_image(FREE, 5)) == 120
    # mod 2 both generators reduce to the identity
    assert len(generate_image(FREE, 2)) == 1
    assert len(generate_image(FREE, 15)) == 2880


def test_image_word_certificates():
    for q in (3, 15):
        img = generate_image(FREE, q)
        for el in img.elements:
            assert img.certify(el)


def test_image_cap():
    with pytest.raises(ResourceCapError) as exc:
        generate_image(FREE, 5, cap=50)
    assert exc.value.size > 50
    assert 0 <= exc.value.partial_radius < len(generate_image(FREE, 5))


def test_strong_approx_table():
    for q in (3, 5, 7, 15, 35):
        v = verify_strong_approx(FREE, q)
        assert v.holds is True, q
        assert v.image_order == v.expected_order
    v2 = verify_strong_approx(FREE, 2)
    assert v2.holds is False
    assert v2.image_order == 1
    with pytest.raises(ValueError):
        verify_strong_approx(FREE, 4)  # not squarefree


def test_strong_approx_certified_beyond_enumeration():
    # 385 = 5 * 7 * 11, all certified: |SL_2(Z/385)| = 120 * 336 * 1320,
    # read off the certificates (enumerating it would hold 53M elements)
    v = verify_strong_approx(FREE, 385)
    assert v.image_order == 53_222_400
    assert v.holds is True
    assert v.per_prime == ((5, 120, 120), (7, 336, 336), (11, 1320, 1320))


@settings(max_examples=12, deadline=None)
@given(a=st.integers(1, 12), b=st.integers(1, 12), q=st.sampled_from([15, 21, 35]))
@example(a=2, b=2, q=35)  # every p | q certified and >= 5: nothing enumerated
@example(a=5, b=1, q=35)  # 5 | a: p = 5 uncertified, image order 1680
@example(a=1, b=7, q=35)  # 7 | b: p = 7 uncertified, image order 840
@example(a=2, b=2, q=15)  # p = 3 is certified but below 5: enumerated, 2880
@example(a=1, b=1, q=21)  # likewise at 21: 8064
def test_strong_approx_matches_enumeration(a, b, q):
    # dual route: the orders the verdict reads off certificates against the
    # images enumerated mod q and mod each p | q
    gens = GeneratorSet([MatrixQ([[1, a], [0, 1]]), MatrixQ([[1, 0], [b, 1]])])
    primes = [p for p in (3, 5, 7) if q % p == 0]
    image_order = len(generate_image(gens, q))
    expected = sl_order(2, primes[0]) * sl_order(2, primes[1])
    v = verify_strong_approx(gens, q)
    assert v.image_order == image_order
    assert v.per_prime == tuple((p, len(generate_image(gens, p)), sl_order(2, p)) for p in primes)
    assert v.holds is (image_order == expected)


def test_variety_count_against_brute_force():
    # oracle: plain brute force over all (x11,x12,x21,x22) in F_p^4
    for p in (3, 5, 7):
        expected = 0
        for x in itertools.product(range(p), repeat=4):
            if (x[0] * x[3] - x[1] * x[2]) % p == 1 and (x[0] + x[3] - 2) % p == 0:
                expected += 1
        assert enumerate_variety_mod_p([TR2, *IDEAL], p, V) == expected
        assert expected == p * p  # the conic tr=2 in SL2 has exactly p^2 points


# systems of up to three equations of degree <= 2 in x, y, z, as term dicts
SYSTEMS = st.lists(
    st.dictionaries(
        st.sampled_from([e for e in itertools.product(range(3), repeat=3) if sum(e) <= 2]),
        st.integers(-3, 3),
        max_size=4,
    ),
    min_size=1,
    max_size=3,
)


def points_in_xyz(eqs, p):
    return sum(all(P.eval(pt) % p == 0 for P in eqs) for pt in itertools.product(range(p), repeat=3))


@settings(max_examples=40, deadline=None)
@given(systems=SYSTEMS, p=st.sampled_from([2, 3, 5, 7]))
# x y + z^2 = x^2 + y z + 1 = 0: no constant lead, no univariate equation;
# the degree-one rule solves the first equation for y, which the second uses
@example(systems=[{(1, 1, 0): 1, (0, 0, 2): 1}, {(2, 0, 0): 1, (0, 1, 1): 1, (0, 0, 0): 1}], p=5)
def test_variety_count_matches_plain_enumeration(systems, p):
    # every route of the counter (elimination, root branches, the degree-one
    # rule on one equation or a system, brute force) against F_p^3; w, which
    # no equation uses, multiplies the count by p
    xyz = ("x", "y", "z")
    eqs = [MultiPoly(xyz, terms) for terms in systems]
    expected = points_in_xyz(eqs, p)
    assert enumerate_variety_mod_p(eqs, p, xyz) == expected
    assert enumerate_variety_mod_p(eqs, p, xyz + ("w",)) == p * expected


@settings(max_examples=40, deadline=None)
@given(systems=SYSTEMS, p=st.sampled_from([11, 13]))
def test_count_plan_matches_plain_enumeration(systems, p):
    # systems whose count plan applies at p: the plan built over Q, evaluated
    # at p, against F_p^3
    xyz = ("x", "y", "z")
    eqs = tuple(MultiPoly(xyz, terms) for terms in systems)
    plan = modp._count_plan(eqs, xyz)
    assume(plan is not None and plan.bad % p)
    expected = points_in_xyz(eqs, p)
    assert plan.count(p) == expected
    assert enumerate_variety_mod_p(eqs, p, xyz) == expected


# {f, det - 1} for f of the benchmark's SL2 shapes in degrees 1 to 4, and
# the f of the shipped scenarios sl2-free and sl2-entry
# (the cubic and the quartic branch over roots and get no plan; the quartic
# reaches brute force, over p^3 from p = 127 on, past the budget)
SL2_SYSTEMS = [
    ("2*x11 + x12 - 2*x21 - 1", True),
    ("x11*x12 - 3*x22**2 + 2*x21 + 4", True),
    ("2*x11**3 - x12*x21 + 3*x22 - 4", False),
    ("x11**4 + 2*x12*x21**2 - 3*x12*x22 + x21", False),
    ("x11 + x22 - 2", True),
    ("x11", True),
]


@pytest.mark.parametrize("f, planned", SL2_SYSTEMS)
def test_count_plan_matches_the_per_prime_counter(f, planned):
    # at every prime up to 500, 2, 3 and the divisors of the bad modulus
    # among them, against the counter run step by step over F_p
    eqs = (MultiPoly.parse(f, V), *IDEAL)
    plan = modp._count_plan(eqs, V)
    assert (plan is not None) is planned
    if not planned:
        return
    assert max(factorize(plan.bad).primes(), default=1) <= 500
    for p in primes_upto(500):
        stepwise = modp._Field(p)
        modp._count_points(eqs, frozenset(V), stepwise)
        assert enumerate_variety_mod_p(eqs, p, V) == stepwise.count(p)
        if plan.bad % p:
            assert plan.count(p) == stepwise.count(p)


def test_beta_loop_builds_one_count_plan_per_system():
    # a beta-table over the primes up to 2000 compiles {tr - 2, det - 1} once
    modp._unramified_density.cache_clear()
    modp._count_plan.cache_clear()
    densities = [local_density(FREE, TR2, p) for p in primes_upto(2000)]
    certified = sum(d.certificate is not None for d in densities)
    assert (len(densities), certified) == (303, 302)
    assert (modp._count_plan.cache_info().misses, modp._count_plan.cache_info().hits) == (1, 301)
    assert all(d.N_f == d.p**2 for d in densities[1:])


def test_univariate_root_counts():
    # one equation in one variable: elimination in degree one, the closed
    # form in degree two, the scan above that, against every x in F_p
    for p in (2, 3, 5, 7, 11, 13):
        for coeffs in itertools.product(range(-3, 4), repeat=4):
            if not any(coeffs[1:]):
                continue
            P = MultiPoly(("x",), {(k,): c for k, c in enumerate(coeffs) if c})
            expected = sum(P.eval([x]) % p == 0 for x in range(p))
            assert enumerate_variety_mod_p([P], p, ("x",)) == expected, (coeffs, p)


def test_variety_count_split_nonsplit():
    f = MultiPoly.parse("x11*x11 + 1", V)
    assert enumerate_variety_mod_p([f, *IDEAL], 5, V) == 50  # -1 square mod 5
    assert enumerate_variety_mod_p([f, *IDEAL], 7, V) == 0  # -1 non-square mod 7


def test_variety_count_factors_out_free_variables(monkeypatch):
    # x y (x + y - 2) = 0 is three lines in the (x, y) plane, 3p - 3 points;
    # z, w and v occur in no equation, so each is a factor p and is never
    # enumerated: at p = 31 the brute force stays at 31^2 points, far below
    # the budget that 31^5 would exceed
    xs = ("x", "y", "z", "w", "v")
    f = MultiPoly.parse("x * y * (x + y - 2)", xs)
    assert enumerate_variety_mod_p([f], 7, xs) == 18 * 7**3
    assert enumerate_variety_mod_p([f], 31, xs) == 90 * 31**3 == 2_681_190
    monkeypatch.setattr(modp, "BRUTE_BUDGET", 31**2)
    assert enumerate_variety_mod_p([f], 31, xs) == 2_681_190


@pytest.mark.parametrize("p", [2, 3, 5, 13, 31, 101])
@pytest.mark.parametrize("n", [2, 3])
def test_det_minus_one_counts_sl_order(n, p):
    # with no equation besides det - 1 the counter must give |SL_n(F_p)|; at
    # n = 3 and p >= 13 this used to exceed the brute-force budget
    assert enumerate_variety_mod_p([det_minus_one(n)], p) == sl_order(n, p)


def test_variety_count_budget(monkeypatch):
    many = tuple(f"z{i}" for i in range(12))
    # an equation with no structure to exploit: cubic in every variable
    hard = MultiPoly.constant(many, -1)
    for z in many:
        hard = hard + MultiPoly.var(many, z) ** 3
    monkeypatch.setattr(modp, "BRUTE_BUDGET", 1000)
    with pytest.raises(EnumerationBudgetError):
        enumerate_variety_mod_p([hard], 7, many)


def test_count_Nf_multiplicativity():
    img15 = generate_image(FREE, 15)
    assert count_Nf(img15, TR2) == 225
    assert count_Nf(generate_image(FREE, 3), TR2) == 9
    assert count_Nf(generate_image(FREE, 5), TR2) == 25
    img21 = generate_image(FREE, 21)
    n3 = count_Nf(generate_image(FREE, 3), TR2)
    n7 = count_Nf(generate_image(FREE, 7), TR2)
    assert count_Nf(img21, TR2) == n3 * n7


def test_count_Nf_matches_a_naive_count_mod_composite_d():
    # f has a coefficient 1/2, invertible mod 15: against the exact value
    # reduced mod 15 at each element of the image mod 15
    img15 = generate_image(FREE, 15)
    f = MultiPoly.parse("x11**2 / 2 + x12*x21 - 3*x22 + 1", V)
    expected = 0
    for entries in img15.words:
        value = f.eval(sum(entries, ()))
        expected += value.numerator * pow(value.denominator, -1, 15) % 15 == 0
    assert count_Nf(img15, f) == expected


def test_count_Nf_rejects_non_entry_variables():
    # y is no matrix entry: it used to be read as 0 (count 25 mod 5)
    f = MultiPoly.parse("x11 + y - 1", V + ("y",))
    with pytest.raises(ValueError, match="not entries"):
        count_Nf(generate_image(FREE, 5), f)


def test_local_density_exact():
    for p in (3, 5, 7, 11, 13):
        d = local_density(FREE, TR2, p)
        assert d.beta == Fraction(p, p * p - 1)
        assert d.order == sl_order(2, p)


def test_local_density_rejects_composite_p():
    # p = 15 used to give beta 5/64, the product of beta(3) and beta(5)
    with pytest.raises(ValueError, match="15 is not prime"):
        local_density(FREE, TR2, 15)


def test_certified_density_falls_back_to_the_image_past_the_counter_budget(monkeypatch):
    # p = 7 is certified, so the counter runs on {f, det - 1}; with a
    # brute-force budget of 2 points it gives up, and the image mod 7 is
    # enumerated instead: the same N_f, order and beta either way
    f = MultiPoly.parse("x11**2 + x22**2 - 2", V)
    modp._unramified_density.cache_clear()
    counted = local_density(FREE, f, 7)
    modp._unramified_density.cache_clear()
    moduli = []
    true_image = modp.generate_image

    def recording(gens, q, *args, **kwargs):
        moduli.append(q)
        return true_image(gens, q, *args, **kwargs)

    monkeypatch.setattr(modp, "generate_image", recording)
    monkeypatch.setattr(modp, "BRUTE_BUDGET", 2)
    enumerated = local_density(FREE, f, 7)
    modp._unramified_density.cache_clear()
    assert moduli == [7] and enumerated.certificate is not None
    assert enumerated == counted
    assert (counted.N_f, counted.order, counted.beta) == (62, 336, Fraction(31, 168))


def test_local_density_ramified_fiat():
    d = local_density(FREE, TR2, 2, ramified=[2])
    assert d.ramified and d.beta == 0


def test_beta_squarefree():
    assert beta_squarefree(FREE, TR2, 15) == Fraction(3, 8) * Fraction(5, 24)
    assert beta_squarefree(FREE, TR2, 15) == Fraction(5, 64)
    assert beta_squarefree(FREE, TR2, 6, ramified=[2]) == 0
    with pytest.raises(ValueError):
        beta_squarefree(FREE, TR2, 9)


def test_beta_squarefree_shares_search_and_local_densities(monkeypatch):
    # the root search and beta(p) are memoized on their inputs: across many
    # d one root search is built and the variety counter runs once per p,
    # and the products are the exact prod p / (p^2 - 1)
    modp.root_search.cache_clear()
    modp._unramified_density.cache_clear()
    counted = []
    true_count = modp.enumerate_variety_mod_p

    def counting(equations, p, *args, **kwargs):
        counted.append(p)
        return true_count(equations, p, *args, **kwargs)

    monkeypatch.setattr(modp, "enumerate_variety_mod_p", counting)
    for d, primes in ((15, (3, 5)), (21, (3, 7)), (105, (3, 5, 7)), (1155, (3, 5, 7, 11))):
        want = Fraction(1)
        for p in primes:
            want *= Fraction(p, p * p - 1)
        assert beta_squarefree(FREE, TR2, d) == want, d
    assert sorted(counted) == [3, 5, 7, 11]
    assert modp.root_search.cache_info().misses == 1


def test_local_density_memo_is_keyed_by_cap():
    # the Borel group mod 5 is uncertified: its image (order 20) is
    # enumerated, and a memoized answer at the default cap must not let a
    # call with cap=10 pass
    borel = GeneratorSet([MatrixQ([[2, 0], [0, Fraction(1, 2)]]), A])
    assert local_density(borel, TR2, 5).order == 20
    with pytest.raises(ResourceCapError):
        local_density(borel, TR2, 5, cap=10)


def test_beta_squarefree_cross_check_enumerates_afresh(monkeypatch):
    # the dual route never reads the memo: each call enumerates mod 15 again
    moduli = []
    true_image = modp.generate_image

    def counting(gens, q, *args, **kwargs):
        moduli.append(q)
        return true_image(gens, q, *args, **kwargs)

    monkeypatch.setattr(modp, "generate_image", counting)
    assert beta_squarefree(FREE, TR2, 15) == beta_squarefree(FREE, TR2, 15) == Fraction(5, 64)
    assert moduli == [15, 15]


def test_strong_approx_builds_no_det_minus_one(monkeypatch):
    # det - 1 has n! terms and strong approximation never reads it
    def refuse(n):
        raise AssertionError(f"det_minus_one({n}) built")

    monkeypatch.setattr(modp, "det_minus_one", refuse)
    assert verify_strong_approx(FREE, 35).holds is True
    modp.root_search.__wrapped__(FREE)  # uncached, so a warm memo hides nothing


def test_beta_squarefree_cross_check_raises_certificate_error(monkeypatch):
    # forge beta(p) = 1/2 for every p: the product disagrees with the direct
    # count mod 15
    true_density = modp.local_density

    def forged(*args, **kwargs):
        d = true_density(*args, **kwargs)
        return modp.LocalDensity(p=d.p, N_f=d.N_f, order=d.order, beta=Fraction(1, 2))

    monkeypatch.setattr(modp, "local_density", forged)
    with pytest.raises(CertificateError):
        beta_squarefree(FREE, TR2, 15)


def test_detect_ramified_tr_minus_2():
    sample = ball(FREE, 3)
    rep = detect_ramified(FREE, TR2, sample)
    assert rep.confirmed == (2,)
    assert rep.unresolved == ()


def test_detect_ramified_zero_sample_gcd():
    # det - 1 vanishes on the whole sample: every prime up to p_max is a
    # candidate, each is confirmed, and -1 marks the unexamined tail
    rep = detect_ramified(FREE, det_minus_one(2), ball(FREE, 2), p_max=20)
    assert rep.sample_gcd == 0
    assert rep.confirmed == tuple(primes_upto(20))
    assert rep.unresolved == (-1,)


def test_detect_ramified_entry_function():
    # x12 is 0 at the identity but not ramified: gcd over the ball is nonzero
    f = MultiPoly.parse("x12 + 1", V)
    rep = detect_ramified(FREE, f, ball(FREE, 3))
    assert 2 not in rep.confirmed or count_Nf(generate_image(FREE, 2), f) == 1


def test_detect_ramified_trace():
    # the whole group is the identity mod 2 and tr(I) = 2, so even f = tr
    # (not just tr - 2) is ramified at 2
    f = MultiPoly.parse("x11 + x22", V)
    rep = detect_ramified(FREE, f, ball(FREE, 3))
    assert rep.confirmed == (2,)


def test_splitting_census_shape():
    f = MultiPoly.parse("x11*x11 + 1", V)
    ps = [p for p in primes_upto(29) if p > 2]
    cen = splitting_census([f, *IDEAL], 2, ps, V)
    for p, count, c_hat, residual in cen.rows:
        expected = 2 if p % 4 == 1 else 0
        assert c_hat == expected, (p, c_hat)
        assert count == expected * p * p
        assert residual == 0
    assert cen.unclassified == ()
    assert cen.degree_sum_estimate == 2


def transvections(a, b):
    return GeneratorSet([MatrixQ([[1, a], [0, 1]]), MatrixQ([[1, 0], [b, 1]])])


MONOMIALS = [e for e in itertools.product(range(3), repeat=4) if sum(e) <= 2]


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(primes_upto(31)),
    st.dictionaries(st.sampled_from(MONOMIALS), st.integers(-3, 3), min_size=1, max_size=4),
)
def test_certified_density_matches_image_enumeration(a, b, p, terms):
    gens = transvections(a, b)
    f = MultiPoly(V, terms)
    d = local_density(gens, f, p)
    image = generate_image(gens, p)
    assert (d.N_f, d.order) == (count_Nf(image, f), len(image))
    # e12(a) and e21(b) are themselves root elements unless p | ab
    assert (d.certificate is not None) == (a * b % p != 0)


def test_uncertified_fallback_enumerates():
    # sl2-entry: both generators are I mod 2 and f = x11 is 1 there
    d = local_density(FREE, MultiPoly.parse("x11", V), 2)
    assert d.certificate is None
    assert (d.order, d.N_f, d.beta) == (1, 0, 0)


def test_no_certificate_without_roots():
    borel = GeneratorSet([MatrixQ([[2, 0], [0, Fraction(1, 2)]]), A])
    assert surjectivity_certificate(borel, 5) is None  # nothing below the diagonal
    assert surjectivity_certificate(borel, 2) is None  # 1/2 does not reduce mod 2
    assert surjectivity_certificate(FREE, 15) is None  # not prime
    assert local_density(borel, TR2, 5).order == 20


def test_certificate_skips_elements_that_are_roots_only_mod_3():
    # [[7,2],[3,1]] - I = [[6,2],[3,0]] is 2 E_12 mod 3 but not mod 5; it (and
    # its inverse, first in ball order) must be passed over at p = 5
    gens = GeneratorSet([[[7, 2], [3, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    for p in (3, 5, 7):
        cert = surjectivity_certificate(gens, p)
        cert.check()
        assert local_density(gens, TR2, p).N_f == count_Nf(generate_image(gens, p), TR2)


def test_certificate_is_checked_and_rechecks():
    cert = surjectivity_certificate(FREE, 7)
    cert.check()
    assert sorted((i, j) for i, j, _, _ in cert.roots) == [(0, 1), (1, 0)]
    (i, j, word, gamma), other = cert.roots
    identity = ((1, 0), (0, 1))
    forgeries = [
        cert._replace(p=2),  # every root is I mod 2
        cert._replace(p=49),
        cert._replace(roots=(other,)),
        cert._replace(roots=((i, j, (), identity), other)),
        cert._replace(roots=((i, j, word + word, gamma), other)),
        cert._replace(generators=cert.generators[:-1] + (((2, 0), (0, 1)),)),
    ]
    for forged in forgeries:
        with pytest.raises(CertificateError):
            forged.check()



@pytest.mark.parametrize("word", [(9,), (-1,)])
def test_certificate_word_index_outside_the_generators_fails(word):
    # the last generator is [[1, 2], [0, 1]] = I + 2 E_12, a root mod 5: the
    # index -1 used to read it and pass, the index 9 to raise IndexError
    cert = surjectivity_certificate(FREE, 5)
    last = cert.generators[-1]
    roots = tuple((i, j, word, last) if (i, j) == (0, 1) else (i, j, w, g) for i, j, w, g in cert.roots)
    with pytest.raises(CertificateError, match="outside the 4 generators"):
        cert._replace(roots=roots).check()


def test_certificate_memo_passes_no_forgery():
    # det 8 = 1 mod 7 only: the certificate at 7 checks, and with its
    # prime-free claims memoized the same roots at 5 still fail on the det
    gens = GeneratorSet([[[8, 0], [0, 1]], [[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    cert = surjectivity_certificate(gens, 7)
    cert.check()
    with pytest.raises(CertificateError, match="has det .* != 1 mod 5"):
        cert._replace(p=5).check()
    (i, j, word, gamma), other = cert.roots
    forged = cert._replace(roots=((i, j, word + word, gamma), other))
    for _ in range(2):  # a failing claim is never memoized
        with pytest.raises(CertificateError, match="does not give"):
            forged.check()


def test_beta_loop_checks_prime_free_claims_once_per_root_tuple():
    # the root at 3 is [[7, 2], [3, 1]] (2 E_12 mod 3), elsewhere another
    gens = GeneratorSet([[[7, 2], [3, 1]], [[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    modp.root_search.cache_clear()
    modp._unramified_density.cache_clear()
    modp._prime_free_claims.cache_clear()
    certified = [local_density(gens, TR2, p).certificate for p in primes_upto(200)]
    roots = {cert.roots for cert in certified if cert is not None}
    assert len(certified) == 46 and None not in certified[1:] and len(roots) > 1
    assert modp._prime_free_claims.cache_info().misses == len(roots)

def elementary(n, i, j, t):
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    rows[i][j] = t
    return MatrixQ(rows)


def adjacent_elementary(n, t):
    """e_{i,i+1}(t) and e_{i+1,i}(t) for every i."""
    return GeneratorSet(
        [elementary(n, i, i + 1, t) for i in range(n - 1)]
        + [elementary(n, i + 1, i, t) for i in range(n - 1)]
    )


def test_certificate_needs_only_adjacent_positions():
    # e12(2), e21(2), e23(2), e32(2): positions (1,3) and (3,1) have no root
    # element in the short ball, and need none, as commutators give them
    sl3 = adjacent_elementary(3, 2)
    for p in (5, 7):
        cert = surjectivity_certificate(sl3, p)
        cert.check()
        assert sorted((i, j) for i, j, _, _ in cert.roots) == [(0, 1), (1, 0), (1, 2), (2, 1)]
    # the cap of 1000 fails fast if anything (5.6M elements mod 35) is enumerated
    v = verify_strong_approx(sl3, 35, cap=1000)
    assert v.image_order == sl_order(3, 5) * sl_order(3, 7)
    assert v.holds is True


def test_certificate_missing_an_adjacent_position_fails():
    cert = surjectivity_certificate(adjacent_elementary(3, 2), 5)
    for k in range(len(cert.roots)):
        with pytest.raises(CertificateError, match="adjacent"):
            cert._replace(roots=cert.roots[:k] + cert.roots[k + 1 :]).check()


def test_certified_sl3_density_matches_image_enumeration():
    # dual route at n = 3: the variety count on {f, det - 1} against the
    # enumerated image, N_f of 168 at p = 2 and of 5,616 at p = 3
    sl3 = adjacent_elementary(3, 1)
    want = {
        "x11 + x22 - 2": (88, 1863),
        "x11*x22 - x13 + 1": (96, 1944),
        "x11**2 + x12*x21 - x33": (92, 1854),
        "x11**3 - x23*x32 + 2": (84, 1908),
        "x11**2 + x22**2 + x33**2 - 3": (88, 2052),
    }
    for k, p in enumerate((2, 3)):
        image = generate_image(sl3, p)
        for text, counts in want.items():
            f = MultiPoly.parse(text, entry_variable_names(3))
            d = local_density(sl3, f, p)
            assert d.certificate is not None
            assert (d.N_f, d.order) == (count_Nf(image, f), len(image)) == (counts[k], sl_order(3, p)), text


FORGED_CERTIFICATE = """
from affsieve.matgroup import GeneratorSet
from affsieve.modp import surjectivity_certificate
from affsieve.polyalg import CertificateError
cert = surjectivity_certificate(GeneratorSet([[[1, 2], [0, 1]], [[1, 0], [2, 1]]]), 5)
i, j, _, _ = cert.roots[0]
forged = cert._replace(roots=((i, j, (), ((1, 0), (0, 1))),) + cert.roots[1:])
try:
    forged.check()
except CertificateError:
    raise SystemExit(0)
raise SystemExit("forged certificate passed its check")
"""


def test_forged_certificate_fails_under_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FORGED_CERTIFICATE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_det_minus_one_is_the_determinant(rows):
    flat = [x for row in rows for x in row]
    assert det_minus_one(len(rows)).eval(flat) == MatrixQ(rows).det() - 1
