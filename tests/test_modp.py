import itertools
from fractions import Fraction

import pytest

from affsieve.core_arith import primes_upto
from affsieve.matgroup import GeneratorSet, MatrixQ, ResourceCapError, ball, entry_variable_names
from affsieve.modp import (
    EnumerationBudgetError,
    beta_squarefree,
    count_Nf,
    detect_ramified,
    enumerate_variety_mod_p,
    generate_image,
    local_density,
    reduce_mod,
    sl2_ambient_ideal,
    sl_order,
    splitting_census,
    verify_strong_approx,
)
from affsieve import modp
from affsieve.polyalg import CertificateError, MultiPoly

A = MatrixQ([[1, 2], [0, 1]])
B = MatrixQ([[1, 0], [2, 1]])
FREE = GeneratorSet([A, B])
V = entry_variable_names(2)
TR2 = MultiPoly.parse("x11 + x22 - 2", V)
IDEAL = sl2_ambient_ideal()


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


def test_variety_count_against_brute_force():
    # oracle: plain brute force over all (x11,x12,x21,x22) in F_p^4
    for p in (3, 5, 7):
        expected = 0
        for x in itertools.product(range(p), repeat=4):
            if (x[0] * x[3] - x[1] * x[2]) % p == 1 and (x[0] + x[3] - 2) % p == 0:
                expected += 1
        assert enumerate_variety_mod_p([TR2, *IDEAL], p, V) == expected
        assert expected == p * p  # the conic tr=2 in SL2 has exactly p^2 points


def test_variety_count_split_nonsplit():
    f = MultiPoly.parse("x11*x11 + 1", V)
    assert enumerate_variety_mod_p([f, *IDEAL], 5, V) == 50  # -1 square mod 5
    assert enumerate_variety_mod_p([f, *IDEAL], 7, V) == 0  # -1 non-square mod 7


def test_variety_count_budget():
    many = tuple(f"z{i}" for i in range(12))
    # an equation with no structure to exploit: cubic in every variable
    hard = MultiPoly.constant(many, -1)
    for z in many:
        hard = hard + MultiPoly.var(many, z) ** 3
    with pytest.raises(EnumerationBudgetError):
        enumerate_variety_mod_p([hard], 7, many, brute_budget=1000)


def test_count_Nf_multiplicativity():
    img15 = generate_image(FREE, 15)
    assert count_Nf(img15, TR2) == 225
    assert count_Nf(generate_image(FREE, 3), TR2) == 9
    assert count_Nf(generate_image(FREE, 5), TR2) == 25
    img21 = generate_image(FREE, 21)
    n3 = count_Nf(generate_image(FREE, 3), TR2)
    n7 = count_Nf(generate_image(FREE, 7), TR2)
    assert count_Nf(img21, TR2) == n3 * n7


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


def test_local_density_ramified_fiat():
    d = local_density(FREE, TR2, 2, ramified=[2])
    assert d.ramified and d.beta == 0


def test_beta_squarefree():
    assert beta_squarefree(FREE, TR2, 15) == Fraction(3, 8) * Fraction(5, 24)
    assert beta_squarefree(FREE, TR2, 15) == Fraction(5, 64)
    assert beta_squarefree(FREE, TR2, 6, ramified=[2]) == 0
    with pytest.raises(ValueError):
        beta_squarefree(FREE, TR2, 9)


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
