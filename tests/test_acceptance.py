"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line so the suite doubles as a report:
run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import sympy

from affsieve.cli import main as cli_main
from affsieve.core_arith import primes_upto
from affsieve.heuristics import borel_cantelli_sum, prime_factor_trend
from affsieve.matgroup import GeneratorSet, MatrixQ, ball, entry_variable_names
from affsieve.modp import (
    count_Nf,
    detect_ramified,
    enumerate_variety_mod_p,
    generate_image,
    det_minus_one,
    local_density,
    sl_order,
    splitting_census,
    verify_strong_approx,
)
from affsieve.orbit_sieve import (
    SieveSequence,
    brun_bound,
    r_formula,
    sieve_dimension_fit,
)
from affsieve.polyalg import MultiPoly
from affsieve.unipotent_sieve import bad_prime_bound
from affsieve.unipotent_sieve import SieveBudget, unipotent_group_sieve

A = MatrixQ([[1, 2], [0, 1]])
B = MatrixQ([[1, 0], [2, 1]])
FREE = GeneratorSet([A, B])
V = entry_variable_names(2)
TR2 = MultiPoly.parse("x11 + x22 - 2", V)
IDEAL = [det_minus_one(2)]


def two_power_product(m: int) -> int:
    """(2^m - 2)(2^m - 1), the orbit value in the rank-1 doubling example."""
    return (2**m - 2) * (2**m - 1)


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {label}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_01_local_density_exact():
    t0 = time.time()
    ok = True
    for p in (3, 5, 7, 11, 13):
        d = local_density(FREE, TR2, p)
        # oracle: count over the full group SL2(F_p), which the image equals
        ok = ok and d.order == sl_order(2, p) and d.beta == Fraction(p, p * p - 1)
    elapsed = time.time() - t0
    report(1, "local density beta(p) = p/(p^2-1)", ok and elapsed < 5, f"{elapsed:.2f}s")


def test_02_multiplicativity():
    n15 = count_Nf(generate_image(FREE, 15), TR2)
    n3 = count_Nf(generate_image(FREE, 3), TR2)
    n5 = count_Nf(generate_image(FREE, 5), TR2)
    n21 = count_Nf(generate_image(FREE, 21), TR2)
    n7 = count_Nf(generate_image(FREE, 7), TR2)
    ok = n15 == n3 * n5 == 225 and n21 == n3 * n7
    report(2, "N_f multiplicative on squarefree moduli", ok, f"N(15)={n15}, N(21)={n21}")


def test_03_strong_approximation():
    ok = all(verify_strong_approx(FREE, q).holds for q in (3, 5, 7, 15, 35))
    v2 = verify_strong_approx(FREE, 2)
    ok = ok and v2.holds is False and v2.image_order == 1
    report(3, "strong approximation holds except q=2", ok)


def test_04_ramified_primes():
    rep = detect_ramified(FREE, TR2, ball(FREE, 3))
    d = local_density(FREE, TR2, 2, ramified=rep.confirmed)
    ok = rep.confirmed == (2,) and d.ramified and d.beta == 0
    report(4, "ramified prime set = {2} with beta fiat 0", ok)


def test_05_splitting_census():
    f = MultiPoly.parse("x11*x11 + 1", V)
    small = splitting_census([f, *IDEAL], 2, [p for p in primes_upto(29) if p > 2], V)
    ok = all(
        c_hat == (2 if p % 4 == 1 else 0) and count == c_hat * p * p
        for p, count, c_hat, _ in small.rows
    )
    big = splitting_census([f, *IDEAL], 2, [p for p in primes_upto(2000) if p > 2], V)
    freq2 = float(big.frequencies.get(2, 0))
    ok = ok and abs(freq2 - 0.5) <= 0.05
    report(5, "splitting census c_hat in {0,2} by p mod 4", ok, f"freq(c=2)={freq2:.4f}")


def test_06_sieve_dimension_calibration():
    ok = True
    for c in (1, 2):
        table = {p: Fraction(c, p) for p in primes_upto(10**4)}
        fit = sieve_dimension_fit(table, 3, 10**4)
        ok = ok and abs(fit.slope - c) <= 0.05 * c
    table = {}
    for p in primes_upto(2000):
        if p == 2:
            table[p] = Fraction(0)
            continue
        count = enumerate_variety_mod_p([TR2, *IDEAL], p, V)
        table[p] = Fraction(count, sl_order(2, p))
    fit = sieve_dimension_fit(table, 3, 2000)
    ok = ok and abs(fit.slope - 1) <= 0.25
    report(6, "sieve dimension fit", ok, f"scenario slope={fit.slope:.4f}")


def test_07_brun_bracketing():
    entries: dict[int, int] = {}
    for n in range(3, 10**4 + 1):
        v = n * (n + 2)
        entries[v] = entries.get(v, 0) + 1
    seq = SieveSequence(L=0, S_used=(), entries=entries, skipped=0)
    ok = True
    for z in (7, 10, 13):
        exact = seq.sifted_count(z)
        prev_gap = None
        for b in (2, 3):
            br = brun_bound(seq, z, b)
            ok = ok and br.lower <= exact <= br.upper
            gap = br.upper - br.lower
            if prev_gap is not None:
                ok = ok and gap <= prev_gap
            prev_gap = gap
    report(7, "Brun brackets contain the exact rough count", ok)


def test_08_unipotent_sieve_end_to_end():
    xvars = entry_variable_names(3)
    x13 = MultiPoly.parse("x13", xvars)
    fam = tuple(MultiPoly.parse(s, xvars) for s in ("x12", "x23"))
    gens = [
        MatrixQ([[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
        MatrixQ([[1, 0, 0], [0, 1, 1], [0, 0, 1]]),
    ]
    res = unipotent_group_sieve(gens, x13, [fam], SieveBudget())
    ok = len(res.points) >= 100 and res.dropped == 0
    ok = ok and len(res.matrices) == len(res.points)
    # 100% matrix-route re-verification (beyond the one built into the sieve)
    for pt, m in zip(res.points, res.matrices):
        e = m.entry_dict()
        ok = ok and int(e["x13"]) == pt.value
        ok = ok and math.gcd(abs(int(e["x12"])), abs(int(e["x23"]))) == pt.family_gcds[0]
    # S contains every instance's bad primes
    S = set(res.S)
    for rec in res.prefixes:
        for inst in rec.instances:
            if not inst.is_constant():
                ok = ok and set(bad_prime_bound(inst).primes) <= S
    report(8, "unipotent sieve emits >= 100 certified points", ok, f"{len(res.points)} pts, S={res.S}")


def test_09_r_formula():
    val = r_formula(1, 1, 3, Fraction(1, 2), 4, Fraction(1), Fraction(1))
    ok = val == 104
    grid = {
        (s, deg): r_formula(deg, s, 3, Fraction(1, 2), 4)
        for s in (1, 2, 3)
        for deg in (1, 2, 3)
    }
    for s, deg in itertools.product((1, 2), (1, 2, 3)):
        ok = ok and grid[(s + 1, deg)] >= grid[(s, deg)]
    for s, deg in itertools.product((1, 2, 3), (1, 2)):
        ok = ok and grid[(s, deg + 1)] >= grid[(s, deg)]
    report(9, "r formula worked example and monotonicity", ok, f"r={val}")


def test_10_trend_and_borel_cantelli():
    ok = two_power_product(5) == 930
    table = prime_factor_trend(two_power_product, 120, odd_only=True, start=2)
    ok = ok and table.incomplete == 0
    row5 = next(r for r in table.rows if r.m == 5)
    ok = ok and row5.omega_distinct == 3
    for row in table.rows:
        oracle = {p: e for p, e in sympy.factorint(row.value).items() if p != 2}
        ok = ok and row.omega_distinct == len(oracle)
        ok = ok and row.omega_mult == sum(oracle.values())
    rep = borel_cantelli_sum(1, 2, 1, 10**6, checkpoints=[10**5])
    increment = rep.partial_sums[-1] - rep.partial_sums[0]
    ok = ok and increment < 2e-5 and rep.partial_sums[-1] < rep.integral_bound
    report(10, "trend table vs oracle; Borel-Cantelli sums", ok, f"increment={increment:.3e}")


def test_11_determinism(tmp_path):
    import os

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    runs = [
        ["ball", "--scenario", os.path.join(root, "scenarios", "sl2-free.json"), "--L", "3"],
        ["local-density", "--scenario", os.path.join(root, "scenarios", "sl2-free.json"), "--p", "5"],
        ["strong-approx", "--scenario", os.path.join(root, "scenarios", "sl2-free.json"), "--q", "15"],
        ["r-formula", "--deg", "1", "--s", "1", "--dim", "3", "--tau", "1/2", "--omega", "4"],
    ]
    ok = True
    for i, args in enumerate(runs):
        p1 = tmp_path / f"r{i}a.json"
        p2 = tmp_path / f"r{i}b.json"
        ok = ok and cli_main(args + ["--record", str(p1)]) == 0
        ok = ok and cli_main(args + ["--record", str(p2)]) == 0
        ok = ok and p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        ok = ok and "versions" in payload
    report(11, "byte-identical record replay", ok)
