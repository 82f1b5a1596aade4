"""Finite reductions of rational matrix groups: images mod q with generation
certificates, exact variety point counts over F_p, local densities beta(p),
ramified-prime detection, strong-approximation checks, and splitting censuses.

The variety counter is exact and avoids full brute force where it can:
univariate root scans, elimination of variables that appear linearly with a
constant coefficient, and a three-way recursion on a variable of degree one
(its leading coefficient is either invertible, giving one solution per
assignment of the rest, or zero, giving p or none).  Full enumeration is the
last resort and is budgeted.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .core_arith import check_prime_set, factorize, is_prime, primes_upto
from .matgroup import (
    Ball,
    GeneratorSet,
    MatrixQ,
    ResourceCapError,
    _identity,
    _matmul,
    bfs,
    entry_positions,
    entry_variable_names,
)
from .polyalg import CertificateError, MultiPoly, eval_residues

EntriesMod = tuple[tuple[int, ...], ...]


def sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


@dataclass(frozen=True)
class MatrixModQ:
    q: int
    entries: EntriesMod

    @property
    def n(self) -> int:
        return len(self.entries)

    def __matmul__(self, other: "MatrixModQ") -> "MatrixModQ":
        if self.q != other.q:
            raise ValueError("moduli differ")
        return MatrixModQ(self.q, _matmul(self.entries, other.entries, self.q))


def reduce_mod(gamma: MatrixQ, q: int) -> MatrixModQ:
    """Entrywise reduction; denominators must be invertible mod q."""
    if q < 2:
        raise ValueError("modulus must be >= 2")
    rows = []
    for row in gamma.entries:
        out = []
        for x in row:
            if math.gcd(x.denominator, q) != 1:
                raise ValueError(
                    f"entry {x} has denominator sharing a factor with modulus {q}"
                )
            out.append(x.numerator % q * pow(x.denominator, -1, q) % q)
        rows.append(tuple(out))
    return MatrixModQ(q, tuple(rows))


@dataclass(frozen=True)
class FiniteImage:
    """Closure of the generator reductions mod q, with a word certificate per
    element (indices into the symmetrized generator list)."""

    q: int
    generators: tuple[MatrixModQ, ...]
    words: dict[EntriesMod, tuple[int, ...]]

    def __len__(self):
        return len(self.words)

    @property
    def elements(self) -> list[MatrixModQ]:
        return [MatrixModQ(self.q, e) for e in sorted(self.words)]

    def certify(self, element: MatrixModQ) -> bool:
        """Re-multiply the recorded word and compare."""
        word = self.words.get(element.entries)
        if word is None:
            return False
        acc = MatrixModQ(self.q, _identity(element.n))
        for idx in word:
            acc = acc @ self.generators[idx]
        return acc.entries == element.entries


def generate_image(
    gens: GeneratorSet, q: int, cap: int = 5_000_000
) -> FiniteImage:
    """BFS closure of the reductions mod q.

    The group is finite, so closure under generator multiplication already
    contains inverses; no inverse computation mod q is needed.
    """
    reduced = tuple(reduce_mod(g, q) for g in gens.generators)
    words = bfs(
        _identity(gens.n),
        [g.entries for g in reduced],
        lambda a, b: _matmul(a, b, q),
        cap=cap,
        label=lambda word, i: word + (i,),
        start_label=(),
        what=f"image mod {q}",
    )
    return FiniteImage(q=q, generators=reduced, words=words)


@dataclass(frozen=True)
class StrongApproxVerdict:
    q: int
    holds: Optional[bool]  # None = unverifiable (no expected order)
    image_order: int
    expected_order: Optional[int]
    per_prime: tuple[tuple[int, int, Optional[int]], ...]  # (p, observed, expected)


def verify_strong_approx(
    gens: GeneratorSet,
    q: int,
    expected_orders: Optional[Callable[[int], Optional[int]]] = None,
    cap: int = 5_000_000,
) -> StrongApproxVerdict:
    """Compare |pi_q(Gamma)| with the product of expected per-prime orders.

    ``expected_orders`` maps p to the order of the target group over F_p;
    defaults to the SL_n order formula.  Unknown orders give holds=None.
    """
    fac = factorize(q)
    if any(e > 1 for _, e in fac.factors) or not fac.complete:
        raise ValueError("modulus must be squarefree and factorable")
    if expected_orders is None:
        n = gens.n
        expected_orders = lambda p: sl_order(n, p)  # noqa: E731
    image = generate_image(gens, q, cap=cap)
    per_prime = []
    expected_total: Optional[int] = 1
    for p in fac.primes():
        sub = generate_image(gens, p, cap=cap)
        exp = expected_orders(p)
        per_prime.append((p, len(sub), exp))
        if exp is None or expected_total is None:
            expected_total = None
        else:
            expected_total *= exp
    holds = None if expected_total is None else (len(image) == expected_total)
    return StrongApproxVerdict(
        q=q,
        holds=holds,
        image_order=len(image),
        expected_order=expected_total,
        per_prime=tuple(per_prime),
    )


# ---------------------------------------------------------------------------
# exact point counting over F_p

Terms = dict[tuple[int, ...], int]


def _p_normalize(t: Terms, p: int) -> Terms:
    return {e: c % p for e, c in t.items() if c % p}


def _p_add(a: Terms, b: Terms, p: int) -> Terms:
    out = dict(a)
    for e, c in b.items():
        out[e] = (out.get(e, 0) + c) % p
    return {e: c for e, c in out.items() if c}


def _p_mul(a: Terms, b: Terms, p: int) -> Terms:
    out: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = (out.get(key, 0) + c1 * c2) % p
    return {e: c for e, c in out.items() if c}


def _p_deg_in(t: Terms, i: int) -> int:
    return max((e[i] for e in t), default=0)


def _p_coeff_of(t: Terms, i: int, k: int) -> Terms:
    out = {}
    for e, c in t.items():
        if e[i] == k:
            key = e[:i] + (0,) + e[i + 1 :]
            out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


def _p_set_var(t: Terms, i: int, val: int, p: int) -> Terms:
    out: Terms = {}
    for e, c in t.items():
        key = e[:i] + (0,) + e[i + 1 :]
        cc = c * pow(val, e[i], p) % p if e[i] else c % p
        out[key] = (out.get(key, 0) + cc) % p
    return {e: c for e, c in out.items() if c}


def _p_subst(t: Terms, i: int, repl: Terms, p: int) -> Terms:
    """Substitute variable i by the polynomial repl (which must not use i)."""
    nvars = len(next(iter(t))) if t else 0
    out: Terms = {}
    pow_cache: list[Terms] = [{(0,) * nvars: 1}]
    maxe = _p_deg_in(t, i)
    for _ in range(maxe):
        pow_cache.append(_p_mul(pow_cache[-1], repl, p))
    for e, c in t.items():
        base = {e[:i] + (0,) + e[i + 1 :]: c % p}
        term = _p_mul(base, pow_cache[e[i]], p) if e[i] else _p_normalize(base, p)
        out = _p_add(out, term, p)
    return out


def _p_used_vars(t: Terms) -> set[int]:
    used = set()
    for e in t:
        for i, k in enumerate(e):
            if k:
                used.add(i)
    return used


def _scan_roots(t: Terms, i: int, p: int) -> list[int]:
    """Roots of a univariate polynomial (in variable i) by Horner scan."""
    d = _p_deg_in(t, i)
    coeffs = [0] * (d + 1)
    for e, c in t.items():
        coeffs[e[i]] = (coeffs[e[i]] + c) % p
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


class EnumerationBudgetError(RuntimeError):
    pass


def _count_points(eqs: list[Terms], active: frozenset[int], p: int, brute_budget: int) -> int:
    # normalize; constants decide immediately
    live: list[Terms] = []
    for t in eqs:
        t = _p_normalize(t, p)
        if not t:
            continue
        used = _p_used_vars(t) & active
        if not used:
            return 0  # nonzero constant equation
        live.append(t)
    if not live:
        return pow(p, len(active))
    # drop duplicate equations
    uniq = []
    seen = set()
    for t in live:
        key = tuple(sorted(t.items()))
        if key not in seen:
            seen.add(key)
            uniq.append(t)
    live = uniq

    # inactive variables appearing in equations would be a bug
    # (substitutions always clear them), so active-set bookkeeping is implicit.

    # 1) linear elimination: a variable with degree 1 and constant leading coeff
    for idx, t in enumerate(live):
        for i in sorted(_p_used_vars(t) & active):
            if _p_deg_in(t, i) != 1:
                continue
            lead = _p_coeff_of(t, i, 1)
            if len(lead) == 1 and next(iter(lead)) == (0,) * len(next(iter(lead))):
                c = next(iter(lead.values())) % p
                rest = _p_coeff_of(t, i, 0)
                inv = pow(c, -1, p)
                repl = {e: (-v * inv) % p for e, v in rest.items()}
                repl = {e: v for e, v in repl.items() if v}
                new_eqs = [
                    _p_subst(u, i, repl, p) for j, u in enumerate(live) if j != idx
                ]
                return _count_points(new_eqs, active - {i}, p, brute_budget)

    # 2) a univariate equation: branch over its (few) roots
    for idx, t in enumerate(live):
        used = _p_used_vars(t) & active
        if len(used) == 1:
            i = next(iter(used))
            roots = _scan_roots(t, i, p)
            others = [u for j, u in enumerate(live) if j != idx]
            if not others:
                return len(roots) * pow(p, len(active) - 1)
            total = 0
            for r in roots:
                sub = [_p_set_var(u, i, r, p) for u in others]
                total += _count_points(sub, active - {i}, p, brute_budget)
            return total

    # 3) single equation with a degree-1 variable (polynomial coefficient):
    #    N = #{lead != 0} + p * #{lead = 0 and rest = 0}
    if len(live) == 1:
        t = live[0]
        for i in sorted(_p_used_vars(t) & active):
            if _p_deg_in(t, i) == 1:
                lead = _p_coeff_of(t, i, 1)
                rest = _p_coeff_of(t, i, 0)
                others = active - {i}
                k = len(others)
                zeros_lead = _count_points([lead], frozenset(others), p, brute_budget)
                zeros_both = _count_points(
                    [lead, rest], frozenset(others), p, brute_budget
                )
                return (pow(p, k) - zeros_lead) + p * zeros_both

    # 4) budgeted brute force over the active variables
    total_points = pow(p, len(active))
    if total_points > brute_budget:
        raise EnumerationBudgetError(
            f"brute force over p^{len(active)} = {total_points} exceeds budget"
        )
    order = sorted(active)
    values = [0] * len(next(iter(live[0])))
    count = 0
    for assignment in itertools.product(range(p), repeat=len(order)):
        for i, v in zip(order, assignment):
            values[i] = v
        if all(eval_residues(t, values, p) == 0 for t in live):
            count += 1
    return count


def enumerate_variety_mod_p(
    equations: Sequence[MultiPoly],
    p: int,
    variables: Optional[Sequence[str]] = None,
    brute_budget: int = 2_000_000,
) -> int:
    """Exact #V(F_p) of the affine variety cut out by the equations.

    The variable set defaults to the union of the equations' variable tuples.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if variables is None:
        variables = equations[0].variables if equations else ()
    variables = tuple(variables)
    nvars = len(variables)
    eqs = [
        (P if P.variables == variables else P.extend(variables)).residues(p)
        for P in equations
    ]
    return _count_points(eqs, frozenset(range(nvars)), p, brute_budget)


# ---------------------------------------------------------------------------
# densities


def count_Nf(image: FiniteImage, f: MultiPoly, d: Optional[int] = None) -> int:
    """#{x in image : f(x) = 0 mod d}; d defaults to the image modulus.

    Every variable of f must name a matrix entry x{i}{j} of the image.
    """
    d = image.q if d is None else d
    if image.q % d != 0:
        raise ValueError("d must divide the image modulus")
    index = entry_positions(f.variables, len(next(iter(image.words))))
    terms = f.residues(d)
    count = 0
    for entries in image.words:
        flat = sum(entries, ())
        if eval_residues(terms, [flat[k] for k in index], d) == 0:
            count += 1
    return count


@dataclass(frozen=True)
class LocalDensity:
    p: int
    N_f: int
    order: int
    beta: Fraction
    ramified: bool = False


def local_density(
    gens: GeneratorSet,
    f: MultiPoly,
    p: int,
    ramified: Iterable[int] = (),
    cap: int = 5_000_000,
) -> LocalDensity:
    """beta(p) = N_f(p) / |pi_p(Gamma)|; 0 by fiat at ramified primes."""
    ram = set(check_prime_set(ramified))
    if p in ram:
        return LocalDensity(p=p, N_f=0, order=0, beta=Fraction(0), ramified=True)
    image = generate_image(gens, p, cap=cap)
    nf = count_Nf(image, f)
    beta = Fraction(nf, len(image))
    return LocalDensity(p=p, N_f=nf, order=len(image), beta=beta)


def beta_squarefree(
    gens: GeneratorSet,
    f: MultiPoly,
    d: int,
    ramified: Iterable[int] = (),
    cross_check_bound: int = 50,
    cap: int = 5_000_000,
) -> Fraction:
    """prod_{p|d} beta(p) for squarefree d; 0 when d meets a ramified prime.

    Cross-checked against the direct mod-d count when d is small.
    """
    if d == 1:
        return Fraction(1)
    fac = factorize(d)
    if not fac.complete or any(e > 1 for _, e in fac.factors):
        raise ValueError("d must be squarefree (and factorable)")
    ram = set(check_prime_set(ramified))
    if any(p in ram for p in fac.primes()):
        return Fraction(0)
    beta = Fraction(1)
    for p in fac.primes():
        beta *= local_density(gens, f, p, cap=cap).beta
    if 1 < d <= cross_check_bound and len(fac.primes()) > 1:
        image = generate_image(gens, d, cap=cap)
        direct = Fraction(count_Nf(image, f), len(image))
        if direct != beta:
            raise CertificateError(
                f"multiplicativity cross-check failed at d={d}: {direct} != {beta}"
            )
    return beta


@dataclass(frozen=True)
class RamifiedReport:
    confirmed: tuple[int, ...]
    unresolved: tuple[int, ...]  # candidates above p_max or unverifiable
    sample_gcd: int

    @property
    def primes(self) -> tuple[int, ...]:
        return self.confirmed


def detect_ramified(
    gens: GeneratorSet,
    f: MultiPoly,
    sample: Ball,
    p_max: int = 100,
    cap: int = 5_000_000,
) -> RamifiedReport:
    """Primes dividing f on the whole group.

    A ramified prime divides every sampled value, so the prime divisors of the
    gcd over the ball exhaust the candidates; each candidate <= p_max is then
    confirmed or refuted on the full finite image mod p (f factors through the
    reduction).
    """
    if len(sample) == 0:
        raise ValueError("empty sample")
    g = 0
    for _, val in sample.values(f):
        g = math.gcd(g, val.numerator)
    unresolved: list[int] = []
    if g == 0:
        # f vanishes on the whole sample: every prime remains a candidate;
        # -1 marks the unexamined tail above p_max
        candidates = list(primes_upto(p_max))
        unresolved.append(-1)
    else:
        fac = factorize(g)
        candidates = [p for p in fac.primes() if p <= p_max]
        unresolved.extend(p for p in fac.primes() if p > p_max)
        if not fac.complete:
            unresolved.append(-1)  # unknown large candidates in the cofactor
    confirmed = []
    for p in candidates:
        try:
            image = generate_image(gens, p, cap=cap)
        except (ValueError, ResourceCapError):
            unresolved.append(p)
            continue
        if count_Nf(image, f) == len(image):
            confirmed.append(p)
    return RamifiedReport(
        confirmed=tuple(sorted(confirmed)),
        unresolved=tuple(unresolved),
        sample_gcd=g,
    )


# ---------------------------------------------------------------------------
# splitting census


@dataclass(frozen=True)
class SplittingCensus:
    dim_V: int
    rows: tuple[tuple[int, int, Optional[int], int], ...]  # (p, count, c_hat, residual)
    frequencies: dict[int, Fraction]
    unclassified: tuple[int, ...]
    degree_sum_estimate: Optional[int]


def splitting_census(
    equations: Sequence[MultiPoly],
    dim_V: int,
    primes: Sequence[int],
    variables: Optional[Sequence[str]] = None,
    brute_budget: int = 2_000_000,
) -> SplittingCensus:
    """Leading coefficients c_hat(p) = round(count / p^dim_V) with a
    Lang-Weil-shaped acceptance window |count - c_hat p^dim| <= 6 p^(dim-1/2)."""
    rows = []
    unclassified = []
    freq: dict[int, int] = {}
    classified = 0
    for p in primes:
        count = enumerate_variety_mod_p(equations, p, variables, brute_budget)
        c_hat = round(Fraction(count, p**dim_V))
        residual = count - c_hat * p**dim_V
        # tolerance 6 * p^(dim - 1/2), compared without floats
        if residual * residual * p <= 36 * p ** (2 * dim_V):
            rows.append((p, count, c_hat, residual))
            freq[c_hat] = freq.get(c_hat, 0) + 1
            classified += 1
        else:
            rows.append((p, count, None, count))
            unclassified.append(p)
    frequencies = {c: Fraction(k, classified) for c, k in freq.items()} if classified else {}
    nonzero = sorted(c for c in freq if c != 0)
    if nonzero and set(freq) <= {0, nonzero[0]}:
        # two-valued {0, c} pattern: c estimates the splitting-field degree sum
        degree_sum = nonzero[0]
    elif nonzero:
        degree_sum = max(nonzero)
    else:
        degree_sum = 0 if freq else None
    return SplittingCensus(
        dim_V=dim_V,
        rows=tuple(rows),
        frequencies=frequencies,
        unclassified=tuple(unclassified),
        degree_sum_estimate=degree_sum,
    )


def sl2_ambient_ideal() -> list[MultiPoly]:
    """det - 1 over the 2x2 entry variables."""
    variables = entry_variable_names(2)
    x11 = MultiPoly.var(variables, "x11")
    x12 = MultiPoly.var(variables, "x12")
    x21 = MultiPoly.var(variables, "x21")
    x22 = MultiPoly.var(variables, "x22")
    return [x11 * x22 - x12 * x21 - MultiPoly.constant(variables, 1)]
