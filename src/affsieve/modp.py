"""Finite reductions of rational matrix groups: images mod q with generation
certificates, surjectivity certificates mod p, exact variety point counts over
F_p, local densities beta(p), ramified-prime detection, strong-approximation
checks, and splitting censuses.

beta(p) = N_f(p) / |pi_p(Gamma)| has two routes.  Where a surjectivity
certificate proves pi_p(Gamma) = SL_n(F_p), N_f(p) is the variety count of
{f = 0, det = 1} and the order is |SL_n(F_p)|; elsewhere the image is
enumerated.  Strong approximation says the first route covers all but
finitely many p.  For squarefree q whose primes are all certified and at
least 5, Goursat's lemma lifts the certificates: the image mod q is the
product of the SL_n(F_p), so ``verify_strong_approx`` reads its order off
them instead of enumerating it.

One memo decides how mod-p work is shared: ``root_search`` is memoized on
the generators, ``det_minus_one`` on n, the claims of a surjectivity
certificate that do not involve p on (generators, roots), and the
unramified result of ``local_density`` on (gens, f, p, cap), so callers
pass no sharing state.
The memo holds only these small results, never a ``FiniteImage``: images
are enumerated afresh, so the dual routes (``beta_squarefree``'s count mod
d) never read it.

The variety counter is exact and avoids full brute force where it can: a
factor p for each variable that no equation uses, elimination of variables
that appear linearly with a constant coefficient, univariate root counts
(closed form for quadratics) and scans, and one rule for a variable x of
degree one in any equation lead * x + rest of any system: where lead is
invertible x is solved for and cleared from the other equations, and where
lead vanishes the equation splits into {lead, rest}.  Full enumeration runs
only when no equation has a variable of degree one, and is budgeted.  Its
equations are ``MultiPoly``s reduced by ``MultiPoly.mod(p)``; it has no
arithmetic of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .core_arith import Constructed, check_prime_set, factorize, is_prime, primes_upto
from .matgroup import (
    Ball,
    Entries,
    GeneratorSet,
    MatrixQ,
    ResourceCapError,
    _freeze,
    _identity,
    _kernels,
    _matmul,
    bfs,
    entry_positions,
    entry_variable_names,
)
from .polyalg import CertificateError, MultiPoly

EntriesMod = tuple[tuple[int, ...], ...]


def sl_order(n: int, p: int) -> int:
    """|SL_n(F_p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1)."""
    order = p ** (n * (n - 1) // 2)
    for k in range(2, n + 1):
        order *= p**k - 1
    return order


class MatrixModQ(NamedTuple):
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


class _FiniteImage(NamedTuple):
    q: int
    generators: tuple[MatrixModQ, ...]
    words: dict[EntriesMod, tuple[int, ...]]


class FiniteImage(Constructed, _FiniteImage):
    """Closure of the generator reductions mod q, with a word certificate per
    element (indices into the symmetrized generator list)."""

    __slots__ = ()

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
    mulmod = _kernels(gens.n).mulmod
    words = bfs(
        _identity(gens.n),
        [g.entries for g in reduced],
        gens.inverses,
        lambda a, b: mulmod(a, b, q),
        cap=cap,
        label=lambda word, i: word + (i,),
        start_label=(),
        what=f"image mod {q}",
    )
    return FiniteImage(q=q, generators=reduced, words=words)


class StrongApproxVerdict(NamedTuple):
    q: int
    holds: bool
    image_order: int
    expected_order: int
    per_prime: tuple[tuple[int, int, int], ...]  # (p, observed, expected)


def verify_strong_approx(gens: GeneratorSet, q: int, cap: int = 5_000_000) -> StrongApproxVerdict:
    """Compare |pi_q(Gamma)| with prod_{p | q} |SL_n(F_p)|.

    A prime p | q with a surjectivity certificate has pi_p(Gamma) =
    SL_n(F_p), so its observed order is |SL_n(F_p)|; the image mod p is
    enumerated only at the other primes.  When every p | q is certified and
    p >= 5, pi_q(Gamma) is the whole product of the SL_n(F_p) and nothing is
    enumerated.  Proof: for p >= 5, SL_n(F_p) is perfect and PSL_n(F_p) is
    simple, so a proper normal subgroup of SL_n(F_p) is central and every
    nontrivial quotient has PSL_n(F_p) as a composition factor; for fixed n
    these simple groups have distinct orders at distinct p.  By Goursat's
    lemma a subgroup H of G_1 x G_2 that maps onto both factors is the graph
    of an isomorphism G_1/N_1 = G_2/N_2.  Take G_1 = SL_n(F_p) and G_2 the
    product over the other primes, onto which H maps by induction on the
    number of primes.  The composition factors of G_2 are cyclic or a
    PSL_n(F_p') with p' != p, so G_1/N_1 is trivial, hence so is G_2/N_2, and
    H = G_1 x G_2.  Otherwise the image mod q is enumerated (``cap`` bounds
    it).
    """
    if q < 2:
        raise ValueError("modulus must be >= 2")
    fac = factorize(q)
    if any(e > 1 for _, e in fac.factors) or not fac.complete:
        raise ValueError("modulus must be squarefree and factorable")
    n = gens.n
    primes = fac.primes()
    search = root_search(gens)
    certified = {p for p in primes if search.certificate(p) is not None}
    expected = math.prod(sl_order(n, p) for p in primes)
    if primes and certified == set(primes) and min(primes) >= 5:
        image_order = expected
    else:
        image_order = len(generate_image(gens, q, cap=cap))
    per_prime = []
    for p in primes:
        observed = sl_order(n, p) if p in certified else len(generate_image(gens, p, cap=cap))
        per_prime.append((p, observed, sl_order(n, p)))
    return StrongApproxVerdict(
        q=q,
        holds=image_order == expected,
        image_order=image_order,
        expected_order=expected,
        per_prime=tuple(per_prime),
    )


# ---------------------------------------------------------------------------
# exact point counting over F_p


def _count_roots(coeffs: list[int], p: int) -> int:
    """Number of roots in F_p: for a quadratic and odd p, Euler's criterion on
    the discriminant; a scan otherwise (linear equations never get here, as
    step 1 eliminates them)."""
    if len(coeffs) == 3 and p != 2:
        c, b, a = coeffs
        disc = (b * b - 4 * a * c) % p
        return 1 if disc == 0 else 2 if pow(disc, (p - 1) // 2, p) == 1 else 0
    return len(_scan_roots(coeffs, p))


def _scan_roots(coeffs: list[int], p: int) -> list[int]:
    """Roots in F_p of the polynomial with these coefficients, by Horner scan."""
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


def _count_points(eqs: list[MultiPoly], active: frozenset[str], p: int) -> int:
    """#{x in F_p^active : every equation vanishes at x}.  The equations share
    one variable tuple and use no variable outside ``active`` (substitutions
    clear the variables they eliminate)."""
    live: list[tuple[MultiPoly, tuple[str, ...]]] = []  # (equation, its variables in tuple order)
    for u in eqs:
        t = u.mod(p)
        if t.is_zero() or any(t == s for s, _ in live):  # zero or a duplicate
            continue
        used = t.used_variables()
        if not used:
            return 0  # nonzero constant equation
        live.append((t, tuple(filter(used.__contains__, t.variables))))
    # an active variable that no equation uses contributes a factor p
    bound = frozenset().union(*(used for _, used in live))
    return pow(p, len(active - bound)) * (_count_bound(live, bound, p) if live else 1)


def _count_bound(
    live: list[tuple[MultiPoly, tuple[str, ...]]], active: frozenset[str], p: int
) -> int:
    """``_count_points`` on reduced, distinct, nonconstant equations that use
    every active variable."""
    # 1) linear elimination: a variable with degree 1 and constant leading coeff
    for idx, (t, used) in enumerate(live):
        for i in used:
            if t.degree_in(i) != 1:
                continue
            lead = t.coeff_in(i, 1)
            if lead.is_constant():
                repl = t.coeff_in(i, 0).scale(-pow(lead.constant_value(), -1, p))
                new_eqs = [u.substitute({i: repl}) for j, (u, _) in enumerate(live) if j != idx]
                return _count_points(new_eqs, active - {i}, p)

    # 2) a univariate equation: branch over its (few) roots
    for idx, (t, used) in enumerate(live):
        if len(used) == 1:
            i = used[0]
            coeffs = [t.coeff_in(i, k).constant_value() for k in range(t.degree_in(i) + 1)]
            others = [u for j, (u, _) in enumerate(live) if j != idx]
            if not others:
                return _count_roots(coeffs, p)  # i is then the only active variable
            return sum(
                _count_points([u.substitute({i: r}) for u in others], active - {i}, p)
                for r in _scan_roots(coeffs, p)
            )

    # 3) a variable x of degree one in an equation lead * x + rest (polynomial
    #    lead): where lead != 0, x = -rest / lead, and another equation u of
    #    degree d in x vanishes there exactly where u~ = lead^d u(-rest / lead)
    #    does; where lead = 0, the equation is {lead, rest} and x is free in it.
    #    N = #{u~} - #{lead, u~} + #{lead, rest, u}, the first two without x.
    #    One equation takes its first such x; a system takes the one whose
    #    lead has least degree, then least degree in the other equations.
    found = [(idx, i) for idx, (t, used) in enumerate(live) for i in used if t.degree_in(i) == 1]
    if found:

        def cost(choice):
            idx, i = choice
            others = (u.degree_in(i) for j, (u, _) in enumerate(live) if j != idx)
            return live[idx][0].coeff_in(i, 1).degree(), max(others)

        idx, i = found[0] if len(live) == 1 else min(found, key=cost)
        t = live[idx][0]
        lead, rest = t.coeff_in(i, 1), t.coeff_in(i, 0)
        others = [u for j, (u, _) in enumerate(live) if j != idx]
        cleared = [
            sum(u.coeff_in(i, k) * (-rest) ** k * lead ** (d - k) for k in range(d + 1))
            for u, d in ((u, u.degree_in(i)) for u in others)
        ]
        without_x = active - {i}
        return (
            _count_points(cleared, without_x, p)
            - _count_points([lead, *cleared], without_x, p)
            + _count_points([lead, rest, *others], active, p)
        )

    # 4) budgeted brute force over the active variables
    variables = live[0][0].variables
    order = [k for k, v in enumerate(variables) if v in active]
    total_points = pow(p, len(order))
    if total_points > BRUTE_BUDGET:
        raise EnumerationBudgetError(
            f"brute force over p^{len(order)} = {total_points} exceeds budget"
        )
    values = [0] * len(variables)
    run = MultiPoly.run_plan
    plans = [t.term_plan() for t, _ in live]
    count = 0
    for assignment in itertools.product(range(p), repeat=len(order)):
        for k, v in zip(order, assignment):
            values[k] = v
        count += all(run(plan, values) % p == 0 for plan in plans)
    return count


BRUTE_BUDGET = 2_000_000  # number of points a brute force may visit
CROSS_CHECK_BOUND = 50  # beta_squarefree also counts on the image mod composite d up to this


def enumerate_variety_mod_p(
    equations: Sequence[MultiPoly],
    p: int,
    variables: Optional[Sequence[str]] = None,
) -> int:
    """Exact #V(F_p) of the affine variety cut out by the equations.

    The variable set defaults to the union of the equations' variable tuples.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if variables is None:
        variables = equations[0].variables if equations else ()
    variables = tuple(variables)
    eqs = [P if P.variables == variables else P.substitute({}, variables) for P in equations]
    return _count_points(eqs, frozenset(variables), p)


# ---------------------------------------------------------------------------
# densities


def count_Nf(image: FiniteImage, f: MultiPoly) -> int:
    """#{x in image : f(x) = 0 mod q}, q the image modulus.

    Every variable of f must name a matrix entry x{i}{j} of the image.
    """
    q = image.q
    plan = f.mod(q).term_plan(entry_positions(f.variables, len(next(iter(image.words)))))
    run = MultiPoly.run_plan
    return sum(run(plan, sum(entries, ())) % q == 0 for entries in image.words)


# ---------------------------------------------------------------------------
# surjectivity certificates

CERTIFICATE_RADIUS = 2  # word length of the elements searched for root elements


def _root_positions(n: int) -> list[tuple[int, int]]:
    """The adjacent positions (i, i+1) and (i+1, i), in row-major order."""
    return [(i, j) for i in range(n) for j in range(n) if abs(i - j) == 1]


class SurjectivityCertificate(NamedTuple):
    """Proof that pi_p(Gamma) = SL_n(F_p) for a prime p.

    Every generator has det = 1 mod p, so the image lies in SL_n(F_p).  For
    every adjacent position (i, j) = (i, i+1) or (i+1, i), ``roots`` holds a
    word in the generators whose product gamma is I + t E_ij mod p with
    t != 0; the powers of gamma fill the root subgroup {I + s E_ij}.  These
    adjacent root subgroups generate all the others: for distinct i, j, k,
    [I + s E_ij, I + t E_jk] = I + st E_ik, so by induction on |i - k| every
    I + s E_ik with i != k lies in the image, and these elementary
    transvections generate SL_n(F_p).
    """

    p: int
    generators: tuple[Entries, ...]
    roots: tuple[tuple[int, int, tuple[int, ...], Entries], ...]  # (i, j, word, gamma)

    def check(self) -> None:
        """Re-derive every claim from the generators; raises CertificateError.
        The claims that do not involve p are derived once per (generators,
        roots) by ``_prime_free_claims``; those mod p on every call."""
        p = self.p
        if not is_prime(p):
            raise CertificateError(f"{p} is not prime")
        dets, products = _prime_free_claims(self.generators, self.roots)
        for g, det in zip(self.generators, dets):
            if (det.numerator - det.denominator) % p:
                raise CertificateError(f"generator {g} has det {det} != 1 mod {p}")
        for (i, j, _, gamma), product in zip(self.roots, products):
            for a, row in enumerate(product):
                for b, x in enumerate(row):
                    if x.denominator % p == 0:
                        raise CertificateError(f"entry {x} of {gamma} does not reduce mod {p}")
                    # gamma = I + t E_ij mod p: p divides the numerator of
                    # x - [a = b] at every (a, b) but (i, j), and not at (i, j)
                    if ((x.numerator - (a == b) * x.denominator) % p == 0) == ((a, b) == (i, j)):
                        raise CertificateError(f"{gamma} is not I + t E_{i + 1}{j + 1} mod {p}")


@functools.cache
def _prime_free_claims(generators: tuple[Entries, ...], roots: tuple) -> tuple[tuple, tuple]:
    """The claims of a ``SurjectivityCertificate`` that hold or fail at every
    p: the root positions are the adjacent ones and each word's product is
    its gamma.  Returns each generator's determinant over Q and each root's
    product, with exact entries; memoized on (generators, roots), and a
    failing claim raises CertificateError on every call."""
    n = len(generators[0])
    positions = sorted((i, j) for i, j, _, _ in roots)
    if positions != _root_positions(n):
        raise CertificateError(f"root positions {positions} are not the adjacent ones")
    products = []
    for _, _, word, gamma in roots:
        product = _identity(n)
        for k in word:
            product = _matmul(product, generators[k])
        if product != gamma:
            raise CertificateError(f"word {word} does not give {gamma}")
        products.append(_freeze(product))
    return tuple(MatrixQ(g).det() for g in generators), tuple(products)


class RootSearch(NamedTuple):
    """The short ball of Gamma, read once for the certificates at every p.

    ``candidates[(i, j)]`` lists, for each adjacent position (i, j) and in
    ball order, (rest, t, word, gamma) for each element gamma whose gamma - I
    has numerator t != 0 at (i, j) and whose other entries have numerators
    with gcd ``rest``; once the generators reduce mod p, gamma = I + t E_ij
    mod p with t != 0 exactly when p divides rest and not t.
    """

    generators: tuple[Entries, ...]
    denominators: int  # lcm of the generator entries' denominators
    det_gaps: tuple[int, ...]  # numerator - denominator of each generator's det
    candidates: dict[tuple[int, int], tuple[tuple[int, int, tuple[int, ...], Entries], ...]]

    def certificate(self, p: int) -> Optional[SurjectivityCertificate]:
        """A checked certificate for p, or None when the short ball has none."""
        if not is_prime(p) or self.denominators % p == 0 or any(g % p for g in self.det_gaps):
            return None
        roots = []
        for (i, j), found in self.candidates.items():
            hit = next((c for c in found if c[0] % p == 0 and c[1] % p), None)
            if hit is None:
                return None
            roots.append((i, j, hit[2], hit[3]))
        cert = SurjectivityCertificate(p=p, generators=self.generators, roots=tuple(roots))
        cert.check()
        return cert


@functools.cache
def root_search(gens: GeneratorSet) -> RootSearch:
    """Word-labelled ball of radius CERTIFICATE_RADIUS, sorted into root
    candidates; memoized on the generators."""
    n = gens.n
    generators = tuple(g.entries for g in gens.generators)
    words = bfs(
        _identity(n),
        generators,
        gens.inverses,
        _kernels(n).mul,
        CERTIFICATE_RADIUS,
        label=lambda word, i: word + (i,),
        start_label=(),
        what="certificate ball",
    )
    candidates: dict = {pos: [] for pos in _root_positions(n)}
    for gamma, word in words.items():
        num = [[(x - (a == b)).numerator for b, x in enumerate(row)] for a, row in enumerate(gamma)]
        for (i, j), found in candidates.items():
            rest = math.gcd(*(num[a][b] for a in range(n) for b in range(n) if (a, b) != (i, j)))
            if num[i][j] and rest != 1:
                found.append((rest, num[i][j], word, gamma))
    dets = [g.det() for g in gens.generators]
    return RootSearch(
        generators=generators,
        denominators=math.lcm(*(x.denominator for g in generators for row in g for x in row)),
        det_gaps=tuple(d.numerator - d.denominator for d in dets),
        candidates={k: tuple(v) for k, v in candidates.items()},
    )


def surjectivity_certificate(gens: GeneratorSet, p: int) -> Optional[SurjectivityCertificate]:
    """A checked proof that pi_p(Gamma) = SL_n(F_p), or None when the ball of
    radius CERTIFICATE_RADIUS holds no root element for some adjacent
    position (or p is not prime, or a generator does not reduce to
    SL_n(F_p))."""
    return root_search(gens).certificate(p)


@functools.cache
def det_minus_one(n: int) -> MultiPoly:
    """det - 1 over the n x n entry variables, by the Leibniz expansion;
    memoized on n."""
    terms = {(0,) * (n * n): -1}
    for perm in itertools.permutations(range(n)):
        exps = [0] * (n * n)
        for i, j in enumerate(perm):
            exps[i * n + j] = 1
        terms[tuple(exps)] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return MultiPoly(entry_variable_names(n), terms)


# ---------------------------------------------------------------------------
# local densities


class LocalDensity(NamedTuple):
    p: int
    N_f: int
    order: int
    beta: Fraction
    ramified: bool = False
    certificate: Optional[SurjectivityCertificate] = None  # None: pi_p not proved SL_n


def local_density(
    gens: GeneratorSet,
    f: MultiPoly,
    p: int,
    ramified: Iterable[int] = (),
    cap: int = 5_000_000,
) -> LocalDensity:
    """beta(p) = N_f(p) / |pi_p(Gamma)|; 0 by fiat at ramified primes.

    With a surjectivity certificate, N_f(p) = #{x in SL_n(F_p) : f(x) = 0}
    from the variety counter; without one, or when the counter exceeds its
    budget, the image mod p is enumerated (``cap`` bounds its size).  The
    unramified result is memoized on (gens, f, p, cap).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ram = set(check_prime_set(ramified))
    if p in ram:
        return LocalDensity(p=p, N_f=0, order=0, beta=Fraction(0), ramified=True)
    entry_positions(f.variables, gens.n)
    return _unramified_density(gens, f, p, cap)


@functools.cache
def _unramified_density(gens: GeneratorSet, f: MultiPoly, p: int, cap: int) -> LocalDensity:
    """``local_density`` at an unramified p.  det - 1 is built only when its
    n! terms fit the counter's brute-force budget."""
    cert = root_search(gens).certificate(p)
    if cert is not None and math.factorial(gens.n) <= BRUTE_BUDGET:
        ideal = det_minus_one(gens.n)
        try:
            nf = enumerate_variety_mod_p([f, ideal], p, ideal.variables)
        except EnumerationBudgetError:
            pass
        else:
            order = sl_order(gens.n, p)
            beta = Fraction(nf, order)
            return LocalDensity(p=p, N_f=nf, order=order, beta=beta, certificate=cert)
    image = generate_image(gens, p, cap=cap)
    nf = count_Nf(image, f)
    return LocalDensity(
        p=p, N_f=nf, order=len(image), beta=Fraction(nf, len(image)), certificate=cert
    )


def beta_squarefree(
    gens: GeneratorSet,
    f: MultiPoly,
    d: int,
    ramified: Iterable[int] = (),
    cap: int = 5_000_000,
) -> Fraction:
    """prod_{p|d} beta(p) for squarefree d; 0 when d meets a ramified prime.

    Each beta(p) comes from the memoized ``local_density``, so calls at many
    d compute it once.  For composite d <= CROSS_CHECK_BOUND the product is
    cross-checked against the image enumerated mod d, afresh on every call.
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
    if d <= CROSS_CHECK_BOUND and len(fac.primes()) > 1:
        image = generate_image(gens, d, cap=cap)
        direct = Fraction(count_Nf(image, f), len(image))
        if direct != beta:
            raise CertificateError(
                f"multiplicativity cross-check failed at d={d}: {direct} != {beta}"
            )
    return beta


class RamifiedReport(NamedTuple):
    confirmed: tuple[int, ...]
    unresolved: tuple[int, ...]  # candidates above p_max or unverifiable
    sample_gcd: int


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
    confirmed or refuted by its local density: p is ramified exactly when
    beta(p) = 1, i.e. f vanishes on the whole image mod p.
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
            d = local_density(gens, f, p, cap=cap)
        except (ValueError, ResourceCapError):
            unresolved.append(p)
            continue
        if d.beta == 1:
            confirmed.append(p)
    return RamifiedReport(
        confirmed=tuple(sorted(confirmed)),
        unresolved=tuple(unresolved),
        sample_gcd=g,
    )


# ---------------------------------------------------------------------------
# splitting census


class SplittingCensus(NamedTuple):
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
) -> SplittingCensus:
    """Leading coefficients c_hat(p) = round(count / p^dim_V) with a
    Lang-Weil-shaped acceptance window |count - c_hat p^dim| <= 6 p^(dim-1/2)."""
    if dim_V < 0:
        raise ValueError("dim_V must be >= 0")
    rows = []
    unclassified = []
    freq: dict[int, int] = {}
    classified = 0
    for p in primes:
        count = enumerate_variety_mod_p(equations, p, variables)
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
