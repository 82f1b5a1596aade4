"""Constructive almost-prime search on unipotent groups.

The core is a recursion on the number of variables: split the target
polynomial into its content and primitive part with respect to a pivot
variable, recurse on the content and the coefficient families, then for each
emitted prefix run a single-variable search along an arithmetic progression
chosen so that the coprime-family values stay supported on a fixed prime set.
Every emitted point carries certificates (factorization of the target value,
gcd of each family) and is re-checked from scratch; group-level problems are
routed through lattice coordinates and re-verified on the actual matrices.

The classical-sieve existence step is replaced by bounded search: an empty
result distinguishes "searched and none found" from "budget exhausted".

The gcd certificates (one extended Euclid over Q(others)[pivot], run on
fraction-free ``MultiPoly`` rows with the pseudo-division the gcd uses),
bad-prime bounds and progression avoidance live here, beside their one
caller; sympy is imported only to factor a family member that
``_linear_coprime`` cannot prove irreducible, and its factors are
multiplied back before they are used.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .core_arith import (
    Constructed,
    FactorBudget,
    check_prime_set,
    factorize,
    omega_outside,
    primes_upto,
    s_integer_part,
)
from .matgroup import MatrixQ, entry_positions
from .polyalg import (
    CertificateError,
    CoprimalityError,
    MultiPoly,
    _prem,
    exp_series,
    malcev_lattice,
    span_element,
)


class _SieveBudget(NamedTuple):
    value_want: int = 5  # values emitted per prefix
    prefix_want: int = 60  # prefixes carried into the next level
    search_bound: int = 100_000  # |progression argument| cap
    factor: FactorBudget = FactorBudget()


class SieveBudget(Constructed, _SieveBudget):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.value_want < 1 or self.prefix_want < 1:
            raise ValueError("value_want and prefix_want must be >= 1")
        if self.search_bound < 0:
            raise ValueError(f"search_bound must be >= 0, not {self.search_bound}")
        return self


class _UniSieveProblem(NamedTuple):
    variables: tuple[str, ...]
    P: MultiPoly
    families: tuple[tuple[MultiPoly, ...], ...]


class UniSieveProblem(Constructed, _UniSieveProblem):
    __slots__ = ()

    def __new__(cls, variables, P, families):
        for fam in families:
            g = MultiPoly.constant(variables, 0)
            for m in fam:
                g = g.gcd(m)
            if not g.is_constant():
                raise CoprimalityError(f"family has common factor {g!r}")
        return super().__new__(cls, variables, P, families)


class EmittedPoint(NamedTuple):
    x: tuple[int, ...]
    value: int  # numerator of P(x)
    omega: int  # prime factors of value outside S (with multiplicity)
    family_gcds: tuple[int, ...]


class PrefixRecord(NamedTuple):
    prefix: tuple[int, ...]  # assignments in emission variable order
    M: int
    progression: tuple[int, int]
    values: tuple[int, ...]
    instances: tuple[MultiPoly, ...] = ()  # integer-scaled single-variable polys


class UniSieveResult(NamedTuple):
    variables: tuple[str, ...]
    r: int
    S: tuple[int, ...]
    points: tuple[EmittedPoint, ...]
    prefixes: tuple[PrefixRecord, ...]
    exhausted: bool  # some search hit its bound before filling its quota
    dropped: int  # points failing final re-certification (should be 0)
    matrices: tuple[MatrixQ, ...] = ()
    span_stable: Optional[bool] = None  # the Mal'cev lattice's; None off a group


class SearchOutcome(NamedTuple):
    values: tuple[int, ...]
    omegas: tuple[int, ...]
    exhausted: bool


def single_variable_almost_primes(
    P: MultiPoly,
    S: Iterable[int],
    progression: tuple[int, int],
    r: int,
    search_bound: int,
    want: int,
    budget: FactorBudget = FactorBudget(),
) -> SearchOutcome:
    """Integers n = aj + b, |n| <= search_bound, where P(n) is a nonzero
    integer with at most r prime factors outside S, in order of |n|."""
    a, b = progression
    if a <= 0:
        raise ValueError("progression step must be positive")
    Sset = check_prime_set(S)
    plan, run = P.term_plan([0] * len(P.variables)), P.run_plan  # every variable reads n
    values = []
    omegas = []
    exhausted = False
    for j in itertools.count():
        step = (j + 1) // 2 * (1 if j % 2 else -1)  # 0, -1, 1, -2, 2, ...
        n = a * step + b
        if abs(n) > search_bound:
            # both directions exceed the bound once |a*step| dominates
            if a * ((j + 1) // 2) > search_bound + abs(b):
                exhausted = len(values) < want
                break
            continue
        val = run(plan, (n,))
        if val == 0 or val.denominator != 1:
            continue  # a value that is not a nonzero integer has no almost-prime verdict
        om = omega_outside(val.numerator, Sset, budget=budget)
        if om is None:
            continue  # factoring budget: skip, never guess
        if om <= r:
            values.append(n)
            omegas.append(om)
            if len(values) >= want:
                break
    return SearchOutcome(values=tuple(values), omegas=tuple(omegas), exhausted=exhausted)


# ---------------------------------------------------------------------------
# gcd certificates, bad primes and progression avoidance


class GcdCertificate(NamedTuple):
    """Witness sum_j S_j * P_j = Q identically, with Q free of the pivot
    variable, so gcd_j P_j(x) divides Q(x) at every integer point x.  For a
    univariate family Q is the positive integer m."""

    polys: tuple[MultiPoly, ...]
    cofactors: tuple[MultiPoly, ...]
    Q: MultiPoly

    @property
    def m(self) -> int:
        return self.Q.constant_value()

    def verify(self) -> bool:
        variables = self.polys[0].variables
        total = MultiPoly.constant(variables, 0)
        for S, P in zip(self.cofactors, self.polys):
            total = total + S * P
        return total == self.Q.substitute({}, variables)


def _gcdex(f: MultiPoly, g: MultiPoly, pivot: str) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """(s, t, h) with s*f + t*g = h, a gcd of f and g in Q(others)[pivot]:
    the extended Euclid on fraction-free rows (r, s, t), each new row
    a*row_(i-1) - q*row_i for the pseudo-division a*r_(i-1) = q*r_i + r,
    divided by gcd(r, s, t), which is free of the pivot because the
    cofactors of the Euclid over a field are coprime.  Every row is a
    Q(others)-multiple of the field Euclid's (``sympy.Poly.gcdex``)."""
    one, zero = MultiPoly.constant(f.variables, 1), MultiPoly.constant(f.variables, 0)
    prev, row = (f, one, zero), (g, zero, one)
    while not row[0].is_zero():
        a, q, r = _prem(prev[0], row[0], pivot)
        new = (r, a * prev[1] - q * row[1], a * prev[2] - q * row[2])
        if not r.is_zero():  # the row of r = 0 ends the loop unread
            c = r.gcd(new[1]).gcd(new[2])
            new = tuple(divmod(x, c)[0] for x in new)
        prev, row = row, new
    if prev[0].is_zero():
        raise CoprimalityError("family gcd vanished; degenerate input")
    return prev[1], prev[2], prev[0]


def gcd_certificate(
    polys: Sequence[MultiPoly], pivot: Optional[str] = None, others: tuple[str, ...] = ()
) -> GcdCertificate:
    """Extended-Euclid certificate for a family with gcd 1 in Q(others)[pivot],
    all denominators cleared so that Q lies in Z[others].

    Without a pivot the family must be univariate and Q is an integer m > 0.
    ``_gcdex`` folds over the members in plain ``MultiPoly`` arithmetic and
    the denominators are cleared once at the end; the identity is re-checked
    by ``GcdCertificate.verify`` and a failure raises CertificateError.  A
    common factor raises CoprimalityError.
    """
    if not polys:
        raise ValueError("empty family")
    variables = polys[0].variables
    if pivot is None:
        names = frozenset().union(*(P.used_variables() for P in polys))
        if len(names) > 1:
            raise ValueError(f"family is not univariate: {sorted(names)}")
        pivot = next(iter(names)) if names else variables[0]
    g, cofactors = polys[0], [MultiPoly.constant(variables, 1)]
    for P in polys[1:]:
        s, t, g = _gcdex(g, P, pivot)
        cofactors = [s * c for c in cofactors] + [t]
    if g.degree_in(pivot) > 0:
        # named primitive in the pivot and over Z, so not by the rows' scale
        factor = _integerize(divmod(g, _content_split(g, pivot, variables)[0])[0])[0]
        raise CoprimalityError(f"family has common factor {factor!r} over the function field")
    if g.is_zero():
        raise CoprimalityError("family gcd vanished; degenerate input")
    # over Q(others) the gcd is 1 with cofactors S_j/g; with one member it is
    # g with cofactor 1, which clears to the same Q.  Q is the least common
    # denominator in Z[others] of the cofactors, Lg / gcd(Lg, L*S_1, ...)
    # for L the lcm of all coefficient denominators, so it is integral
    L = math.lcm(*(f.denominator_lcm() for f in (g, *cofactors)))
    common = g.scale(L)
    for s in cofactors:
        common = common.gcd(s.scale(L))
    Q = divmod(g.scale(L), common)[0]
    if Q.terms[max(Q.terms)] < 0:
        Q = -Q  # leading (lexicographically largest) coefficient positive: m > 0
    S = tuple(divmod(Q * s, g)[0] for s in cofactors)
    cert = GcdCertificate(polys=tuple(polys), cofactors=S, Q=Q.substitute({}, others or (pivot,)))
    if not cert.verify():
        raise CertificateError(
            f"gcd certificate identity fails for {list(polys)!r}: sum S_j P_j != {cert.Q!r}"
        )
    return cert


class BadPrimeBound(NamedTuple):
    """Primes that can divide every integer value of a univariate integer
    polynomial."""

    primes: tuple[int, ...]
    value_gcd: int


def bad_prime_bound(P: MultiPoly) -> BadPrimeBound:
    """Exactly the primes dividing gcd over all integers of P(m).

    The gcd over all of Z equals the gcd of any deg+1 consecutive values
    (finite differences put P in the binomial basis with integer weights),
    so it is computed from P(0..deg P).
    """
    if P.is_zero():
        raise ValueError("zero polynomial")
    used = P.used_variables()
    if len(used) > 1:
        raise ValueError(f"not univariate: uses {sorted(used)}")
    if P.denominator_lcm() != 1:
        raise ValueError("integer polynomial required")
    deg = P.degree()
    plan = P.term_plan([0] * len(P.variables))
    values = [P.run_plan(plan, (m,)) for m in range(deg + 1)]
    g = math.gcd(*values)
    if g == 0:
        raise ValueError("polynomial vanishes on 0..deg; not a nonzero integer poly?")
    return BadPrimeBound(primes=factorize(g).primes() if g > 1 else (), value_gcd=g)


def progression_avoiding(
    M: int, polys: Sequence[MultiPoly]
) -> tuple[int, int]:
    """Arithmetic progression a*j + b on which every P_i stays coprime to the
    primes of M outside the P_i's own bad-prime sets (CRT over p | M)."""
    M = abs(int(M))
    if M == 0:
        raise ValueError("M must be nonzero")
    if M == 1 or not polys:
        return (1, 0)
    bad: set[int] = set()
    for P in polys:
        bad |= set(bad_prime_bound(P).primes)
    fac = factorize(M)
    if not fac.complete:
        raise ValueError(f"cannot factor modulus {M} within budget")
    residues: list[tuple[int, int]] = []
    for p in fac.primes():
        if p in bad:
            continue
        # each member reduced mod p once; every variable reads the residue b
        plans = [P.mod(p).term_plan([0] * len(P.variables)) for P in polys]
        found = next(
            (b for b in range(p) if all(MultiPoly.run_plan(plan, (b,)) % p for plan in plans)), None
        )
        if found is None:
            raise ValueError(
                f"no residue mod {p} avoids all polynomials; offending prime {p}"
            )
        residues.append((p, found))
    if not residues:
        return (1, 0)
    a = 1
    for p, _ in residues:
        a *= p
    b = 0
    for p, r in residues:
        q = a // p
        b = (b + r * q * pow(q, -1, p)) % a
    return (a, b)


# ---------------------------------------------------------------------------
# family refinement and certificates


def _integerize(P: MultiPoly) -> tuple[MultiPoly, Fraction]:
    """Scale to an integer-primitive polynomial; returns (primitive, unit)
    with P = unit * primitive."""
    if P.is_zero():
        raise ValueError("zero polynomial in a coprime family")
    den = P.denominator_lcm()
    scaled = P.scale(den)
    content = scaled.integer_content()
    prim = scaled.scale(Fraction(1, content))
    # normalize sign by the leading (lexicographically largest) term
    lead = max(prim.terms)
    if prim.terms[lead] < 0:
        prim = prim.scale(-1)
        content = -content
    return prim, Fraction(content, den)


def _linear_coprime(prim: MultiPoly) -> bool:
    """Whether the primitive integer polynomial is a*v + b for some variable
    v with gcd(a, b) = 1, which proves it irreducible: of two factors one is
    free of v, so it divides a and b and is a unit."""
    one = MultiPoly.constant(prim.variables, 1)
    return any(
        prim.degree_in(v) == 1 and prim.coeff_in(v, 1).gcd(prim.coeff_in(v, 0)) == one
        for v in prim.used_variables()
    )


def _constant_primes(c: Fraction | int) -> set[int]:
    """The primes of the numerator and the denominator of a nonzero rational."""
    parts = (abs(c.numerator), c.denominator)
    return {p for part in parts if part > 1 for p in factorize(part).primes()}


def _refine_family(
    family: Sequence[MultiPoly], variables: tuple[str, ...]
) -> tuple[list[tuple[MultiPoly, ...]], set[int]]:
    """Replace a coprime family by choice families of irreducible integer
    factors; unit/constant content primes go into the returned prime set.

    A prime dividing every member's value divides, per member, some
    irreducible factor's value, so controlling every choice family controls
    the original gcd.  A family containing a nonzero integer constant is
    dropped (its gcd divides that constant).
    """
    const_primes: set[int] = set()
    factor_lists: list[list[MultiPoly]] = []
    for member in family:
        prim, unit = _integerize(member)
        const_primes |= _constant_primes(unit)
        if prim.is_constant():
            # gcd of the family divides this constant: whole family controlled
            return [], const_primes
        if _linear_coprime(prim):
            factor_lists.append([prim])  # irreducible: sympy.factor_list gives prim alone
            continue
        import sympy

        unit, factors = sympy.factor_list(prim.to_sympy())
        product, parts = MultiPoly.from_sympy(unit, variables), []
        for fexpr, e in factors:
            fpoly = MultiPoly.from_sympy(fexpr, variables)
            product = product * fpoly**e
            fpoly, funit = _integerize(fpoly)
            const_primes |= _constant_primes(funit)
            parts.append(fpoly)
        if product != prim:
            raise CertificateError(f"sympy's factors of {prim!r} do not multiply back to it")
        factor_lists.append(parts)
    n_choices = math.prod(len(fl) for fl in factor_lists)
    if n_choices > 64:
        raise ValueError(f"choice-family refinement explosion ({n_choices} > 64)")
    out = []
    seen = set()
    for choice in itertools.product(*factor_lists):
        key = frozenset(c for c in choice)
        if key in seen:
            continue
        seen.add(key)
        out.append(tuple(dict.fromkeys(choice)))  # dedup members, keep order
    return out, const_primes


def _content_split(
    P: MultiPoly, pivot: str, variables: tuple[str, ...]
) -> tuple[MultiPoly, list[MultiPoly]]:
    """P = H * sum_i H_i pivot^i with gcd_i H_i = 1: returns (H, [H_0..H_k]).

    Both H and the H_i come back with integer-primitive normalization pushed
    into H where possible.
    """
    deg = P.degree_in(pivot)
    coeffs = [P.coeff_in(pivot, i) for i in range(deg + 1)]
    H = MultiPoly.constant(variables, 0)
    for c in coeffs:
        if not c.is_zero():
            H = H.gcd(c)
    His = []
    for c in coeffs:
        q, rem = divmod(c, H)
        if not rem.is_zero():
            raise CertificateError("content division left a remainder")
        His.append(q)
    return H, His


def _pivot_choice(
    P: MultiPoly, families: Sequence[Sequence[MultiPoly]], active: Sequence[str]
) -> str:
    def score(v: str) -> tuple[int, int]:
        s = P.degree_in(v)
        for fam in families:
            for m in fam:
                s += m.degree_in(v)
        return (s, -list(active).index(v))

    return min(active, key=score)


# ---------------------------------------------------------------------------
# the recursion


class _LevelResult(NamedTuple):
    r: int
    S: set[int]
    assignments: list[tuple[int, ...]]  # points over the variables, 0 where unassigned
    prefixes: list[PrefixRecord]
    exhausted: bool


def _sieve_level(
    P: MultiPoly,
    families: list[tuple[MultiPoly, ...]],
    active: tuple[str, ...],
    variables: tuple[str, ...],
    budget: SieveBudget,
) -> _LevelResult:
    if not active:
        # constants only: P's factors count toward r; family gcds must be
        # constants (refinement dropped them or flagged earlier)
        val = P.constant_value()
        if val == 0:
            raise ValueError("target polynomial is identically zero")
        S: set[int] = set()
        for fam in families:
            g = 0
            for m in fam:
                g = math.gcd(g, abs(int(m.constant_value())))
            if g == 0:
                raise CoprimalityError("constant family with gcd 0")
            S |= _constant_primes(g)
        # a factoring budget blown on the constant is reported, not counted as r = 0
        fac = factorize(abs(val.numerator), budget.factor)
        return _LevelResult(
            r=fac.omega() or 0,
            S=S,
            assignments=[(0,) * len(variables)],
            prefixes=[],
            exhausted=not fac.complete,
        )

    pivot = _pivot_choice(P, families, active)
    rest = tuple(v for v in active if v != pivot)

    # refine every family into choice families of irreducible factors
    refined: list[tuple[MultiPoly, ...]] = []
    S_const: set[int] = set()
    for fam in families:
        choice_fams, cps = _refine_family(fam, variables)
        S_const |= cps
        refined.extend(choice_fams)

    # split the target into content and pivot-primitive part
    if P.is_zero():
        raise ValueError("target polynomial is identically zero")
    H, His = _content_split(P, pivot, variables)
    calP_deg = len(His) - 1

    # recursive families: coefficients of the primitive part, plus per choice
    # family either the family itself (pivot-independent) or the coefficient
    # families of its pivot-dependent members
    rec_families: list[tuple[MultiPoly, ...]] = []
    rec_families.append(tuple(h for h in His if not h.is_zero()))
    certificates: list[MultiPoly] = []
    dependent_members: list[MultiPoly] = []
    for fam in refined:
        deps = [m for m in fam if pivot in m.used_variables()]
        if not deps:
            rec_families.append(fam)
            continue
        for m in deps:
            dependent_members.append(m)
            d = m.degree_in(pivot)
            coeff_fam = tuple(
                c for i in range(d + 1) if not (c := m.coeff_in(pivot, i)).is_zero()
            )
            if not any(c.is_constant() for c in coeff_fam):
                rec_families.append(coeff_fam)
        # Q in Z[rest] with sum_j S_j * member_j = Q, so gcd_j member_j(x', v)
        # divides Q(x') at every integer v
        certificates.append(gcd_certificate(fam, pivot, rest).Q)

    # drop recursive families that contain a nonzero constant (auto-coprime)
    kept_rec = []
    for fam in rec_families:
        fam = tuple(m for m in fam if not m.is_zero())
        if not fam:
            continue
        consts = [m for m in fam if m.is_constant()]
        if consts:
            for m in consts:
                S_const |= _constant_primes(m.constant_value())
            continue
        kept_rec.append(fam)

    sub = _sieve_level(H, kept_rec, rest, variables, budget)

    # degree window for the prime set (uniform over prefixes)
    window = calP_deg + sum(m.degree_in(pivot) for m in dependent_members)
    S_level = set(sub.S) | S_const | set(primes_upto(window))

    assignments: list[tuple[int, ...]] = []
    prefixes: list[PrefixRecord] = list(sub.prefixes)
    exhausted = sub.exhausted
    max_single_r = 0
    # term plans on points over the variables (P, H and the H_i are in them,
    # each Q in the rest)
    run, at, H_plan = MultiPoly.run_plan, variables.index(pivot), H.term_plan()
    Q_plans = [Q.term_plan([variables.index(v) for v in Q.variables]) for Q in certificates]

    for point in sub.assignments[: budget.prefix_want]:
        # specialize at the prefix
        M = 1
        degenerate = False
        for plan in Q_plans:
            qi = int(run(plan, point))
            if qi == 0:
                degenerate = True
                break
            M *= qi
        if degenerate:
            continue
        calP_terms = {}
        for i, h in enumerate(His):
            hv = run(h.term_plan(), point)
            if hv:
                e = [0] * len(variables)
                e[at] = i
                calP_terms[tuple(e)] = hv
        calP = MultiPoly(variables, calP_terms)
        if calP.is_zero():
            continue
        spec_deps = []
        for m in dependent_members:
            sm = m.substitute(
                {v: Fraction(point[variables.index(v)]) for v in m.used_variables() if v != pivot}
            )
            if not sm.is_zero():
                spec_deps.append(sm)
        # integer-scale the instances; scaling primes join the prime set
        instances = []
        for inst in [calP] + spec_deps:
            den = inst.denominator_lcm()
            if den != 1:
                inst = inst.scale(den)
                S_level |= _constant_primes(den)
            instances.append(inst)
            if not inst.is_constant():
                S_level |= set(bad_prime_bound(inst).primes)
        try:
            a, b = progression_avoiding(M, instances)
        except ValueError:
            continue  # no admissible residue at this prefix: skip it
        H_val = run(H_plan, point)
        if H_val == 0:
            continue
        # search the full target P(prefix, pivot) = H_val * calP(pivot)
        full = calP.scale(H_val)
        r_target = max(1, calP_deg)
        outcome = None
        for r_try in range(r_target, r_target + 4):  # r escalates at most 3 past its target
            outcome = single_variable_almost_primes(
                full,
                S_level,
                (a, b),
                sub.r + r_try,
                budget.search_bound,
                budget.value_want,
                budget.factor,
            )
            if outcome.values:
                break
        exhausted = exhausted or outcome.exhausted
        if not outcome.values:
            continue
        max_single_r = max(max_single_r, max(outcome.omegas))
        prefixes.append(
            PrefixRecord(
                prefix=tuple(x for v, x in zip(variables, point) if v in rest),
                M=M,
                progression=(a, b),
                values=outcome.values,
                instances=tuple(instances),
            )
        )
        assignments.extend(point[:at] + (n,) + point[at + 1 :] for n in outcome.values)

    # the searched values are of the full product H * calP, so their observed
    # omega already accounts for the content's factors
    return _LevelResult(
        r=max_single_r,
        S=S_level,
        assignments=assignments,
        prefixes=prefixes,
        exhausted=exhausted,
    )


def _check_point(
    value_plan: tuple, fam_plans: Sequence[Sequence[tuple]], point: Sequence, S: tuple[int, ...], budget: FactorBudget
) -> Optional[tuple[int, int, tuple[int, ...]]]:
    """(value, Omega of the value outside S, family gcds) at the point, from
    term plans; None when the value is not a nonzero integer, factoring it is
    over budget, or some family gcd is 0 or not S-supported."""
    run = MultiPoly.run_plan
    val = run(value_plan, point)
    if val == 0 or val.denominator != 1:
        return None
    om = omega_outside(val.numerator, S, budget=budget)
    if om is None:
        return None
    gcds = []
    for plans in fam_plans:
        g = 0
        for plan in plans:
            g = math.gcd(g, run(plan, point).numerator)
        if g == 0 or s_integer_part(g, S) != 1:
            return None
        gcds.append(g)
    return val.numerator, om, tuple(gcds)


def multivariable_sieve(
    problem: UniSieveProblem, budget: SieveBudget = SieveBudget()
) -> UniSieveResult:
    """Emit integer points where the target value is S-almost-prime and every
    family gcd is S-supported, with the recursion's certificates re-checked
    per point from the original polynomials."""
    variables = problem.variables
    level = _sieve_level(
        problem.P, list(problem.families), variables, variables, budget
    )
    S = check_prime_set(level.S)
    points: list[EmittedPoint] = []
    # the problem's polynomials are all in its variables (UniSieveProblem's gcds)
    P_plan = problem.P.term_plan()
    fam_plans = [[m.term_plan() for m in fam] for fam in problem.families]
    for x in level.assignments:
        checked = _check_point(P_plan, fam_plans, x, S, budget.factor)
        if checked is not None:
            points.append(EmittedPoint(x, *checked))
    dropped = len(level.assignments) - len(points)
    max_omega = max((pt.omega for pt in points), default=0)
    return UniSieveResult(
        variables=variables,
        r=max_omega,
        S=S,
        points=tuple(points),
        prefixes=tuple(level.prefixes),
        exhausted=level.exhausted,
        dropped=dropped,
    )


# ---------------------------------------------------------------------------
# group-level wrapper


def unipotent_group_sieve(
    gens: Sequence,
    p: MultiPoly,
    families: Sequence[Sequence[MultiPoly]],
    budget: SieveBudget = SieveBudget(),
) -> UniSieveResult:
    """Sieve on the group generated by unipotent upper triangular matrices.

    ``p`` and the family members are polynomials in the matrix-entry
    variables x11..xnn; they are rewritten in lattice coordinates through
    the Fraction series ``exp_series``, sieved, and every emitted point is
    re-verified on its matrix from ``NilpotentLog.lattice_point``, where the
    original polynomials' term plans give the value, its Omega outside S
    and the family gcds again.
    """
    lattice = malcev_lattice(gens)
    k = lattice.rank
    yvars = tuple(f"y{i+1}" for i in range(k))
    n = lattice.n
    # matrix entries of exp(scale * sum_i y_i B_i) as polynomials in y
    coords = [MultiPoly.var(yvars, y).scale(lattice.scale) for y in yvars]
    entries = exp_series(span_element(coords, lattice.basis, n))
    subst: dict[str, MultiPoly] = {}
    for i in range(n):
        for j in range(n):
            subst[f"x{i+1}{j+1}"] = entries[i][j]

    problem = UniSieveProblem(
        variables=yvars,
        P=p.substitute(subst, yvars),
        families=tuple(tuple(m.substitute(subst, yvars) for m in fam) for fam in families),
    )
    result = multivariable_sieve(problem, budget)

    # independent matrix-route re-verification of every emitted point
    verified: list[EmittedPoint] = []
    matrices: list[MatrixQ] = []
    S = check_prime_set(result.S)
    p_plan = p.term_plan(entry_positions(p.variables, n))
    fam_plans = [[m.term_plan(entry_positions(m.variables, n)) for m in fam] for fam in families]
    for pt in result.points:
        entries = lattice.lattice_point(pt.x)
        checked = _check_point(p_plan, fam_plans, sum(entries, ()), S, budget.factor)
        if pt.omega <= result.r and checked == pt[1:]:
            verified.append(pt)
            matrices.append(MatrixQ._of(entries))  # exact entries from lattice_point
    dropped = result.dropped + len(result.points) - len(verified)
    return result._replace(
        points=tuple(verified),
        matrices=tuple(matrices),
        dropped=dropped,
        span_stable=lattice.span_stable,
    )
