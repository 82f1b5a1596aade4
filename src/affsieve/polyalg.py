"""Exact sparse multivariate polynomials and the polynomial machinery behind
the unipotent sieve: gcd certificates, bad-prime bounds, progression
avoidance, nilpotent exp/log, lattice coordinates for unipotent groups, and
a bounded-degree density test for finite point sets.

Coefficients are ``fractions.Fraction`` throughout; no floats.  sympy is used
internally for parsing and for multivariate gcd/content where reimplementing
it would be pointless; the certificate-producing operations (extended Euclid,
value gcds) are done directly so their outputs stay verifiable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import sympy
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

from .core_arith import factorize, primes_upto
from .matgroup import _identity, _matmul, bfs


class MultiPoly:
    """Sparse polynomial over Q with a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Fraction | int] | None = None,
    ):
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if len(exps) != len(self.variables):
                raise ValueError("exponent vector length mismatch")
            clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, variables: Sequence[str], c) -> "MultiPoly":
        z = tuple(0 for _ in variables)
        return cls(variables, {z: Fraction(c)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {e: Fraction(1)})

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "MultiPoly":
        """Parse standard infix with integer/rational coefficients.

        Variables must come from the declared list; anything else is rejected.
        """
        variables = tuple(variables)
        syms = {name: sympy.Symbol(name) for name in variables}
        try:
            expr = parse_expr(
                text,
                local_dict=syms,
                transformations=standard_transformations,
                evaluate=True,
            )
        except Exception as exc:  # noqa: BLE001 - surface as input error
            raise ValueError(f"cannot parse polynomial {text!r}: {exc}") from exc
        extra = expr.free_symbols - set(syms.values())
        if extra:
            raise ValueError(f"unknown variables in {text!r}: {sorted(map(str, extra))}")
        return cls.from_sympy(expr, variables)

    @classmethod
    def from_sympy(cls, expr, variables: Sequence[str]) -> "MultiPoly":
        variables = tuple(variables)
        syms = [sympy.Symbol(v) for v in variables]
        poly = sympy.Poly(sympy.expand(expr), *syms, domain="QQ")
        terms = {}
        for exps, coeff in poly.terms():
            terms[tuple(exps)] = Fraction(coeff.p, coeff.q)
        return cls(variables, terms)

    def to_sympy(self):
        syms = [sympy.Symbol(v) for v in self.variables]
        expr = sympy.Integer(0)
        for exps, c in self.terms.items():
            t = sympy.Rational(c.numerator, c.denominator)
            for s, e in zip(syms, exps):
                if e:
                    t *= s**e
            expr += t
        return expr

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exps) for exps in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), Fraction(0))

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exps) for exps in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return 0
        i = self.variables.index(name)
        return max((exps[i] for exps in self.terms), default=0)

    def used_variables(self) -> frozenset[str]:
        used = set()
        for exps in self.terms:
            for v, e in zip(self.variables, exps):
                if e:
                    used.add(v)
        return frozenset(used)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MultiPoly({sympy.sstr(self.to_sympy())})"

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.variables != self.variables:
                raise ValueError("variable tuples differ")
            return other
        return MultiPoly.constant(self.variables, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + c
        return MultiPoly(self.variables, terms)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return MultiPoly(self.variables, terms)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(self.variables, 1)
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    # -- evaluation & substitution --------------------------------------

    def eval(self, point: Mapping[str, Fraction | int] | Sequence) -> Fraction:
        if not isinstance(point, Mapping):
            point = dict(zip(self.variables, point))
        vals = [Fraction(point[v]) for v in self.variables]
        total = Fraction(0)
        for exps, c in self.terms.items():
            t = c
            for val, e in zip(vals, exps):
                if e:
                    t *= val**e
            total += t
        return total

    def eval_mod(self, point: Mapping[str, int], p: int) -> int:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"no value for variables {missing}")
        return eval_residues(self.residues(p), [int(point[v]) for v in self.variables], p)

    def residues(self, m: int) -> dict[tuple[int, ...], int]:
        """The coefficients mod m, zeros dropped: the one place a coefficient
        denominator is checked to be invertible mod m."""
        out = {}
        for exps, c in self.terms.items():
            if math.gcd(c.denominator, m) != 1:
                raise ValueError(f"coefficient denominator {c.denominator} not invertible mod {m}")
            r = c.numerator * pow(c.denominator, -1, m) % m
            if r:
                out[exps] = r
        return out

    def substitute(self, assignment: Mapping[str, "MultiPoly | Fraction | int"]) -> "MultiPoly":
        """Substitute polynomials or constants for variables (exact expansion)."""
        base = {
            v: (
                assignment[v]
                if isinstance(assignment.get(v), MultiPoly)
                else MultiPoly.constant(self.variables, assignment[v])
            )
            if v in assignment
            else MultiPoly.var(self.variables, v)
            for v in self.variables
        }
        out = MultiPoly.constant(self.variables, 0)
        for exps, c in self.terms.items():
            t = MultiPoly.constant(self.variables, c)
            for v, e in zip(self.variables, exps):
                for _ in range(e):
                    t = t * base[v]
            out = out + t
        return out

    def extend(self, variables: Sequence[str]) -> "MultiPoly":
        """Re-express over a larger variable tuple."""
        variables = tuple(variables)
        pos = [variables.index(v) for v in self.variables]
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * len(variables)
            for j, e in enumerate(exps):
                new[pos[j]] = e
            terms[tuple(new)] = c
        return MultiPoly(variables, terms)

    def coeff_in(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name^k, as a polynomial over the same variable tuple."""
        i = self.variables.index(name)
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                new = list(exps)
                new[i] = 0
                terms[tuple(new)] = c
        return MultiPoly(self.variables, terms)

    # -- integrality helpers --------------------------------------------

    def denominator_lcm(self) -> int:
        return math.lcm(*(c.denominator for c in self.terms.values())) if self.terms else 1

    def integer_content(self) -> int:
        """gcd of coefficients; requires integer coefficients."""
        if self.denominator_lcm() != 1:
            raise ValueError("integer_content requires integer coefficients")
        return math.gcd(*(abs(c.numerator) for c in self.terms.values())) if self.terms else 0


def eval_residues(terms: Mapping[tuple[int, ...], int], values: Sequence[int], m: int) -> int:
    """Value mod m of residue terms (``MultiPoly.residues``) at the point whose
    i-th coordinate is ``values[i]``."""
    total = 0
    for exps, c in terms.items():
        for v, e in zip(values, exps):
            if e:
                c = c * pow(v, e, m) % m
        total += c
    return total % m


# ---------------------------------------------------------------------------
# univariate helpers


def _as_univariate(P: MultiPoly) -> tuple[str, list[Fraction]]:
    used = P.used_variables()
    if len(used) > 1:
        raise ValueError(f"not univariate: uses {sorted(used)}")
    name = next(iter(used)) if used else P.variables[0]
    d = P.degree_in(name)
    coeffs = [Fraction(0)] * (d + 1)
    i = P.variables.index(name)
    for exps, c in P.terms.items():
        coeffs[exps[i]] += c
    return name, coeffs


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    while a and a[-1] == 0:
        a.pop()
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, bc in enumerate(b):
            a[i + shift] -= factor * bc
        while a and a[-1] == 0:
            a.pop()
    return q, a


def _poly_gcdex(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid in Q[x]: returns (g, s, t) with s*a + t*b = g (coeff lists)."""
    r0, r1 = a[:], b[:]
    s0, s1 = [Fraction(1)], [Fraction(0)]
    t0, t1 = [Fraction(0)], [Fraction(1)]

    def addmul(u, q, v):
        # u - q*v
        out = u[:]
        prod = [Fraction(0)] * (len(q) + len(v) - 1) if q and v else []
        for i, qc in enumerate(q):
            for j, vc in enumerate(v):
                prod[i + j] += qc * vc
        for i, pc in enumerate(prod):
            while len(out) <= i:
                out.append(Fraction(0))
            out[i] -= pc
        while out and out[-1] == 0:
            out.pop()
        return out

    while any(r1):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, addmul(s0, q, s1)
        t0, t1 = t1, addmul(t0, q, t1)
    return r0, s0, t0


class CertificateError(RuntimeError):
    """A certificate or exact cross-check failed to verify."""


@dataclass(frozen=True)
class GcdCertificate:
    """Witness that gcd of the values of a coprime univariate family divides m:
    sum_j Q_j * P_j = m identically."""

    polys: tuple[MultiPoly, ...]
    cofactors: tuple[MultiPoly, ...]
    m: int

    def verify(self) -> bool:
        variables = self.polys[0].variables
        total = MultiPoly.constant(variables, 0)
        for Q, P in zip(self.cofactors, self.polys):
            total = total + Q * P
        return total == MultiPoly.constant(variables, self.m)


def gcd_certificate(polys: Sequence[MultiPoly]) -> GcdCertificate:
    """Extended-Euclid certificate for a family of univariate integer polynomials
    with gcd 1 in Q[x]; denominators cleared so m is a positive integer.
    """
    if not polys:
        raise ValueError("empty family")
    variables = polys[0].variables
    names = set()
    for P in polys:
        names |= P.used_variables()
    if len(names) > 1:
        raise ValueError(f"family is not univariate: {sorted(names)}")
    name = next(iter(names)) if names else variables[0]

    def coeffs(P):
        d = P.degree_in(name)
        i = P.variables.index(name)
        out = [Fraction(0)] * (d + 1)
        for exps, c in P.terms.items():
            out[exps[i]] += c
        return out

    g = coeffs(polys[0])
    cof: list[list[Fraction]] = [[Fraction(1)]]
    for P in polys[1:]:
        g2, s, t = _poly_gcdex(g, coeffs(P))
        cof = [_mul_lists(s, c) for c in cof]
        cof.append(t)
        g = g2
    if len(g) != 1:
        common = _list_to_poly(g, name, variables)
        raise ValueError(f"family has common factor {common!r}; no certificate exists")
    c = g[0]
    scale = Fraction(1, c)  # make the identity sum to 1 first
    cof = [[x * scale for x in q] for q in cof]
    denlcm = 1
    for q in cof:
        for x in q:
            denlcm = math.lcm(denlcm, x.denominator)
    m = denlcm
    cofactors = tuple(
        _list_to_poly([x * m for x in q], name, variables) for q in cof
    )
    cert = GcdCertificate(polys=tuple(polys), cofactors=cofactors, m=m)
    if not cert.verify():
        raise CertificateError(f"gcd certificate failed to verify for {polys!r}")
    return cert


def _mul_lists(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _list_to_poly(coeffs, name, variables) -> MultiPoly:
    i = tuple(variables).index(name)
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * len(variables)
            e[i] = k
            terms[tuple(e)] = c
    return MultiPoly(variables, terms)


@dataclass(frozen=True)
class BadPrimeBound:
    """Primes that can divide every integer value of a univariate integer
    polynomial, with provenance for each route that produced them."""

    primes: tuple[int, ...]
    value_gcd: int
    degree_window: tuple[int, ...]
    content_primes: tuple[int, ...]


def bad_prime_bound(P: MultiPoly) -> BadPrimeBound:
    """Exactly the primes dividing gcd over all integers of P(m).

    The gcd over all of Z equals the gcd of any deg+1 consecutive values
    (finite differences put P in the binomial basis with integer weights),
    so it is computed from P(0..deg P).
    """
    if P.is_zero():
        raise ValueError("zero polynomial")
    name, coeffs = _as_univariate(P)
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("integer polynomial required")
    deg = len(coeffs) - 1
    values = []
    for m in range(deg + 1):
        v = sum(c * Fraction(m) ** k for k, c in enumerate(coeffs))
        values.append(int(v))
    g = math.gcd(*(abs(v) for v in values)) if values else 0
    if g == 0:
        raise ValueError("polynomial vanishes on 0..deg; not a nonzero integer poly?")
    fac = factorize(g) if g > 1 else None
    primes = fac.primes() if fac else ()
    content = math.gcd(*(abs(int(c)) for c in coeffs if c != 0))
    cfac = factorize(content) if content > 1 else None
    return BadPrimeBound(
        primes=primes,
        value_gcd=g,
        degree_window=tuple(p for p in primes_upto(deg) if deg >= 2),
        content_primes=cfac.primes() if cfac else (),
    )


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
        found = None
        for b in range(p):
            if all(P.eval_mod({n: b for n in P.variables}, p) != 0 for P in polys):
                found = b
                break
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
# nilpotent exp/log and lattice coordinates


def _as_rows(mat) -> tuple[tuple[Fraction, ...], ...]:
    rows = getattr(mat, "entries", mat)
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def is_strictly_upper(mat) -> bool:
    rows = _as_rows(mat)
    return all(rows[i][j] == 0 for i in range(len(rows)) for j in range(len(rows)) if j <= i)


def is_unipotent_upper(mat) -> bool:
    rows = _as_rows(mat)
    n = len(rows)
    return all(
        rows[i][j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
        if j <= i
    )


def _nilpotent_series(N, coeffs: Sequence[Fraction]):
    """sum_k coeffs[k] N^k for a nilpotent matrix N given as row tuples over
    any Q-algebra whose zero is N's diagonal entry (Fraction, MultiPoly);
    the caller guarantees N^len(coeffs) = 0."""
    zero = N[0][0]
    term = _identity(len(N), zero**0, zero)  # zero**0 is the algebra's 1
    out = tuple(tuple(coeffs[0] * x for x in row) for row in term)
    for c in coeffs[1:]:
        term = _matmul(term, N)
        out = tuple(
            tuple(x + c * t for x, t in zip(row, trow)) for row, trow in zip(out, term)
        )
    return out


def exp_series(N):
    """sum_{k<n} N^k / k! for a nilpotent n x n matrix N as above."""
    return _nilpotent_series(N, [Fraction(1, math.factorial(k)) for k in range(len(N))])


def nilpotent_exp(N) -> tuple[tuple[Fraction, ...], ...]:
    """Finite-series exponential of a strictly upper triangular matrix."""
    rows = _as_rows(N)
    if not is_strictly_upper(rows):
        raise ValueError("nilpotent_exp requires strictly upper triangular input")
    return exp_series(rows)


def nilpotent_log(u) -> tuple[tuple[Fraction, ...], ...]:
    """Finite-series logarithm of a unipotent upper triangular matrix."""
    rows = _as_rows(u)
    if not is_unipotent_upper(rows):
        raise ValueError("nilpotent_log requires unipotent upper triangular input")
    n = len(rows)
    N = tuple(tuple(x - 1 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(rows))
    return _nilpotent_series(N, [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, n)])


def span_element(coords: Sequence, basis: Sequence, n: int):
    """sum_k coords[k] basis[k] for n x n matrices given as row tuples."""
    return tuple(
        tuple(sum(c * B[i][j] for c, B in zip(coords, basis)) for j in range(n))
        for i in range(n)
    )


def _upper_coords(mat) -> tuple[Fraction, ...]:
    rows = _as_rows(mat)
    n = len(rows)
    return tuple(rows[i][j] for i in range(n) for j in range(i + 1, n))


def _coords_to_upper(vec, n):
    it = iter(vec)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = Fraction(next(it))
    return tuple(tuple(r) for r in rows)


def rational_row_reduce(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form over Q (in place on a copy)."""
    rows = [list(map(Fraction, r)) for r in rows]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        sel = next((r for r in range(pivot_row, nrows) if rows[r][col] != 0), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return rows[:pivot_row] + [r for r in rows[pivot_row:] if any(r)]


def _integer_hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by integer rows."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    work = rows
    col = 0
    while col < ncols and work:
        nonzero = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not nonzero:
            col += 1
            continue
        # gcd-reduce the column by repeated euclidean steps
        while len(nonzero) > 1:
            nonzero.sort(key=lambda r: abs(r[col]))
            pivot = nonzero[0]
            new_nonzero = [pivot]
            for r in nonzero[1:]:
                q = r[col] // pivot[col]
                reduced = [x - q * y for x, y in zip(r, pivot)]
                if reduced[col] != 0:
                    new_nonzero.append(reduced)
                elif any(reduced):
                    rest.append(reduced)
            if len(new_nonzero) == len(nonzero) and all(
                r[col] % pivot[col] == 0 for r in new_nonzero[1:]
            ):
                # fully reduced
                for r in new_nonzero[1:]:
                    q = r[col] // pivot[col]
                    reduced = [x - q * y for x, y in zip(r, pivot)]
                    if any(reduced):
                        rest.append(reduced)
                new_nonzero = [pivot]
            nonzero = new_nonzero
        pivot = nonzero[0]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
        col += 1
    # reduce above-pivot entries for canonical output
    for i in range(len(basis) - 1, -1, -1):
        lead = next(j for j, x in enumerate(basis[i]) if x != 0)
        for k in range(i):
            q = basis[k][lead] // basis[i][lead]
            basis[k] = [x - q * y for x, y in zip(basis[k], basis[i])]
    return basis


@dataclass(frozen=True)
class NilpotentLog:
    """Lattice coordinates for a finitely generated unipotent group: a basis of
    the Z-span of sampled logarithms, and a scale m with exp(m * span) inside
    the conjugated integral form d_N^{-1} U_n(Z) d_N."""

    n: int
    basis: tuple[tuple[tuple[Fraction, ...], ...], ...]  # strictly upper matrices
    scale: int
    conjugation_N: int
    span_stable: bool

    @property
    def rank(self) -> int:
        return len(self.basis)

    def lattice_point(self, coords: Sequence[int]):
        """exp of scale * (integer combination of the basis)."""
        if len(coords) != self.rank:
            raise ValueError("coordinate length mismatch")
        return nilpotent_exp(span_element([c * self.scale for c in coords], self.basis, self.n))


def _in_integral_form(mat, N: int) -> bool:
    rows = _as_rows(mat)
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] * Fraction(N) ** (j - i)).denominator != 1:
                return False
    return True


def malcev_lattice(gens: Sequence, box: int = 2, max_scale: int = 10**6) -> NilpotentLog:
    """Lattice coordinates for the group generated by unipotent upper
    triangular matrices.

    The Z-span of logarithms of short words is row reduced to a basis; span
    stability is checked by growing the word length once.  The scale starts at
    1 and is enlarged one prime factor at a time until exp(scale * span) lands
    in the integral form, verified on all basis combinations with
    |coefficients| <= box.
    """
    mats = [_as_rows(g) for g in gens]
    if not mats:
        raise ValueError("no generators")
    n = len(mats[0])
    for g in mats:
        if not is_unipotent_upper(g):
            raise ValueError("generators must be unipotent upper triangular")

    inverses = [nilpotent_exp(tuple(tuple(-x for x in row) for row in nilpotent_log(g))) for g in mats]

    def word_logs(radius: int) -> list[tuple[Fraction, ...]]:
        words = bfs(_identity(n), mats + inverses, _matmul, radius)
        return [_upper_coords(nilpotent_log(w)) for w in list(words)[1:]]

    def span_basis(vectors: list[tuple[Fraction, ...]]):
        if not vectors:
            return []
        den = 1
        for v in vectors:
            for x in v:
                den = math.lcm(den, x.denominator)
        int_rows = [[int(x * den) for x in v] for v in vectors]
        hnf = _integer_hnf(int_rows)
        return [[Fraction(x, den) for x in row] for row in hnf]

    radius = max(2, n - 1)
    b1 = span_basis(word_logs(radius))
    b2 = span_basis(word_logs(radius + 1))
    stable = b1 == b2
    basis_vecs = b2
    basis = tuple(_coords_to_upper(v, n) for v in basis_vecs)

    # conjugation level: smallest N with all generators in d_N^{-1} U_n(Z) d_N
    N = 1
    for g in mats:
        for i in range(n):
            for j in range(i + 1, n):
                d = g[i][j].denominator
                if d > 1:
                    N = math.lcm(N, d)

    scale = 1
    while True:
        ok = True
        for coords in itertools.product(range(-box, box + 1), repeat=len(basis)):
            M = span_element([c * scale for c in coords], basis, n)
            if not _in_integral_form(nilpotent_exp(M), N):
                ok = False
                # enlarge by one prime from the offending denominators
                worst = 1
                E = nilpotent_exp(M)
                for i in range(n):
                    for j in range(i + 1, n):
                        worst = math.lcm(
                            worst, (E[i][j] * Fraction(N) ** (j - i)).denominator
                        )
                p = factorize(worst).primes()[0]
                scale *= p
                break
        if ok:
            break
        if scale > max_scale:
            raise ValueError("could not find an integral scale within bound")
    return NilpotentLog(
        n=n, basis=basis, scale=scale, conjugation_N=N, span_stable=stable
    )


# ---------------------------------------------------------------------------
# bounded-degree density test


def monomials_upto(variables: Sequence[str], D: int) -> list[tuple[int, ...]]:
    variables = tuple(variables)
    out = []

    def rec(prefix, remaining, budget):
        if not remaining:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], len(variables), D)
    out.sort()
    return out


@dataclass(frozen=True)
class DensityVerdict:
    dense: bool
    sufficient_points: bool
    needed_points: int
    witness: Optional[MultiPoly] = None

    def __bool__(self):
        return self.dense


def zariski_density_test(
    points: Sequence[Sequence],
    D: int,
    ambient_ideal_basis: Sequence[MultiPoly] = (),
    variables: Optional[Sequence[str]] = None,
) -> DensityVerdict:
    """Decide whether any nonzero polynomial of degree <= D vanishes on all
    points, modulo the degree-<=D span of (ambient basis x monomials).

    Exact rational nullspace; no floats.  ``dense=False`` comes with a witness
    polynomial.  ``sufficient_points`` is False when the point count cannot
    possibly pin down the monomial space, so a negative verdict may just mean
    "feed me more points".
    """
    if not points:
        raise ValueError("need at least one point")
    k = len(points[0])
    if variables is None:
        variables = tuple(f"x{i+1}" for i in range(k))
    variables = tuple(variables)
    monos = monomials_upto(variables, D)

    # span of ambient combinations of degree <= D, as vectors over monos
    ambient_rows: list[list[Fraction]] = []
    for g in ambient_ideal_basis:
        g = g if g.variables == variables else g.extend(variables)
        room = D - g.degree()
        if room < 0:
            continue
        for mexp in monomials_upto(variables, room):
            prod = g * MultiPoly(variables, {mexp: Fraction(1)})
            ambient_rows.append([prod.terms.get(e, Fraction(0)) for e in monos])
    ambient_rref = rational_row_reduce(ambient_rows) if ambient_rows else []
    ambient_rank = len(ambient_rref)

    rows = []
    for pt in points:
        vals = [Fraction(x) for x in pt]
        row = []
        for exps in monos:
            t = Fraction(1)
            for v, e in zip(vals, exps):
                if e:
                    t *= v**e
            row.append(t)
        rows.append(row)

    # nullspace of the evaluation matrix
    rref = rational_row_reduce(rows)
    pivots = []
    for r in rref:
        lead = next((j for j, x in enumerate(r) if x != 0), None)
        if lead is not None:
            pivots.append(lead)
    rank = len(pivots)
    free = [j for j in range(len(monos)) if j not in pivots]
    sufficient = len(points) >= len(monos) - ambient_rank
    needed = max(0, len(monos) - ambient_rank - len(points))
    if not free:
        return DensityVerdict(True, sufficient, 0)

    null_vectors = []
    for j in free:
        vec = [Fraction(0)] * len(monos)
        vec[j] = Fraction(1)
        for r, pc in zip(rref, pivots):
            vec[pc] = -r[j]
        null_vectors.append(vec)

    # dense iff nullspace is inside the ambient span
    combined = rational_row_reduce(ambient_rref + null_vectors) if ambient_rref else None
    if combined is not None and len(combined) == ambient_rank:
        return DensityVerdict(True, sufficient, 0)
    witness_vec = None
    if ambient_rref:
        for v in null_vectors:
            if len(rational_row_reduce(ambient_rref + [v])) > ambient_rank:
                witness_vec = v
                break
    else:
        witness_vec = null_vectors[0]
    witness = MultiPoly(
        variables, {e: c for e, c in zip(monos, witness_vec) if c != 0}
    )
    return DensityVerdict(False, sufficient, needed, witness)
