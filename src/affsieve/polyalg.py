"""Exact sparse multivariate polynomials and the polynomial machinery behind
the unipotent sieve: gcd certificates, bad-prime bounds, progression
avoidance, nilpotent exp/log, lattice coordinates for unipotent groups, and
a bounded-degree density test for finite point sets.

Coefficients are exact scalars (``core_arith.exact``: int, or Fraction where
a coefficient is not integral); no floats.  Polynomial text is read by a
recursive-descent parser that evaluates nothing.  sympy, imported only by the
functions that need it, runs the extended Euclid behind gcd certificates
(and the unipotent sieve's multivariate gcd, content and factoring); every
certificate identity it yields is re-checked here with ``MultiPoly``
arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .core_arith import exact, factorize, primes_upto
from .matgroup import _freeze, _identity, _matmul, bfs, rational_row_reduce


class MultiPoly:
    """Sparse polynomial over Q with a fixed ordered variable tuple."""

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        variables: Sequence[str],
        terms: Mapping[tuple[int, ...], Fraction | int] | None = None,
    ):
        self.variables = tuple(variables)
        clean: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in (terms or {}).items():
            c = exact(c)
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
        return cls(variables, {z: c})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "MultiPoly":
        variables = tuple(variables)
        i = variables.index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {e: 1})

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "MultiPoly":
        """Parse integer literals, declared variables, ``+ - *``, unary minus,
        ``/`` by a nonzero constant, ``**`` by a non-negative integer and
        parentheses, with Python's precedence.  Anything else, an undeclared
        variable included, raises ValueError."""
        return _PolyParser(text, tuple(variables)).parse()

    @classmethod
    def from_sympy(cls, expr, variables: Sequence[str]) -> "MultiPoly":
        import sympy

        variables = tuple(variables)
        syms = [sympy.Symbol(v) for v in variables]
        poly = sympy.Poly(sympy.expand(expr), *syms, domain="QQ")
        terms = {}
        for exps, coeff in poly.terms():
            terms[tuple(exps)] = Fraction(coeff.p, coeff.q)
        return cls(variables, terms)

    def to_sympy(self):
        import sympy

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

    def constant_value(self) -> int | Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), 0)

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
        """Terms by descending degree, in the syntax ``parse`` reads."""
        text = ""
        for exps, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
            mono = "*".join(v if e == 1 else f"{v}**{e}" for v, e in zip(self.variables, exps) if e)
            mag = abs(c)
            body = mono if mag == 1 and mono else f"{mag}*{mono}" if mono else str(mag)
            sign = "-" if c < 0 else "+"
            text = f"{text} {sign} {body}" if text else body if c > 0 else "-" + body
        return f"MultiPoly({text or 0})"

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
            terms[exps] = terms.get(exps, 0) + c
        return MultiPoly(self.variables, terms)

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        other = self._coerce(other)
        terms: dict[tuple[int, ...], int | Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
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
        c = exact(c)
        return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})

    # -- evaluation & substitution --------------------------------------

    def eval(self, point: Mapping[str, Fraction | int] | Sequence) -> int | Fraction:
        """Exact value at a point of exact scalars: int arithmetic when the
        point and the coefficients are integers."""
        if not isinstance(point, Mapping):
            point = dict(zip(self.variables, point))
        vals = [point[v] for v in self.variables]
        total = 0
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


# a token, or (last group) any other character, which is an error
_TOKEN = re.compile(r"\s*(?:([0-9]+|[A-Za-z_][A-Za-z0-9_]*|\*\*|[-+*/()])|(\S))")


class _PolyParser:
    """Recursive descent over the grammar of ``MultiPoly.parse``:
    sum := product (('+' | '-') product)*; product := unary (('*' | '/')
    unary)*; unary := '-' unary | power; power := atom ('**' unary)?;
    atom := integer | variable | '(' sum ')'."""

    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text, self.variables = text, variables
        self.tokens: list[str] = []
        for m in _TOKEN.finditer(text):
            if m.group(2):
                raise self.error(f"unexpected character {m.group(2)!r}")
            self.tokens.append(m.group(1))
        self.i = 0

    def error(self, why: str) -> ValueError:
        return ValueError(f"cannot parse polynomial {self.text!r}: {why}")

    def peek(self) -> Optional[str]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        if self.i == len(self.tokens):
            raise self.error("unexpected end")
        self.i += 1
        return self.tokens[self.i - 1]

    def parse(self) -> MultiPoly:
        out = self.sum()
        if self.i < len(self.tokens):
            raise self.error(f"unexpected {self.peek()!r}")
        return out

    def sum(self) -> MultiPoly:
        out = self.product()
        while self.peek() in ("+", "-"):
            out = out + self.product() if self.take() == "+" else out - self.product()
        return out

    def product(self) -> MultiPoly:
        out = self.unary()
        while self.peek() in ("*", "/"):
            if self.take() == "*":
                out = out * self.unary()
                continue
            d = self.unary()
            if not d.is_constant() or d.is_zero():
                raise self.error("division by a nonconstant or zero polynomial")
            out = out.scale(1 / Fraction(d.constant_value()))
        return out

    def unary(self) -> MultiPoly:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> MultiPoly:
        base = self.atom()
        if self.peek() != "**":
            return base
        self.take()
        e = self.unary()
        k = e.constant_value() if e.is_constant() else None
        if type(k) is not int or k < 0:
            raise self.error("exponent is not a non-negative integer")
        return base**k

    def atom(self) -> MultiPoly:
        tok = self.take()
        if tok.isdigit():
            return MultiPoly.constant(self.variables, int(tok))
        if tok in self.variables:
            return MultiPoly.var(self.variables, tok)
        if tok.isidentifier():
            raise self.error(f"unknown variable {tok!r}")
        if tok != "(":
            raise self.error(f"unexpected {tok!r}")
        out = self.sum()
        if self.take() != ")":
            raise self.error("missing ')'")
        return out


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
# gcd certificates


class CertificateError(RuntimeError):
    """A certificate or exact cross-check failed to verify."""


class CoprimalityError(ValueError):
    """A declared family has a nonconstant common factor."""

    def __init__(self, message: str, common_factor=None):
        super().__init__(message)
        self.common_factor = common_factor


@dataclass(frozen=True)
class GcdCertificate:
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
        return total == self.Q.extend(variables)


def gcd_certificate(
    polys: Sequence[MultiPoly], pivot: Optional[str] = None, others: tuple[str, ...] = ()
) -> GcdCertificate:
    """Extended-Euclid certificate for a family with gcd 1 in Q(others)[pivot],
    all denominators cleared so that Q lies in Z[others].

    Without a pivot the family must be univariate and Q is an integer m > 0.
    sympy runs the Euclid; the identity is re-checked by
    ``GcdCertificate.verify`` and a failure raises CertificateError.  A common
    factor raises CoprimalityError.
    """
    if not polys:
        raise ValueError("empty family")
    variables = polys[0].variables
    if pivot is None:
        names = frozenset().union(*(P.used_variables() for P in polys))
        if len(names) > 1:
            raise ValueError(f"family is not univariate: {sorted(names)}")
        pivot = next(iter(names)) if names else variables[0]
    import sympy

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
        raise CoprimalityError(
            f"family has common factor {g.as_expr()} over the function field",
            common_factor=g.as_expr(),
        )
    c_expr = domain.to_sympy(g.nth(0)) if g.degree() == 0 else sympy.Integer(0)
    if c_expr == 0:
        raise CoprimalityError("family gcd vanished; degenerate input")
    # clear every denominator appearing in the cofactors and in c
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
        den = -den  # leading (lexicographically largest) coefficient positive: m > 0
    Q = Q.scale(den)
    try:
        S = tuple(
            MultiPoly.from_sympy(sympy.cancel(D * den * cof.as_expr()), variables)
            for cof in cofactors
        )
    except sympy.PolynomialError as exc:
        raise CertificateError(f"certificate cofactor is not a polynomial: {exc}") from exc
    cert = GcdCertificate(polys=tuple(polys), cofactors=S, Q=Q)
    if not cert.verify():
        raise CertificateError(
            f"gcd certificate identity fails for {list(polys)!r}: sum S_j P_j != {Q!r}"
        )
    return cert


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
    used = P.used_variables()
    if len(used) > 1:
        raise ValueError(f"not univariate: uses {sorted(used)}")
    if P.denominator_lcm() != 1:
        raise ValueError("integer polynomial required")
    deg = P.degree()
    values = [P.eval({v: m for v in P.variables}) for m in range(deg + 1)]
    g = math.gcd(*values)
    if g == 0:
        raise ValueError("polynomial vanishes on 0..deg; not a nonzero integer poly?")
    fac = factorize(g) if g > 1 else None
    primes = fac.primes() if fac else ()
    content = P.integer_content()
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


def is_strictly_upper(mat) -> bool:
    rows = _freeze(mat)
    return all(rows[i][j] == 0 for i in range(len(rows)) for j in range(len(rows)) if j <= i)


def is_unipotent_upper(mat) -> bool:
    rows = _freeze(mat)
    n = len(rows)
    return all(
        rows[i][j] == (1 if i == j else 0)
        for i in range(n)
        for j in range(n)
        if j <= i
    )


def _nilpotent_series(N, coeffs: Sequence[Fraction]):
    """sum_k coeffs[k] N^k for a nilpotent matrix N given as row tuples over
    any Q-algebra whose zero is N's diagonal entry (int, Fraction, MultiPoly);
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


def nilpotent_exp(N) -> tuple[tuple[int | Fraction, ...], ...]:
    """Finite-series exponential of a strictly upper triangular matrix."""
    rows = _freeze(N)
    if not is_strictly_upper(rows):
        raise ValueError("nilpotent_exp requires strictly upper triangular input")
    return exp_series(rows)


def nilpotent_log(u) -> tuple[tuple[int | Fraction, ...], ...]:
    """Finite-series logarithm of a unipotent upper triangular matrix."""
    rows = _freeze(u)
    if not is_unipotent_upper(rows):
        raise ValueError("nilpotent_log requires unipotent upper triangular input")
    n = len(rows)
    N = tuple(tuple(x - 1 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(rows))
    return _nilpotent_series(N, [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, n)])


def span_element(coords: Sequence, basis: Sequence, n: int):
    """sum_k coords[k] basis[k] for n x n matrices given as row tuples."""
    return tuple(
        tuple(sum(c * B[i][j] for c, B in zip(coords, basis)) for j in range(n))
        for i in range(n)
    )


def _upper_coords(mat) -> tuple[int | Fraction, ...]:
    rows = _freeze(mat)
    n = len(rows)
    return tuple(rows[i][j] for i in range(n) for j in range(i + 1, n))


def _coords_to_upper(vec, n):
    it = iter(vec)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = exact(next(it))
    return tuple(tuple(r) for r in rows)


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
    basis: tuple[tuple[tuple[int | Fraction, ...], ...], ...]  # strictly upper matrices
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
    rows = _freeze(mat)
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] * N ** (j - i)).denominator != 1:
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
    mats = [_freeze(g) for g in gens]
    if not mats:
        raise ValueError("no generators")
    n = len(mats[0])
    for g in mats:
        if not is_unipotent_upper(g):
            raise ValueError("generators must be unipotent upper triangular")

    inverses = [nilpotent_exp(tuple(tuple(-x for x in row) for row in nilpotent_log(g))) for g in mats]

    def word_logs(radius: int) -> list[tuple[int | Fraction, ...]]:
        words = bfs(_identity(n), mats + inverses, _matmul, radius)
        return [_upper_coords(nilpotent_log(w)) for w in list(words)[1:]]

    def span_basis(vectors: list[tuple[int | Fraction, ...]]):
        if not vectors:
            return []
        den = 1
        for v in vectors:
            for x in v:
                den = math.lcm(den, x.denominator)
        int_rows = [[int(x * den) for x in v] for v in vectors]
        hnf = _integer_hnf(int_rows)
        return [[exact(Fraction(x, den)) for x in row] for row in hnf]

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
                            worst, (E[i][j] * N ** (j - i)).denominator
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
    ambient_rows: list[list[int | Fraction]] = []
    for g in ambient_ideal_basis:
        g = g if g.variables == variables else g.extend(variables)
        room = D - g.degree()
        if room < 0:
            continue
        for mexp in monomials_upto(variables, room):
            prod = g * MultiPoly(variables, {mexp: 1})
            ambient_rows.append([prod.terms.get(e, 0) for e in monos])
    ambient_rref = rational_row_reduce(ambient_rows) if ambient_rows else []
    ambient_rank = len(ambient_rref)

    mono_polys = [MultiPoly(variables, {e: 1}) for e in monos]
    rows = []
    for pt in points:
        point = dict(zip(variables, pt))
        rows.append([m.eval(point) for m in mono_polys])

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
        vec = [0] * len(monos)
        vec[j] = 1
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
