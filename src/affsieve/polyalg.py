"""Exact sparse multivariate polynomials, with an exact multivariate gcd
and division, and the machinery behind the unipotent sieve's coordinates:
nilpotent exp/log, lattice coordinates for unipotent groups on a Mal'cev
basis in canonical Hermite normal form, and a bounded-degree density test for
finite point sets on the one elimination ``rational_row_reduce``.

Coefficients are exact scalars (``core_arith.exact``: int, or Fraction where
a coefficient is not integral); no floats.  Polynomial text is read by a
recursive-descent parser that evaluates nothing.  The gcd is a primitive
remainder sequence over Z, normalized as ``sympy.gcd`` normalizes it, on the
one pseudo-division ``_prem``, which the unipotent sieve's gcd certificate
also runs;
``to_sympy``/``from_sympy`` serve only the unipotent sieve's factoring of
members it cannot prove irreducible.

This module stays under 8,192 parser tokens: past that, CPython 3.11's parser
doubles its token array and preallocates 8,192 more tokens (about 0.5 MB)
while compiling it, which every process that imports affsieve without a
bytecode cache pays in peak RSS.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .core_arith import exact, factorize
from .matgroup import _freeze, _identity, _matmul, bfs, rational_row_reduce


class MultiPoly:
    """Sparse polynomial over Q with a fixed ordered variable tuple.

    ``terms`` is read, never changed, after construction: the term plan that
    ``eval`` runs is built from it on first use and kept in a slot.
    """

    __slots__ = ("variables", "terms", "_plan")

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
        self._plan = None

    @classmethod
    def _of(cls, variables: tuple[str, ...], terms: dict) -> "MultiPoly":
        """A polynomial from terms that MultiPoly's own arithmetic built,
        unchecked: exponent tuples match the variables, and coefficients are
        nonzero ints, or Fractions where not integral (``_exact_terms``)."""
        out = cls.__new__(cls)
        out.variables, out.terms, out._plan = variables, terms, None
        return out

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
        return not any(map(any, self.terms))

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
        return max(map(operator.itemgetter(i), self.terms))

    def used_variables(self) -> frozenset[str]:
        return frozenset(itertools.compress(self.variables, map(any, zip(*self.terms))))

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
        return MultiPoly._of(self.variables, _exact_terms(terms))

    def __neg__(self):
        return MultiPoly._of(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        terms = _product(self.terms, self._coerce(other).terms)
        return MultiPoly._of(self.variables, _exact_terms(terms))

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
        terms = {e: c * v for e, v in self.terms.items()}
        return MultiPoly._of(self.variables, _exact_terms(terms))

    def __divmod__(self, d) -> tuple["MultiPoly", "MultiPoly"]:
        """(q, r) with self = q*d + r, dividing by d's leading term in lex
        order of the variable tuple; r is 0 exactly when d divides self."""
        d = self._coerce(d)
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead = max(d.terms)
        lc, tail = d.terms[lead], [(e, c) for e, c in d.terms.items() if e != lead]
        rem, q, r = dict(self.terms), {}, {}
        while rem:
            e = max(rem)
            shift = tuple(map(operator.sub, e, lead))
            if min(shift) < 0:
                r[e] = rem.pop(e)
                continue
            q[shift] = t = exact(Fraction(rem.pop(e)) / lc)
            for e2, c2 in tail:
                k = tuple(map(operator.add, shift, e2))
                rem[k] = rem.get(k, 0) - t * c2
                if not rem[k]:
                    del rem[k]
        return MultiPoly._of(self.variables, q), MultiPoly._of(self.variables, _exact_terms(r))

    def gcd(self, other) -> "MultiPoly":
        """Greatest common divisor, normalized as ``sympy.gcd`` normalizes it
        when the variable tuple is in sympy's generator order (y1, y2, ...,
        y10 by index): two constants give their rational gcd; integer
        coefficients give the gcd over Z, its leading coefficient positive;
        any other coefficient gives the monic gcd over Q."""
        other = self._coerce(other)
        if self.is_constant() and other.is_constant():
            a, b = Fraction(self.constant_value()), Fraction(other.constant_value())
            c = Fraction(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator))
            return MultiPoly.constant(self.variables, c)
        da, db = self.denominator_lcm(), other.denominator_lcm()
        g = _zgcd(self.scale(da), other.scale(db))
        return g if da == db == 1 else g.scale(Fraction(1, g.terms[max(g.terms)]))

    # -- evaluation & substitution --------------------------------------

    def term_plan(self, positions: Sequence[int] | None = None) -> tuple:
        """The terms as (coefficient, ((position, exponent), ...)), zero
        exponents dropped; variable k sits at position k of a point, or at
        ``positions[k]`` when positions are given."""
        if self._plan is None:
            self._plan = tuple(
                (c, tuple((k, e) for k, e in enumerate(exps) if e)) for exps, c in self.terms.items()
            )
        if positions is None:
            return self._plan
        return tuple((c, tuple((positions[k], e) for k, e in factors)) for c, factors in self._plan)

    @staticmethod
    def run_plan(plan: tuple, values: Sequence) -> int | Fraction:
        """Sum over the plan's terms of coefficient * prod values[position]**exponent:
        int arithmetic when the values and the coefficients are integers."""
        total = 0
        for t, factors in plan:
            for k, e in factors:
                t *= values[k] if e == 1 else values[k] ** e
            total += t
        return total

    def eval(self, point: Mapping[str, Fraction | int] | Sequence) -> int | Fraction:
        """Exact value at a point of exact scalars, given as a mapping from
        variable names or as a sequence in variable order."""
        if hasattr(point, "keys"):
            point = [point[v] for v in self.variables]
        elif len(point) != len(self.variables):
            raise ValueError(
                f"point has {len(point)} coordinates, polynomial has {len(self.variables)} variables"
            )
        return self.run_plan(self.term_plan(), point)

    def eval_mod(self, point: Mapping[str, int], p: int) -> int:
        missing = [v for v in self.variables if v not in point]
        if missing:
            raise ValueError(f"no value for variables {missing}")
        return self.run_plan(self.mod(p).term_plan(), [int(point[v]) for v in self.variables]) % p

    def mod(self, m: int) -> "MultiPoly":
        """The polynomial over the residues mod m: coefficients in [0, m),
        zeros dropped.  The one place a coefficient denominator is checked to
        be invertible mod m."""
        out = {}
        for exps, c in self.terms.items():
            if type(c) is not int:
                if math.gcd(c.denominator, m) != 1:
                    raise ValueError(f"coefficient denominator {c.denominator} not invertible mod {m}")
                c = c.numerator * pow(c.denominator, -1, m)
            r = c % m
            if r:
                out[exps] = r
        return MultiPoly._of(self.variables, out)

    def substitute(
        self,
        assignment: Mapping[str, "MultiPoly | Fraction | int"],
        variables: Sequence[str] | None = None,
    ) -> "MultiPoly":
        """Substitute polynomials or constants for variables (exact expansion).

        The result is over ``variables`` (default: this polynomial's tuple),
        which the polynomial images must share; a variable that occurs and
        has no image must be one of them.  Each image's powers are built
        once, and only for variables that occur."""
        target = self.variables if variables is None else tuple(variables)
        powers: dict[int, list[dict]] = {}  # position k -> terms of image**1 .. image**degree
        kept: list[tuple[int, int]] = []  # (position here, position in target)
        for k, (v, degree) in enumerate(zip(self.variables, map(max, zip(*self.terms)))):
            if not degree:
                continue
            if v in assignment:
                image = assignment[v]
                image = image if isinstance(image, MultiPoly) else MultiPoly.constant(target, image)
                if image.variables != target:
                    raise ValueError("variable tuples differ")
                powers[k] = [image.terms]
                for _ in range(degree - 1):
                    powers[k].append(_product(powers[k][-1], image.terms))
            elif v in target:
                kept.append((k, target.index(v)))
            else:
                raise ValueError(f"no image for variable {v}")
        out: dict[tuple[int, ...], int | Fraction] = {}
        for exps, c in self.terms.items():
            mono = [0] * len(target)
            for k, j in kept:
                mono[j] = exps[k]
            term = {tuple(mono): c}
            for k, images in powers.items():
                if exps[k]:
                    term = _product(term, images[exps[k] - 1])
            for e, x in term.items():
                out[e] = out.get(e, 0) + x
        return MultiPoly._of(target, _exact_terms(out))

    def coeff_in(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name^k, as a polynomial over the same variable tuple."""
        i = self.variables.index(name)
        terms = {e[:i] + (0,) + e[i + 1 :]: c for e, c in self.terms.items() if e[i] == k}
        return MultiPoly._of(self.variables, terms)

    # -- integrality helpers --------------------------------------------

    def denominator_lcm(self) -> int:
        return math.lcm(*(c.denominator for c in self.terms.values())) if self.terms else 1

    def integer_content(self) -> int:
        """gcd of coefficients; requires integer coefficients."""
        if self.denominator_lcm() != 1:
            raise ValueError("integer_content requires integer coefficients")
        return math.gcd(*(abs(c.numerator) for c in self.terms.values())) if self.terms else 0


def _exact_terms(terms: dict) -> dict:
    """The terms without zero coefficients, integral Fractions made int."""
    return {e: c if type(c) is int else exact(c) for e, c in terms.items() if c}


def _product(a: dict, b: dict) -> dict:
    """The terms of the product of two polynomials' terms, zeros kept."""
    terms: dict[tuple[int, ...], int | Fraction] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(operator.add, e1, e2))
            terms[key] = terms.get(key, 0) + c1 * c2
    return terms


def _zgcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """gcd in Z[variables] of integer polynomials, leading coefficient
    positive: the gcd of the contents in a variable v, times the primitive
    part of the last remainder of the primitive PRS of their primitive parts
    (Brown 1971).  v is one that only one of them uses, if any: then the gcd
    is that of the other and the user's coefficients in v; else v is one of
    least degree."""
    uf, ug = f.used_variables(), g.used_variables()
    if not uf | ug:
        return MultiPoly.constant(f.variables, math.gcd(f.constant_value(), g.constant_value()))
    if f.is_zero() or g.is_zero():
        h = f + g
        return h if h.terms[max(h.terms)] > 0 else -h
    v = min(uf | ug, key=lambda x: (x in uf and x in ug, max(f.degree_in(x), g.degree_in(x)), f.variables.index(x)))
    if v not in uf or v not in ug:
        user, other = (f, g) if v in uf else (g, f)
        return _coeff_gcd(user, other, v)
    (cf, f), (cg, g) = _content(f, v), _content(g, v)
    while not g.is_zero():
        f, g = g, _content(_prem(f, g, v)[2], v)[1]
    h = f * _zgcd(cf, cg)
    return h if h.terms[max(h.terms)] > 0 else -h


def _coeff_gcd(f: MultiPoly, c: MultiPoly, v: str) -> MultiPoly:
    """The gcd of c and of f's coefficients in v, folded smallest first so
    that the running gcd, which divides each, stays small."""
    parts = [c] + [f.coeff_in(v, k) for k in range(f.degree_in(v) + 1)]
    c, one = MultiPoly.constant(f.variables, 0), MultiPoly.constant(f.variables, 1)
    for p in sorted(parts, key=lambda p: len(p.terms)):
        c = _zgcd(c, p)
        if c == one:
            break
    return c


def _content(f: MultiPoly, v: str) -> tuple[MultiPoly, MultiPoly]:
    """(content, primitive part) of an integer polynomial in Z[others][v]."""
    c = _coeff_gcd(f, MultiPoly.constant(f.variables, 0), v)
    return c, divmod(f, c)[0] if c.terms and c != MultiPoly.constant(f.variables, 1) else f


def _prem(f: MultiPoly, g: MultiPoly, v: str) -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Pseudo-division of f by g in v (Knuth, TAOCP vol. 2, 4.6.1): (a, q, r)
    with a*f = q*g + r, a a power of g's leading coefficient in v and r of
    degree in v below g's."""
    n = g.degree_in(v)
    lg, x = g.coeff_in(v, n), MultiPoly.var(f.variables, v)
    a, q = MultiPoly.constant(f.variables, 1), MultiPoly.constant(f.variables, 0)
    while not f.is_zero() and (k := f.degree_in(v)) >= n:
        c = f.coeff_in(v, k) * x ** (k - n)
        a, q, f = a * lg, q * lg + c, f * lg - g * c
    return a, q, f


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


# ---------------------------------------------------------------------------
# certificate failures


class CertificateError(RuntimeError):
    """A certificate or exact cross-check failed to verify."""


class CoprimalityError(ValueError):
    """A declared family has a nonconstant common factor, named in the
    message."""


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


@cache
def _series_weights(n: int, log: bool) -> tuple[tuple[int, ...], int]:
    """Integer weights w and a denominator W with w[k] / W the k-th series
    coefficient, k < n: 1/k! for exp, (-1)^(k+1)/k (and 0 at k = 0) for log."""
    W = math.factorial(n - 1)
    if log:
        return (0, *((-1) ** (k + 1) * W // k for k in range(1, n))), W
    return tuple(W // math.factorial(k) for k in range(n)), W


@cache
def _lattice_form(basis: tuple, scale: int, n: int) -> tuple[tuple[tuple[int, ...], ...], tuple, Callable]:
    """(form, c, q) for the lattice points of (basis, scale): with D the lcm of
    the basis denominators, form holds for each entry (i, j) above the
    diagonal, row by row, the ints (D scale B[i][j] for B in basis), and
    (c, q) are the weights and division of ``_scaled_weights`` at D."""
    D = math.lcm(*(x.denominator for B in basis for row in B for x in row))
    form = tuple(tuple(int(B[i][j] * D) * scale for B in basis) for i in range(n) for j in range(i + 1, n))
    return form, *_scaled_weights(n, False, D)


def _scaled_weights(n: int, log: bool, D: int) -> tuple[tuple[int, ...], Callable]:
    """(c, q) with q(sum_k c[k] M^k) the exp or log series of M / D for an int
    nilpotent n x n matrix M: c[k] = w[k] D^(n-1-k), and q divides by
    W D^(n-1), to an int wherever the quotient is integral."""
    w, W = _series_weights(n, log)
    L = W * D ** (n - 1)
    return tuple(x * D ** (n - 1 - k) for k, x in enumerate(w)), lambda x: x // L if x % L == 0 else Fraction(x, L)


@cache
def _series_kernel(n: int) -> Callable:
    """series(m, c, q) = q applied to each entry of sum_k c[k] M^k, for the
    strictly upper n x n int matrix M whose entries above the diagonal are m,
    row by row, as straight-line code: every entry is a local, and only the
    entries of M^k that can be nonzero (j - i >= k) are formed.  The source
    holds only names built from int indices, and is compiled once per n."""
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    lines = [
        f"[{', '.join(f'p1_{i}_{j}' for i, j in upper)}] = m",
        f"[{', '.join(f'c{k}' for k in range(n))}] = c",
        "d = q(c0)",
    ]
    lines += [  # (M^k)_ij = sum_l (M^(k-1))_il M_lj
        f"p{k}_{i}_{j} = " + " + ".join(f"p{k - 1}_{i}_{l}*p1_{l}_{j}" for l in range(i + k - 1, j))
        for k in range(2, n) for i, j in upper if j - i >= k
    ]

    def entry(i, j):
        if i >= j:
            return "d" if i == j else "0"
        return "q(" + " + ".join(f"c{k}*p{k}_{i}_{j}" for k in range(1, j - i + 1)) + ")"

    rows = ", ".join("(" + ", ".join(entry(i, j) for j in range(n)) + ",)" for i in range(n))
    source = "def series(m, c, q):\n    " + "\n    ".join(lines) + f"\n    return ({rows},)\n"
    namespace: dict = {}
    exec(compile(source, f"<polyalg series n={n}>", "exec"), namespace)
    return namespace["series"]


def _int_series(N, log: bool):
    """exp or log series of a strictly upper matrix N of exact scalars, in int
    arithmetic: ``_series_kernel`` runs on the ints D N, D the lcm of N's
    denominators, and divides each entry once, to an int wherever integral."""
    n = len(N)
    upper = [N[i][j] for i in range(n) for j in range(i + 1, n)]
    D = math.lcm(*(x.denominator for x in upper))
    M = [x.numerator * (D // x.denominator) for x in upper]
    return _series_kernel(n)(M, *_scaled_weights(n, log, D))


def _lattice_exp(n: int, basis: tuple, scale: int, coords: Sequence[int]):
    """exp(scale sum_k coords[k] basis[k]) from the lattice's int form, with
    one division per entry: ``nilpotent_exp(span_element(...))``'s entries."""
    form, c, q = _lattice_form(basis, scale, n)
    return _series_kernel(n)([sum(map(operator.mul, coords, cell)) for cell in form], c, q)


def nilpotent_exp(N) -> tuple[tuple[int | Fraction, ...], ...]:
    """Finite-series exponential of a strictly upper triangular matrix."""
    rows = _freeze(N)
    if not is_strictly_upper(rows):
        raise ValueError("nilpotent_exp requires strictly upper triangular input")
    return _int_series(rows, log=False)


def nilpotent_log(u) -> tuple[tuple[int | Fraction, ...], ...]:
    """Finite-series logarithm of a unipotent upper triangular matrix."""
    rows = _freeze(u)
    if not is_unipotent_upper(rows):
        raise ValueError("nilpotent_log requires unipotent upper triangular input")
    N = tuple(tuple(x - 1 if i == j else x for j, x in enumerate(row)) for i, row in enumerate(rows))
    return _int_series(N, log=True)


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
    """Row-style Hermite normal form of the lattice spanned by integer rows:
    the canonical basis, with positive pivots in strictly increasing columns
    and every entry above a pivot in [0, pivot).

    Each row is inserted by unimodular extended-gcd steps against the basis
    row that owns its leading column; then the entries above each pivot are
    reduced, in ascending pivot order, so no step undoes an earlier one."""
    basis: dict[int, list[int]] = {}  # pivot column -> row
    for row in rows:
        v = list(row)
        while any(v):
            col = next(j for j, x in enumerate(v) if x)
            if col not in basis:
                basis[col] = v if v[col] > 0 else [-x for x in v]
                break
            b = basis[col]
            # s b[col] + t v[col] = g = gcd; [[s, t], [-v/g, b/g]] has det 1
            g, s, t, g1, s1, t1 = b[col], 1, 0, v[col], 0, 1
            while g1:
                q = g // g1
                g, s, t, g1, s1, t1 = g1, s1, t1, g - q * g1, s - q * s1, t - q * t1
            if g < 0:
                g, s, t = -g, -s, -t
            bq, vq = b[col] // g, v[col] // g
            basis[col] = [s * x + t * y for x, y in zip(b, v)]
            v = [bq * y - vq * x for x, y in zip(b, v)]
    out = [basis[col] for col in sorted(basis)]
    for i, col in enumerate(sorted(basis)):
        for k in range(i):
            q = out[k][col] // out[i][col]
            if q:
                out[k] = [x - q * y for x, y in zip(out[k], out[i])]
    return out


class NilpotentLog(NamedTuple):
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
        """exp(scale sum_k coords[k] basis[k]), equal to ``nilpotent_exp`` of
        ``span_element``, in int arithmetic on the lattice's int form
        (``_lattice_exp``)."""
        if len(coords) != self.rank:
            raise ValueError("coordinate length mismatch")
        return _lattice_exp(self.n, self.basis, self.scale, coords)


def malcev_lattice(gens: Sequence) -> NilpotentLog:
    """Lattice coordinates for the group generated by unipotent upper
    triangular matrices.

    The Z-span of logarithms of short words is reduced to its canonical
    Hermite basis; span stability is checked by growing the word length once
    and comparing the two bases, which are equal exactly when the lattices
    are.  The scale starts at 1 and is enlarged one prime factor at a time
    until exp(scale * span) lands in the integral form, verified on all basis
    combinations with |coefficients| <= 2, or exceeds 10^6 (ValueError).
    """
    mats = [_freeze(g) for g in gens]
    if not mats:
        raise ValueError("no generators")
    n = len(mats[0])
    for g in mats:
        if not is_unipotent_upper(g):
            raise ValueError("generators must be unipotent upper triangular")

    inverses = [nilpotent_exp(tuple(tuple(-x for x in row) for row in nilpotent_log(g))) for g in mats]
    pairs = [*range(len(mats), 2 * len(mats)), *range(len(mats))]  # index of each inverse

    def word_logs(radius: int) -> list[tuple[int | Fraction, ...]]:
        words = bfs(_identity(n), mats + inverses, pairs, _matmul, radius)
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
        for coords in itertools.product(range(-2, 3), repeat=len(basis)):
            E = _lattice_exp(n, basis, scale, coords)
            # the denominators of d_N E d_N^{-1}, whose (i, j) entry is E[i][j] N^(j-i)
            worst = math.lcm(*((E[i][j] * N ** (j - i)).denominator for i in range(n) for j in range(i + 1, n)))
            if worst > 1:
                break
        else:
            break
        scale *= factorize(worst).primes()[0]  # enlarge by one prime of the offending denominators
        if scale > 10**6:
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


class DensityVerdict(NamedTuple):
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
    "feed me more points".  Every point must have one coordinate per variable.
    """
    if not points:
        raise ValueError("need at least one point")
    if variables is None:
        variables = tuple(f"x{i+1}" for i in range(len(points[0])))
    variables = tuple(variables)
    for i, pt in enumerate(points):
        if len(pt) != len(variables):
            raise ValueError(f"point {i} has {len(pt)} coordinates; expected {len(variables)}")
    monos = monomials_upto(variables, D)
    column = {e: j for j, e in enumerate(monos)}

    # span of ambient combinations of degree <= D, as vectors over monos
    ambient_rows = []
    for g in ambient_ideal_basis:
        g = g if g.variables == variables else g.substitute({}, variables)
        room = D - g.degree()
        if room < 0:
            continue
        for shift in monomials_upto(variables, room):
            row = [0] * len(monos)
            for e, c in g.terms.items():
                row[column[tuple(map(operator.add, e, shift))]] = c
            ambient_rows.append(row)
    ambient = rational_row_reduce(ambient_rows)
    sufficient = len(points) >= len(monos) - len(ambient)
    needed = max(0, len(monos) - len(ambient) - len(points))

    # nullspace of the evaluation matrix, read off the free columns of its
    # RREF; dense iff every null vector lies in the ambient span
    rref = rational_row_reduce([[math.prod(map(pow, pt, e)) for e in monos] for pt in points])
    pivots = [next(j for j, x in enumerate(r) if x) for r in rref]
    for j in sorted(set(range(len(monos))) - set(pivots)):
        v = [0] * len(monos)
        v[j] = 1
        for r, pc in zip(rref, pivots):
            v[pc] = -r[j]
        if len(rational_row_reduce(ambient + [v])) > len(ambient):
            witness = MultiPoly(variables, {e: c for e, c in zip(monos, v) if c != 0})
            return DensityVerdict(False, sufficient, needed, witness)
    return DensityVerdict(True, sufficient, 0)
