"""Exact matrix groups over Q: generator sets, word-metric balls and orbit
slices, and the kernels every finite computation shares: the matrix product
and action generated once per size (``_kernels``, behind ``_matmul`` and
``_apply``), the breadth-first search ``bfs`` and the walk ``Ball.values``.

Matrices are immutable tuples of tuples of exact scalars (``core_arith.exact``:
int, or Fraction where an entry is not integral); dedup is by exact entries,
so relations in the group are handled without any freeness assumption.
``rational_row_reduce`` is the one elimination over Q: fraction-free and
incremental, in int arithmetic until the final reduced basis.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Sequence

from .core_arith import Constructed, exact

Entries = tuple[tuple[int | Fraction, ...], ...]


class ResourceCapError(RuntimeError):
    """Enumeration hit its cardinality cap; carries the partial radius reached."""

    def __init__(self, message: str, partial_radius: int, size: int):
        super().__init__(message)
        self.partial_radius = partial_radius
        self.size = size


def _freeze(mat) -> Entries:
    """Row tuples of exact scalars from a MatrixQ or any nested rows."""
    return tuple(tuple(map(exact, row)) for row in getattr(mat, "entries", mat))


class _Kernels(NamedTuple):
    mul: Callable  # mul(a, b) = a b
    mulmod: Callable  # mulmod(a, b, q) = a b with every entry reduced mod q
    apply: Callable  # apply(v, rows) = rows v


@functools.cache
def _kernels(n: int) -> _Kernels:
    """The matrix product, the product mod q and the action on vectors for
    n x n matrices given as row tuples, as straight-line code: every entry is
    unpacked into a local and every output entry is one expression, so no
    loop runs per product.  The source text holds only names built from the
    int indices, never an entry or a modulus, and it is compiled once per n.
    The kernels work over any ring whose elements support + and * (int,
    Fraction, MultiPoly); each entry is the left-to-right sum of its
    products, so its value and type are those of the naive triple loop."""
    if type(n) is not int:
        raise TypeError(f"matrix size must be an int, not {type(n).__name__}")
    if n < 1:
        raise ValueError(f"matrix size must be >= 1, not {n}")
    idx = range(n)

    def unpack(name):
        return ", ".join("(" + ", ".join(f"{name}{i}_{j}" for j in idx) + ",)" for i in idx)

    def dot(i, j):  # (a b)_ij
        return " + ".join(f"a{i}_{k}*b{k}_{j}" for k in idx)

    def rows(entry):
        return ", ".join("(" + ", ".join(entry(i, j) for j in idx) + ",)" for i in idx)

    vector = ", ".join(f"v{k}" for k in idx)
    action = ", ".join(" + ".join(f"m{i}_{k}*v{k}" for k in idx) for i in idx)
    source = f"""
def mul(a, b):
    {unpack("a")}, = a
    {unpack("b")}, = b
    return ({rows(dot)},)

def mulmod(a, b, q):
    {unpack("a")}, = a
    {unpack("b")}, = b
    return ({rows(lambda i, j: f"({dot(i, j)}) % q")},)

def apply(v, m):
    {vector}, = v
    {unpack("m")}, = m
    return ({action},)
"""
    namespace: dict = {}
    exec(compile(source, f"<matgroup kernels n={n}>", "exec"), namespace)
    return _Kernels(namespace["mul"], namespace["mulmod"], namespace["apply"])


def _matmul(a, b, q: int = 0):
    """Product of square matrices given as row tuples, over any ring whose
    elements support + and * (int, Fraction, MultiPoly); with q, every entry
    is reduced mod q."""
    if type(q) is not int:
        raise TypeError(f"modulus must be an int, not {type(q).__name__}")
    kernels = _kernels(len(a))
    return kernels.mulmod(a, b, q) if q else kernels.mul(a, b)


def _identity(n: int, one=1, zero=0):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def bfs(
    start: Hashable,
    gens: Sequence,
    inverse: Sequence[int],
    step: Callable,
    radius: int | None = None,
    cap: int = 5_000_000,
    label: Callable | None = None,
    start_label=0,
    what: str = "BFS",
) -> dict:
    """Level-synchronous breadth-first search from ``start``.

    The neighbours of a node are ``step(node, g)`` for g in ``gens``, in that
    order; nodes are deduplicated by equality, so they must be hashable
    (entry tuples, points).  ``step`` is an action of the group the list
    generates, and ``gens[inverse[i]]`` is the inverse of ``gens[i]``, so
    stepping from a node through the inverse of the generator that first
    reached it only returns to its parent, which is already labelled: that
    step is never taken, and labels, their order and every cap error are
    those of the search that takes it.  A node first reached from ``parent``
    through ``gens[i]`` gets ``label(labels[parent], i)``; without ``label``,
    ``labels[parent] + 1``, the radius.  Stops after ``radius`` levels, or
    when no new node appears.  Returns node -> label in discovery order;
    raises ResourceCapError once more than ``cap`` nodes are known.
    """
    k = len(gens)
    if len(inverse) != k or any(not 0 <= j < k for j in inverse):
        raise ValueError(f"inverse index {inverse!r} does not index {k} generators")
    # moves[i]: the (index, generator) pairs tried from a node first reached
    # through gens[i]; moves[k], every pair, from the start
    moves = [tuple((j, g) for j, g in enumerate(gens) if j != inverse[i]) for i in range(k)]
    moves.append(tuple(enumerate(gens)))
    labels = {start: start_label}
    # each frontier node beside the index of the generator that reached it,
    # in two lists: a pair per node would hold a tuple per node
    frontier, reached_by = [start], [k]
    level = 0
    while frontier and (radius is None or level < radius):
        level += 1
        nxt, nxt_by = [], []
        for node, via in zip(frontier, reached_by):
            base = labels[node]
            for i, g in moves[via]:
                m = step(node, g)
                if m not in labels:
                    labels[m] = base + 1 if label is None else label(base, i)
                    nxt.append(m)
                    nxt_by.append(i)
                    if len(labels) > cap:
                        raise ResourceCapError(
                            f"{what} cap {cap} exceeded at radius {level}",
                            partial_radius=level - 1,
                            size=len(labels),
                        )
        frontier, reached_by = nxt, nxt_by
    return labels


class _MatrixQ(NamedTuple):
    entries: Entries


class MatrixQ(Constructed, _MatrixQ):
    """Invertible square matrix with exact rational entries."""

    __slots__ = ()

    def __new__(cls, entries):
        rows = _freeze(entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        return super().__new__(cls, rows)

    @classmethod
    def _of(cls, rows: Entries) -> "MatrixQ":
        """A matrix from square row tuples of exact scalars, unchecked."""
        return _MatrixQ.__new__(cls, rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "MatrixQ":
        return cls(_identity(n))

    def __matmul__(self, other: "MatrixQ") -> "MatrixQ":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return MatrixQ(_matmul(self.entries, other.entries))

    def det(self) -> int | Fraction:
        n = self.n
        m = [list(r) for r in self.entries]
        det = 1
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                return 0
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det *= m[col][col]
            for r in range(col + 1, n):
                f = Fraction(m[r][col], m[col][col])
                if f:
                    m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return exact(det)

    def inverse(self) -> "MatrixQ":
        """Gauss-Jordan on [M | I]."""
        n = self.n
        rref = rational_row_reduce([r + e for r, e in zip(self.entries, _identity(n))])
        if [row[:n] for row in rref] != [list(e) for e in _identity(n)]:
            raise ValueError("singular matrix")
        return MatrixQ([row[n:] for row in rref])

    def apply(self, v: Sequence) -> tuple:
        vv = tuple(map(exact, v))
        if len(vv) != self.n:
            raise ValueError("vector dimension mismatch")
        return _apply(vv, self.entries)

    def is_identity(self) -> bool:
        return self == MatrixQ.identity(self.n)

    def entry_dict(self) -> dict:
        """Entries keyed x11, x12, ... for polynomial evaluation."""
        return dict(zip(entry_variable_names(self.n), sum(self.entries, ())))

    def __repr__(self):
        rows = ["[" + ", ".join(str(x) for x in r) + "]" for r in self.entries]
        return "MatrixQ([" + ", ".join(rows) + "])"


def _apply(v: tuple, rows: Entries) -> tuple:
    """rows v, for a vector v of the same size."""
    return _kernels(len(rows)).apply(v, rows)


def rational_row_reduce(rows: list[list]) -> list[list[Fraction]]:
    """Reduced row echelon form over Q: the nonzero rows of the RREF of
    ``rows``, pivots ascending.

    Fraction-free and incremental: each row is scaled to a primitive integer
    vector and reduced in int arithmetic against the echelon basis built so
    far, one row per pivot column.  Reading stops once every column has a
    pivot, since any later row would reduce to zero.  Only the final basis of
    at most ncols rows is made reduced over Q, so the output is the unique
    RREF whatever the order of the rows."""
    ncols = len(rows[0]) if rows else 0
    basis: dict[int, list[int]] = {}  # pivot column -> int row
    for row in rows:
        if len(basis) == ncols:
            break
        den = math.lcm(*(x.denominator for x in row))
        v = [int(x * den) for x in row]
        for col in sorted(basis):
            if v[col]:
                v = _cancel(v, basis[col], col)
        if any(v):
            g = math.gcd(*v)
            basis[next(j for j, x in enumerate(v) if x)] = [x // g for x in v]
    pivots = sorted(basis)
    for k in reversed(range(len(pivots))):
        for above in pivots[:k]:
            if basis[above][pivots[k]]:
                basis[above] = _cancel(basis[above], basis[pivots[k]], pivots[k])
    return [[Fraction(x, basis[col][col]) for x in basis[col]] for col in pivots]


def _cancel(v: list[int], b: list[int], col: int) -> list[int]:
    """The int combination s v - t b whose entry at col is 0, s and t coprime."""
    g = math.gcd(b[col], v[col])
    s, t = b[col] // g, v[col] // g
    return [s * x - t * y for x, y in zip(v, b)]


def entry_variable_names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))


def entry_positions(variables: Sequence[str], n: int) -> list[int]:
    """Index of each variable in the row-major flattened entries of an n x n
    matrix; a variable that names no entry x{i}{j} is an error, never 0."""
    position = {name: k for k, name in enumerate(entry_variable_names(n))}
    unknown = [v for v in variables if v not in position]
    if unknown:
        raise ValueError(f"variables {unknown} are not entries of a {n}x{n} matrix")
    return [position[v] for v in variables]


def _sort_key(m: MatrixQ):
    return tuple(
        (x.numerator, x.denominator) for row in m.entries for x in row
    )


class _GeneratorSet(NamedTuple):
    generators: tuple[MatrixQ, ...]


class GeneratorSet(Constructed, _GeneratorSet):
    """The distinct non-identity generators and their inverses, sorted."""

    __slots__ = ()

    def __new__(cls, generators: Iterable):
        gens = [g if isinstance(g, MatrixQ) else MatrixQ(g) for g in generators]
        if not gens:
            raise ValueError("need at least one generator")
        n = gens[0].n
        seen: set[Entries] = set()
        out = []
        for g in gens:
            if g.n != n:
                raise ValueError("generator dimension mismatch")
            if g.det() == 0:
                raise ValueError("generators must be invertible")
            if g.is_identity():
                continue
            if g.entries not in seen:
                seen.add(g.entries)
                out.append(g)
        for g in list(out):
            inv = g.inverse()
            if inv.entries not in seen:
                seen.add(inv.entries)
                out.append(inv)
        if not out:
            raise ValueError("need at least one non-identity generator")
        out.sort(key=_sort_key)
        return super().__new__(cls, tuple(out))

    @property
    def n(self) -> int:
        return self.generators[0].n

    @property
    def inverses(self) -> tuple[int, ...]:
        """The index of each generator's inverse in ``generators``."""
        return _inverse_index(self.generators)


@functools.cache
def _inverse_index(generators: tuple[MatrixQ, ...]) -> tuple[int, ...]:
    """For each g, the first h in the list with g h = I, found by products
    (no elimination over Q)."""
    entries = [g.entries for g in generators]
    mul, one = _kernels(len(entries[0])).mul, _identity(len(entries[0]))
    return tuple(next(k for k, h in enumerate(entries) if mul(g, h) == one) for g in entries)


class _Ball(NamedTuple):
    L: int
    length: dict[Entries, int]  # in ball order: word length, then BFS discovery


class Ball(Constructed, _Ball):
    """Word-metric ball: every element with its exact word length <= L."""

    __slots__ = ()

    def values(self, f) -> Iterator[tuple[Entries, int | Fraction]]:
        """(entries, f(entries)) for every element in ball order; f's term
        plan is mapped to row-major entry positions once and run on each
        element's flattened entries."""
        plan = f.term_plan(entry_positions(f.variables, len(next(iter(self.length)))))
        run = f.run_plan
        for e in self.length:
            yield e, run(plan, sum(e, ()))

    def __len__(self):
        return len(self.length)


def ball(gens: GeneratorSet, L: int, cap: int = 5_000_000) -> Ball:
    """Every element of word length <= L in the symmetrized generators, with
    its exact word length."""
    if L < 0:
        raise ValueError("radius must be >= 0")
    start = MatrixQ.identity(gens.n).entries
    words = [g.entries for g in gens.generators]
    return Ball(L=L, length=bfs(start, words, gens.inverses, _kernels(gens.n).mul, L, cap, what="ball"))


class _OrbitSlice(NamedTuple):
    points: dict[tuple, int]  # point -> minimal word length


class OrbitSlice(Constructed, _OrbitSlice):
    __slots__ = ()

    def __len__(self):
        return len(self.points)


def orbit(gens: GeneratorSet, v: Sequence, L: int, cap: int = 5_000_000) -> OrbitSlice:
    """{gamma v : l(gamma) <= L} by BFS directly on points (cheaper than a full
    ball when the stabilizer is large)."""
    if L < 0:
        raise ValueError("radius must be >= 0")
    base = tuple(map(exact, v))
    if len(base) != gens.n:
        raise ValueError("vector dimension mismatch")
    words = [g.entries for g in gens.generators]
    return OrbitSlice(points=bfs(base, words, gens.inverses, _kernels(gens.n).apply, L, cap, what="orbit"))
