"""Exact matrix groups over Q: generator sets, word-metric balls and orbit
slices, and the kernels every finite computation shares: the matrix product
``_matmul``, the breadth-first search ``bfs`` and the walk ``Ball.values``.

Matrices are immutable tuples of tuples of exact scalars (``core_arith.exact``:
int, or Fraction where an entry is not integral); dedup is by exact entries,
so relations in the group are handled without any freeness assumption.
``rational_row_reduce`` is the one Gaussian elimination over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .core_arith import exact

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


def _matmul(a, b, q: int = 0):
    """Product of square matrices given as row tuples, over any ring whose
    elements support + and * (int, Fraction, MultiPoly); with q, every entry
    is reduced mod q."""
    cols = tuple(zip(*b))
    if q:
        return tuple(tuple(sum(map(mul, row, col)) % q for col in cols) for row in a)
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _identity(n: int, one=1, zero=0):
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def bfs(
    start: Hashable,
    gens: Sequence,
    step: Callable,
    radius: int | None = None,
    cap: int = 5_000_000,
    label: Callable = lambda r, _i: r + 1,
    start_label=0,
    what: str = "BFS",
) -> dict:
    """Level-synchronous breadth-first search from ``start``.

    The neighbours of a node are ``step(node, g)`` for g in ``gens``, in that
    order; nodes are deduplicated by equality, so they must be hashable
    (entry tuples, points).  A node first reached from ``parent`` through
    ``gens[i]`` gets ``label(labels[parent], i)``: the default folds to the
    radius.  Stops after ``radius`` levels, or when no new node appears.
    Returns node -> label in discovery order; raises ResourceCapError once
    more than ``cap`` nodes are known.
    """
    labels = {start: start_label}
    frontier = [start]
    level = 0
    while frontier and (radius is None or level < radius):
        level += 1
        nxt = []
        for node in frontier:
            base = labels[node]
            for i, g in enumerate(gens):
                m = step(node, g)
                if m not in labels:
                    labels[m] = label(base, i)
                    nxt.append(m)
                    if len(labels) > cap:
                        raise ResourceCapError(
                            f"{what} cap {cap} exceeded at radius {level}",
                            partial_radius=level - 1,
                            size=len(labels),
                        )
        frontier = nxt
    return labels


@dataclass(frozen=True)
class MatrixQ:
    """Invertible square matrix with exact rational entries."""

    entries: Entries

    def __init__(self, entries):
        rows = _freeze(entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "entries", rows)

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

    def trace(self) -> int | Fraction:
        return sum(self.entries[i][i] for i in range(self.n))

    def apply(self, v: Sequence) -> tuple:
        vv = tuple(map(exact, v))
        if len(vv) != self.n:
            raise ValueError("vector dimension mismatch")
        return _apply(vv, self.entries)

    def is_identity(self) -> bool:
        return self == MatrixQ.identity(self.n)

    def transpose(self) -> "MatrixQ":
        return MatrixQ(list(zip(*self.entries)))

    def entry_dict(self, prefix: str = "x") -> dict:
        """Entries keyed x11, x12, ... for polynomial evaluation."""
        out = {}
        for i, row in enumerate(self.entries, start=1):
            for j, x in enumerate(row, start=1):
                out[f"{prefix}{i}{j}"] = x
        return out

    def __repr__(self):
        rows = ["[" + ", ".join(str(x) for x in r) + "]" for r in self.entries]
        return "MatrixQ([" + ", ".join(rows) + "])"


def _apply(v: tuple, rows: Entries) -> tuple:
    return tuple(sum(map(mul, row, v)) for row in rows)


def rational_row_reduce(rows: list[list]) -> list[list[Fraction]]:
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


def entry_variable_names(n: int, prefix: str = "x") -> tuple[str, ...]:
    return tuple(f"{prefix}{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1))


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


@dataclass(frozen=True)
class GeneratorSet:
    generators: tuple[MatrixQ, ...]
    symmetric: bool = True

    def __init__(self, generators: Iterable, symmetric: bool = True):
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
        if symmetric:
            for g in list(out):
                inv = g.inverse()
                if inv.entries not in seen:
                    seen.add(inv.entries)
                    out.append(inv)
        out.sort(key=_sort_key)
        object.__setattr__(self, "generators", tuple(out))
        object.__setattr__(self, "symmetric", symmetric)

    @property
    def n(self) -> int:
        return self.generators[0].n


@dataclass(frozen=True)
class Ball:
    """Word-metric ball: every element with its exact word length <= L."""

    L: int
    length: dict[Entries, int]  # in ball order: word length, then BFS discovery

    @property
    def elements(self) -> list[MatrixQ]:
        elems = [MatrixQ(e) for e in self.length]
        elems.sort(key=lambda m: (self.length[m.entries], _sort_key(m)))
        return elems

    def values(self, f) -> Iterator[tuple[Entries, int | Fraction]]:
        """(entries, f(entries)) for every element in ball order; f's variables
        are matched to entry positions once and f is evaluated by position."""
        index = entry_positions(f.variables, len(next(iter(self.length))))
        for e in self.length:
            flat = sum(e, ())
            yield e, f.eval([flat[k] for k in index])

    def __len__(self):
        return len(self.length)

    def word_length(self, gamma: MatrixQ) -> int:
        return self.length[gamma.entries]


def ball(gens: GeneratorSet, L: int, cap: int = 5_000_000) -> Ball:
    """Every element of word length <= L in the symmetrized generators, with
    its exact word length."""
    if L < 0:
        raise ValueError("radius must be >= 0")
    start = MatrixQ.identity(gens.n).entries
    words = [g.entries for g in gens.generators]
    return Ball(L=L, length=bfs(start, words, _matmul, L, cap, what="ball"))


@dataclass(frozen=True)
class OrbitSlice:
    base: tuple
    points: dict[tuple, int]  # point -> minimal word length

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
    return OrbitSlice(base=base, points=bfs(base, words, _apply, L, cap, what="orbit"))
