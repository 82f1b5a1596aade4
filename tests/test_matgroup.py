import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affsieve import matgroup
from affsieve.matgroup import (
    GeneratorSet,
    MatrixQ,
    ResourceCapError,
    _apply,
    _identity,
    _kernels,
    _matmul,
    ball,
    bfs,
    entry_variable_names,
    orbit,
)
from affsieve.polyalg import MultiPoly

A = MatrixQ([[1, 2], [0, 1]])
B = MatrixQ([[1, 0], [2, 1]])
FREE = GeneratorSet([A, B])


def test_matrix_basics():
    assert (A @ A.inverse()).is_identity()
    assert A.det() == 1
    assert sum(A.entries[i][i] for i in range(A.n)) == 2  # the trace of A
    assert A.apply((1, 0)) == (Fraction(1), Fraction(0))
    assert A.apply((0, 1)) == (Fraction(2), Fraction(1))
    assert MatrixQ(list(zip(*A.entries))) == B  # the transpose of A
    with pytest.raises(ValueError):
        MatrixQ([[1, 2], [3]])


def test_entry_dict():
    d = A.entry_dict()
    assert d == {"x11": 1, "x12": 2, "x21": 0, "x22": 1}
    assert entry_variable_names(2) == ("x11", "x12", "x21", "x22")


def test_generator_set_symmetrizes_and_dedups():
    g = GeneratorSet([A, A, A.inverse()])
    assert len(g.generators) == 2
    with pytest.raises(ValueError):
        GeneratorSet([MatrixQ([[1, 0], [0, 0]])])
    # only identities: the group is trivial and has no size to read
    with pytest.raises(ValueError, match="non-identity"):
        GeneratorSet([MatrixQ.identity(2), [[1, 0], [0, 1]]])


def test_replace_goes_through_the_constructor():
    # records are NamedTuples; _replace normalizes and checks as the
    # constructor does, and len of a ball still counts its elements
    with pytest.raises(ValueError, match="square"):
        MatrixQ(A)._replace(entries=((1, 2), (3,)))
    assert A._replace(entries=[[1, 2], [0, 1]]) == A
    assert type(FREE._replace(generators=[B, A])) is GeneratorSet
    assert FREE._replace(generators=[B, A]) == FREE
    B2 = ball(FREE, 2)
    assert len(B2._replace(L=2)) == len(B2) == 17
    assert len(orbit(FREE, (1, 0), 2)._replace()) == len(orbit(FREE, (1, 0), 2))


def test_free_pair_ball_sizes():
    # the pair generates a free group, so |B(L)| = 2 * 3^L - 1
    for L in range(6):
        assert len(ball(FREE, L)) == 2 * 3**L - 1


def test_ball_word_lengths_are_minimal():
    b = ball(FREE, 3)
    assert b.length[MatrixQ.identity(2).entries] == 0
    assert b.length[A.entries] == 1
    assert b.length[(A @ A).entries] == 2
    assert b.length[(A @ B).entries] == 2


def test_cyclic_ball():
    g = GeneratorSet([MatrixQ([[1, 1], [0, 1]])])
    assert len(ball(g, 5)) == 11  # identity plus powers -5..5


def test_ball_nesting():
    small = ball(FREE, 2)
    large = ball(FREE, 3)
    assert set(small.length) <= set(large.length)
    for e, l in small.length.items():
        assert large.length[e] == l


def test_ball_cap():
    with pytest.raises(ResourceCapError) as exc:
        ball(FREE, 6, cap=100)
    assert exc.value.partial_radius < 6
    assert exc.value.size > 100


def test_orbit_matches_ball_projection():
    v = (1, 0)
    o = orbit(FREE, v, 3)
    from_ball = {MatrixQ(e).apply(v) for e in ball(FREE, 3).length}
    assert set(o.points) == from_ball


def _leibniz(rows):
    """det as the signed sum over permutations, in Fraction arithmetic."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(Fraction(rows[i][perm[i]]) for i in range(n))
    return total


SCALARS = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5))


@st.composite
def invertible_rows(draw):
    n = draw(st.sampled_from((2, 3)))
    rows = draw(st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(rows[0][0] not in (0, 1, -1))  # a non-unit first pivot
    assume(_leibniz(rows) != 0)
    return rows


@settings(max_examples=150, deadline=None)
@given(invertible_rows())
@example([[3, 1], [5, 2]])
@example([[2, 3, 1], [4, 1, 5], [7, 2, 2]])
def test_inverse_and_det_are_exact(rows):
    # no division of two ints may go through a float: M M^-1 = I, det is the
    # Leibniz expansion, and every scalar is an int or a Fraction
    M = MatrixQ(rows)
    inv = M.inverse()
    assert (M @ inv).is_identity() and (inv @ M).is_identity()
    assert M.det() == _leibniz(rows)
    assert inv.det() == 1 / _leibniz(rows)
    for value in [M.det(), inv.det(), *(x for row in inv.entries for x in row)]:
        assert type(value) in (int, Fraction)


def test_inverse_frozen_non_unit_pivot():
    M = MatrixQ([[3, 1], [5, 2]])
    assert M.inverse() == MatrixQ([[2, -1], [-5, 3]])
    assert M.det() == 1 and type(M.det()) is int
    assert all(type(x) is int for row in M.inverse().entries for x in row)
    with pytest.raises(ValueError):
        MatrixQ([[2, 4], [1, 2]]).inverse()


@st.composite
def row_lists(draw):
    """Rows over int or Fraction entries, with zero rows, duplicate rows,
    rows built from a few others, and often more rows than columns."""
    ncols = draw(st.integers(1, 5))
    row = st.lists(SCALARS, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "combination")))
        if kind == "zero":
            extra = [0] * ncols
        elif kind == "duplicate":
            extra = list(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(SCALARS)
            extra = [x + c * y for x, y in zip(a, b)]
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return rows


@settings(max_examples=300, deadline=None)
@given(row_lists())
@example([[0, 0], [0, 0]])
@example([[1, 2], [2, 4], [3, 6]])
@example([[Fraction(1, 2), 3], [2, Fraction(-1, 3)], [1, 1], [0, 5]])
def test_rational_row_reduce_matches_sympy_rref(rows):
    import sympy

    R, pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows]).rref()
    want = [[Fraction(int(x.p), int(x.q)) for x in R.row(i)] for i in range(len(pivots))]
    got = matgroup.rational_row_reduce(rows)
    assert got == want
    assert all(type(x) is Fraction for r in got for x in r)


# -- the generated kernels against the naive triple loop ------------------


def _naive_matmul(a, b, q=0):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            total = 0
            for k in range(n):
                total = total + a[i][k] * b[k][j]
            row.append(total % q if q else total)
        out.append(tuple(row))
    return tuple(out)


def _naive_apply(v, rows):
    out = []
    for row in rows:
        total = 0
        for x, y in zip(row, v):
            total = total + x * y
        out.append(total)
    return tuple(out)


def _types(m):
    return [[type(x) for x in row] for row in m]


POLY_ENTRIES = st.builds(
    lambda terms: MultiPoly(("s", "t"), terms),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=3),
)
ENTRY_KINDS = {
    "int": st.integers(-10**20, 10**20),
    # integral Fractions too: a product may hold Fraction(2, 1) beside 2
    "fraction": st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=7)),
    "multipoly": st.one_of(st.integers(-3, 3), POLY_ENTRIES),
}


@st.composite
def kernel_inputs(draw):
    kind = draw(st.sampled_from(sorted(ENTRY_KINDS)))
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(ENTRY_KINDS[kind], min_size=n, max_size=n).map(tuple), min_size=n, max_size=n)
    a, b = draw(square.map(tuple)), draw(square.map(tuple))
    v = draw(st.lists(ENTRY_KINDS[kind], min_size=n, max_size=n).map(tuple))
    q = draw(st.integers(2, 10**6)) if kind != "multipoly" else 0
    return a, b, v, q


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_kernels_match_the_naive_loops(inputs):
    # equal values and equal types: records write int and Fraction differently
    a, b, v, q = inputs
    for got, want in ((_matmul(a, b), _naive_matmul(a, b)), (_matmul(a, b, q), _naive_matmul(a, b, q))):
        assert got == want and _types(got) == _types(want)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
    got = _apply(v, a)
    assert got == _naive_apply(v, a) and type(got) is tuple
    assert [type(x) for x in got] == [type(x) for x in _naive_apply(v, a)]


def test_kernels_refuse_non_int_sizes_and_moduli(monkeypatch):
    # only int indices may reach the generated source text
    built = []

    def spy(source, *args):
        built.append(source)
        return compile(source, *args)

    monkeypatch.setattr(matgroup, "compile", spy, raising=False)
    _kernels.cache_clear()
    try:
        _kernels(1), _kernels(2)  # cached, and 1.0, True and 2.0 compare equal to them
        assert len(built) == 2
        for n in (1.0, 2.0, True, Fraction(2), "2", "0) + __import__('os').getpid() + (1"):
            with pytest.raises(TypeError):
                _kernels(n)
        with pytest.raises(ValueError):
            _kernels(0)
        I3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        for q in (5.0, Fraction(5), "5"):
            with pytest.raises(TypeError):
                _matmul(I3, I3, q)  # n = 3 is not cached yet
        assert len(built) == 2
        assert _matmul(I3, ((6, 7, 8),) * 3, 5) == ((1, 2, 3),) * 3
        assert len(built) == 3
    finally:
        _kernels.cache_clear()


def _reference_bfs(start, gens, step, radius=None, cap=5_000_000, label=lambda r, _i: r + 1, start_label=0):
    """The search that steps from every node through every generator,
    including back to the parent through the inverse of the one that
    reached it."""
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
                        raise ResourceCapError("cap", partial_radius=level - 1, size=len(labels))
        frontier = nxt
    return labels


def _outcome(search, *args, **kwargs):
    try:
        return list(search(*args, **kwargs).items())
    except ResourceCapError as exc:
        return ("cap", exc.partial_radius, exc.size)


ELEMENTARY = st.tuples(st.booleans(), st.integers(-3, 3)).map(
    lambda bt: ((1, bt[1]), (0, 1)) if bt[0] else ((1, 0), (bt[1], 1))
)
SL2_ELEMENTS = st.one_of(
    st.just(((-1, 0), (0, -1))),  # its own inverse
    st.lists(ELEMENTARY, min_size=1, max_size=3).map(lambda ms: functools.reduce(_matmul, ms)),
)
SL2_GENERATORS = st.one_of(
    # free pairs: no relation among short words
    st.tuples(st.integers(2, 4), st.integers(2, 4)).map(lambda ab: [((1, ab[0]), (0, 1)), ((1, 0), (ab[1], 1))]),
    st.lists(SL2_ELEMENTS, min_size=1, max_size=3),
)


@settings(max_examples=80, deadline=None)
@given(
    SL2_GENERATORS,
    st.sampled_from(("ball", "image", "orbit")),
    st.integers(2, 30),
    st.integers(0, 5),
    st.booleans(),
    st.one_of(st.just(5_000_000), st.integers(1, 80)),
)
def test_bfs_matches_the_reference_search(rows, kind, q, radius, words, cap):
    # skipping the step back to the parent changes no label, no order and no
    # cap error: on balls, on images mod q (where relations hold), on orbits
    # of (1, 0) (whose stabilizer holds [[1, a], [0, 1]]), with radius and
    # with word labels
    assume(any(r != _identity(2) for r in rows))
    gens = GeneratorSet(rows)
    entries = [g.entries for g in gens.generators]
    start, step = _identity(2), _matmul
    if kind == "image":
        entries = [tuple(tuple(x % q for x in row) for row in g) for g in entries]
        step, radius = functools.partial(_matmul, q=q), None
    elif kind == "orbit":
        start, step = (1, 0), _apply
    extra = {"cap": cap}
    if words:
        extra.update(label=lambda word, i: word + (i,), start_label=())
    got = _outcome(bfs, start, entries, gens.inverses, step, radius, **extra)
    assert got == _outcome(_reference_bfs, start, entries, step, radius, **extra)


def test_bfs_skips_the_step_back_to_the_parent():
    # a radius-8 ball on a free pair: 4 products from the identity and 3
    # from each of the other 4,372 nodes inside radius 7, not 4 from each
    calls = []

    def step(a, b):
        calls.append(1)
        return _matmul(a, b)

    entries = [g.entries for g in FREE.generators]
    assert list(bfs(_identity(2), entries, FREE.inverses, step, 8)) == list(ball(FREE, 8).length)
    assert len(calls) == 4 + 3 * (2 * 3**7 - 2) == 13_120
    with pytest.raises(ValueError, match="inverse index"):
        bfs(_identity(2), entries, FREE.inverses[:3], step, 1)
