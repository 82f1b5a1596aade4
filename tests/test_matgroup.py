import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from affsieve.matgroup import (
    GeneratorSet,
    MatrixQ,
    ResourceCapError,
    ball,
    entry_variable_names,
    orbit,
)

A = MatrixQ([[1, 2], [0, 1]])
B = MatrixQ([[1, 0], [2, 1]])
FREE = GeneratorSet([A, B])


def test_matrix_basics():
    assert (A @ A.inverse()).is_identity()
    assert A.det() == 1
    assert A.trace() == 2
    assert A.apply((1, 0)) == (Fraction(1), Fraction(0))
    assert A.apply((0, 1)) == (Fraction(2), Fraction(1))
    assert A.transpose() == B
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


def test_free_pair_ball_sizes():
    # the pair generates a free group, so |B(L)| = 2 * 3^L - 1
    for L in range(6):
        assert len(ball(FREE, L)) == 2 * 3**L - 1


def test_ball_word_lengths_are_minimal():
    b = ball(FREE, 3)
    assert b.word_length(MatrixQ.identity(2)) == 0
    assert b.word_length(A) == 1
    assert b.word_length(A @ A) == 2
    assert b.word_length(A @ B) == 2


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
    from_ball = {tuple(m.apply(v)) for m in ball(FREE, 3).elements}
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
