"""``RationalMatrix`` keeps each row as integers over a common scale and
builds Fractions only when entries are read.  These properties hold that
storage to the dense references in ``oracles``, which share no code with
the package, on grids that spell their entries as ints, Fractions and
"p/q" strings, with zero rows, empty shapes and large denominators."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarsig.linalg import RationalMatrix, solve_many, symmetric_signature

from oracles import (
    inertia_by_descartes,
    inertia_dense,
    kernel_dense,
    matmul_dense,
    rank_by_minors,
    solution_values,
    solve_dense,
)

BIG = 10**30

values = st.one_of(
    st.just(Fraction(0)),
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)

# Ways to write a value that RationalMatrix must read as that value.
SPELLINGS = [
    lambda x: x,
    lambda x: int(x) if x.denominator == 1 else x,
    str,
    lambda x: f"{3 * x.numerator}/{3 * x.denominator}",
]


def spell(draw, grid):
    return [[draw(st.sampled_from(SPELLINGS))(x) for x in row] for row in grid]


@st.composite
def grids(draw, n_rows=None, n_cols=None):
    """A grid of Fractions with up to 4 rows and columns, some rows all zero."""
    n_rows = draw(st.integers(0, 4)) if n_rows is None else n_rows
    n_cols = draw(st.integers(0, 4)) if n_cols is None else n_cols
    grid = []
    for _ in range(n_rows):
        if draw(st.integers(0, 4)) == 0:
            grid.append([Fraction(0)] * n_cols)
        else:
            grid.append([draw(values) for _ in range(n_cols)])
    return grid


@st.composite
def spelled_grids(draw):
    grid = draw(grids())
    n_cols = len(grid[0]) if grid else draw(st.integers(0, 4))
    return grid, n_cols, spell(draw, grid)


def transposed(grid, n_cols):
    return [[row[j] for row in grid] for j in range(n_cols)]


def rows_of(M):
    return [[M[i, j] for j in range(M.n_cols)] for i in range(M.n_rows)]


@settings(max_examples=150)
@given(spelled_grids())
def test_entries_read_back_as_fractions(case):
    grid, n_cols, spelled = case
    M = RationalMatrix(spelled, n_cols=n_cols)
    assert M.shape == (len(grid), n_cols)
    entries = rows_of(M)
    assert entries == grid
    assert all(type(x) is Fraction for row in entries for x in row)


@settings(max_examples=150)
@given(spelled_grids(), st.data())
def test_equality_and_hash_ignore_spelling(case, data):
    grid, n_cols, spelled = case
    M = RationalMatrix(spelled, n_cols=n_cols)
    N = RationalMatrix(spell(data.draw, grid), n_cols=n_cols)
    assert M == N and hash(M) == hash(N)
    assert M == RationalMatrix(grid, n_cols=n_cols)
    if not grid:
        assert M != RationalMatrix([], n_cols=n_cols + 1)
    elif n_cols:
        i = data.draw(st.integers(0, len(grid) - 1))
        j = data.draw(st.integers(0, n_cols - 1))
        changed = [list(row) for row in grid]
        changed[i][j] += data.draw(st.sampled_from([Fraction(1), Fraction(1, BIG)]))
        assert M != RationalMatrix(changed)


@settings(max_examples=150)
@given(spelled_grids(), st.data())
def test_operations_match_dense_oracles(case, data):
    grid, n_cols, spelled = case
    n_rows = len(grid)
    M = RationalMatrix(spelled, n_cols=n_cols)

    T = M.transpose()
    assert T.shape == (n_cols, n_rows)
    assert rows_of(T) == transposed(grid, n_cols)
    assert T == RationalMatrix(transposed(grid, n_cols), n_cols=n_rows)
    spelled_columns = spell(data.draw, transposed(grid, n_cols))
    assert RationalMatrix(spelled_columns, n_cols=n_rows).transpose() == M

    assert (M == M.transpose()) == (n_rows == n_cols and grid == transposed(grid, n_cols))

    assert M.rank() == rank_by_minors(grid)
    assert M.kernel().basis == tuple(kernel_dense(grid, n_cols))

    x = [row[0] for row in data.draw(grids(n_rows=n_cols, n_cols=1))]
    consistent = [row[0] for row in matmul_dense(grid, [[y] for y in x], 1)]
    arbitrary = [row[0] for row in data.draw(grids(n_rows=n_rows, n_cols=1))]
    rhs = [consistent, arbitrary, [0] * n_rows]
    assert solution_values(solve_many(M, rhs), n_cols) == solve_dense(grid, n_cols, rhs)


@settings(max_examples=150)
@given(st.integers(0, 4).flatmap(lambda n: grids(n_rows=n, n_cols=n)), st.data())
def test_symmetric_signature_matches_dense_oracles(grid, data):
    n = len(grid)
    S = [[grid[i][j] + grid[j][i] for j in range(n)] for i in range(n)]
    M = RationalMatrix(spell(data.draw, S), n_cols=n)
    assert M == M.transpose()
    expected = inertia_dense(S)
    assert symmetric_signature(M) == expected == inertia_by_descartes(S)


@settings(max_examples=60)
@given(spelled_grids(), st.data())
def test_floats_and_ragged_rows_rejected(case, data):
    grid, n_cols, spelled = case
    if grid and n_cols:
        i = data.draw(st.integers(0, len(grid) - 1))
        j = data.draw(st.integers(0, n_cols - 1))
        with_float = [list(row) for row in spelled]
        with_float[i][j] = 0.5
        with pytest.raises(TypeError):
            RationalMatrix(with_float)
        with pytest.raises(TypeError):
            solve_many(RationalMatrix(spelled), [[0.5] * len(grid)])
    ragged = [list(row) for row in spelled] or [[0] * n_cols]
    ragged.append([0] * (n_cols + 1))
    with pytest.raises(ValueError):
        RationalMatrix(ragged)
